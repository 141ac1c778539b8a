/**
 * @file
 * Tests for the binary checkpoint layer: little-endian primitives,
 * the chunked container (strict validation of truncated / corrupt /
 * wrong-version files), bit-exact section round trips, and full
 * save/load through a file.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>

#include "io/checkpoint.hh"
#include "isa/parse.hh"

namespace difftune::io
{
namespace
{

/** A unique temp path, removed when the guard dies. */
class TempFile
{
  public:
    explicit TempFile(const char *name)
        : path_((std::filesystem::temp_directory_path() /
                 (std::string("difftune_io_") + name))
                    .string())
    {
    }

    ~TempFile() { std::remove(path_.c_str()); }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

const double specialDoubles[] = {
    0.0,
    -0.0,
    1.0,
    -1.0 / 3.0,
    1e-300,
    std::numeric_limits<double>::denorm_min(),
    std::numeric_limits<double>::infinity(),
    -std::numeric_limits<double>::infinity(),
    std::numeric_limits<double>::quiet_NaN(),
    std::numeric_limits<double>::max(),
};

bool
sameBits(double a, double b)
{
    return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

TEST(Serialize, RoundTripPrimitives)
{
    ByteWriter writer;
    writer.u8(0xab);
    writer.u32(0xdeadbeef);
    writer.u64(0x0123456789abcdefULL);
    writer.i32(-42);
    writer.str("hello");
    for (double v : specialDoubles)
        writer.f64(v);

    ByteReader reader(writer.data(), "test");
    EXPECT_EQ(reader.u8(), 0xab);
    EXPECT_EQ(reader.u32(), 0xdeadbeefu);
    EXPECT_EQ(reader.u64(), 0x0123456789abcdefULL);
    EXPECT_EQ(reader.i32(), -42);
    EXPECT_EQ(reader.str(), "hello");
    for (double v : specialDoubles)
        EXPECT_TRUE(sameBits(reader.f64(), v));
    EXPECT_TRUE(reader.atEnd());
}

TEST(Serialize, LittleEndianLayout)
{
    // The wire format is little-endian regardless of host order.
    ByteWriter writer;
    writer.u32(0x01020304);
    const std::string &bytes = writer.data();
    ASSERT_EQ(bytes.size(), 4u);
    EXPECT_EQ(uint8_t(bytes[0]), 0x04);
    EXPECT_EQ(uint8_t(bytes[1]), 0x03);
    EXPECT_EQ(uint8_t(bytes[2]), 0x02);
    EXPECT_EQ(uint8_t(bytes[3]), 0x01);
}

TEST(Serialize, ReadPastEndRejected)
{
    ByteWriter writer;
    writer.u32(7);
    ByteReader reader(writer.data(), "test");
    reader.u32();
    EXPECT_THROW(reader.u8(), std::runtime_error);
}

TEST(Serialize, Crc32CheckValue)
{
    // The standard CRC-32 check value.
    EXPECT_EQ(crc32("123456789"), 0xcbf43926u);
    EXPECT_EQ(crc32(""), 0u);
}

TEST(Container, HeaderBytesAreStable)
{
    // The on-disk header is pinned: 8 magic bytes then the version as
    // explicit little-endian — a checkpoint written on any host must
    // start with exactly these bytes. Every file is version 1
    // (version 2 is retired; docs/CHECKPOINT_FORMAT.md).
    ChunkWriter writer;
    writer.add("ABCD", "x");
    const std::string bytes = writer.serialize();
    ASSERT_GE(bytes.size(), 16u);
    EXPECT_EQ(bytes.substr(0, 8), std::string("DTCHKPT\0", 8));
    EXPECT_EQ(uint8_t(bytes[8]), 1);
    EXPECT_EQ(uint8_t(bytes[9]), 0);
    EXPECT_EQ(uint8_t(bytes[10]), 0);
    EXPECT_EQ(uint8_t(bytes[11]), 0);
    // Chunk count = 1, little-endian.
    EXPECT_EQ(uint8_t(bytes[12]), 1);
    EXPECT_EQ(uint8_t(bytes[13]), 0);
}

TEST(Container, ChunkRoundTrip)
{
    ChunkWriter writer;
    writer.add("AAAA", "first payload");
    writer.add("BBBB", std::string("\0binary\xff", 8));
    writer.add("CCCC", "");
    ChunkReader reader(writer.serialize());
    EXPECT_EQ(reader.numChunks(), 3u);
    EXPECT_TRUE(reader.has("AAAA"));
    EXPECT_FALSE(reader.has("ZZZZ"));
    EXPECT_EQ(reader.payload("AAAA"), "first payload");
    EXPECT_EQ(reader.payload("BBBB"), std::string_view("\0binary\xff", 8));
    EXPECT_EQ(reader.payload("CCCC"), "");
    EXPECT_THROW(reader.payload("ZZZZ"), std::runtime_error);
}

TEST(Container, BadMagicRejected)
{
    ChunkWriter writer;
    writer.add("AAAA", "payload");
    std::string bytes = writer.serialize();
    bytes[0] = 'X';
    EXPECT_THROW(ChunkReader{bytes}, std::runtime_error);
}

TEST(Container, WrongVersionRejected)
{
    ChunkWriter writer;
    writer.add("AAAA", "payload");
    std::string bytes = writer.serialize();
    bytes[8] = char(checkpointVersion + 1);
    EXPECT_THROW(ChunkReader{bytes}, std::runtime_error);
}

TEST(Container, TruncationRejectedEverywhere)
{
    ChunkWriter writer;
    writer.add("AAAA", "some payload worth guarding");
    const std::string bytes = writer.serialize();
    // Any proper prefix must be rejected, wherever the cut lands
    // (magic, header, tag, size, payload or CRC).
    for (size_t cut = 0; cut < bytes.size(); ++cut) {
        EXPECT_THROW(ChunkReader(bytes.substr(0, cut)),
                     std::runtime_error)
            << "prefix of " << cut << " bytes was accepted";
    }
    EXPECT_NO_THROW(ChunkReader{bytes});
}

TEST(Container, TrailingGarbageRejected)
{
    ChunkWriter writer;
    writer.add("AAAA", "payload");
    EXPECT_THROW(ChunkReader(writer.serialize() + "junk"),
                 std::runtime_error);
}

TEST(Container, CorruptPayloadByteRejected)
{
    ChunkWriter writer;
    writer.add("AAAA", "payload under crc");
    std::string bytes = writer.serialize();
    bytes[bytes.size() - 10] ^= 0x01; // inside the payload
    EXPECT_THROW(ChunkReader{bytes}, std::runtime_error);
}

TEST(Container, OversizedChunkLengthRejected)
{
    ChunkWriter writer;
    writer.add("AAAA", "pay");
    std::string bytes = writer.serialize();
    // Patch the chunk's u64 size field (offset 20) to a huge value.
    bytes[20] = char(0xff);
    bytes[21] = char(0xff);
    EXPECT_THROW(ChunkReader{bytes}, std::runtime_error);
}

TEST(Container, DuplicateTagPanics)
{
    ChunkWriter writer;
    writer.add("AAAA", "one");
    EXPECT_DEATH(writer.add("AAAA", "two"), "duplicate chunk");
}

TEST(Sections, ParamSetRoundTripBitExact)
{
    nn::ParamSet original;
    original.add(3, 4);
    original.add(1, 1);
    original.add(2, 5);
    Rng rng(11);
    for (size_t i = 0; i < original.count(); ++i)
        original[int(i)].uniformInit(rng, 3.0);
    // Plant the awkward values a text format would mangle.
    original[0].data[0] = specialDoubles[1];  // -0.0
    original[0].data[1] = specialDoubles[5];  // denorm_min
    original[1].data[0] = specialDoubles[8];  // NaN
    original[2].data[0] = specialDoubles[3];  // -1/3

    nn::ParamSet restored;
    restored.add(3, 4);
    restored.add(1, 1);
    restored.add(2, 5);
    decodeParamSet(encodeParamSet(original), restored);

    for (size_t i = 0; i < original.count(); ++i)
        for (size_t j = 0; j < original[int(i)].data.size(); ++j)
            EXPECT_TRUE(sameBits(original[int(i)].data[j],
                                 restored[int(i)].data[j]));
}

TEST(Sections, ParamSetShapeMismatchRejected)
{
    nn::ParamSet original;
    original.add(3, 4);
    const std::string payload = encodeParamSet(original);

    nn::ParamSet wrong_shape;
    wrong_shape.add(4, 3);
    EXPECT_THROW(decodeParamSet(payload, wrong_shape),
                 std::runtime_error);

    nn::ParamSet wrong_count;
    wrong_count.add(3, 4);
    wrong_count.add(1, 1);
    EXPECT_THROW(decodeParamSet(payload, wrong_count),
                 std::runtime_error);
}

TEST(Sections, ParamTableRoundTripBitExact)
{
    Rng rng(23);
    params::ParamTable original(isa::theIsa().numOpcodes());
    for (auto &inst : original.perOpcode) {
        inst.numMicroOps = rng.uniformReal(1.0, 10.0);
        inst.writeLatency = rng.uniformReal(0.0, 5.0);
        for (double &ra : inst.readAdvance)
            ra = rng.uniformReal(0.0, 5.0);
        for (double &pc : inst.portMap)
            pc = rng.uniformReal(0.0, 2.0);
    }
    original.dispatchWidth = 4.0 + 1.0 / 3.0;
    original.reorderBufferSize = -0.0;

    const params::ParamTable restored =
        decodeParamTable(encodeParamTable(original));
    const auto a = original.flatten(), b = restored.flatten();
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_TRUE(sameBits(a[i], b[i]));
}

TEST(Sections, TruncatedParamTableRejected)
{
    params::ParamTable table(4);
    std::string payload = encodeParamTable(table);
    EXPECT_THROW(
        decodeParamTable(
            std::string_view(payload).substr(0, payload.size() - 3)),
        std::runtime_error);
}

TEST(Sections, SamplingDistRoundTrip)
{
    params::SamplingDist original = params::SamplingDist::usim();
    original.writeLatencyMax = 17;
    original.robMin = 3;
    const params::SamplingDist restored =
        decodeSamplingDist(encodeSamplingDist(original));
    EXPECT_EQ(restored.writeLatencyMax, 17);
    EXPECT_EQ(restored.robMin, 3);
    EXPECT_EQ(restored.uopsMax, original.uopsMax);
    EXPECT_EQ(restored.mask.writeLatency, original.mask.writeLatency);
    EXPECT_EQ(restored.mask.numMicroOps, original.mask.numMicroOps);
    EXPECT_EQ(restored.mask.globals, original.mask.globals);
}

TEST(Checkpoint, FileRoundTripReproducesPredictions)
{
    surrogate::ModelConfig cfg;
    cfg.embedDim = 8;
    cfg.hidden = 10;
    cfg.tokenLayers = 1;
    cfg.blockLayers = 1;
    cfg.seed = 99;
    surrogate::Model model(cfg, isa::theVocab().size());
    const params::SamplingDist dist = params::SamplingDist::full();
    const params::ParamTable table(isa::theIsa().numOpcodes());

    TempFile file("roundtrip.ckpt");
    saveCheckpoint(file.path(), &model, &dist, &table);
    Checkpoint loaded = loadCheckpoint(file.path());

    ASSERT_TRUE(loaded.model);
    EXPECT_EQ(loaded.vocabSize, isa::theVocab().size());
    ASSERT_TRUE(loaded.dist);
    ASSERT_TRUE(loaded.table);
    EXPECT_EQ(loaded.model->config().hidden, 10);

    // Same predictions, bit for bit.
    for (const char *text :
         {"ADD32rr %ebx, %ecx\nNOP\n", "IMUL64rr %rbx, %rcx\n",
          "MOV64rm 8(%rsi), %rdi\nADD64rr %rdi, %rbx\n"}) {
        auto block = surrogate::encodeBlock(isa::parseBlock(text));
        EXPECT_TRUE(
            sameBits(model.predict(block), loaded.model->predict(block)));
    }
}

TEST(Checkpoint, RetiredF32VersionIsRejected)
{
    // Version 2 added a float weights chunk ("WF32") and is retired:
    // a leftover v2 file must fail the container version gate, never
    // half-load. Patch a v1 surrogate checkpoint's version byte.
    surrogate::ModelConfig cfg;
    cfg.embedDim = 8;
    cfg.hidden = 10;
    cfg.tokenLayers = 1;
    cfg.blockLayers = 1;
    cfg.seed = 7;
    surrogate::Model model(cfg, isa::theVocab().size());
    const params::SamplingDist dist = params::SamplingDist::full();
    const params::ParamTable table(isa::theIsa().numOpcodes());
    TempFile file("retired_v2.ckpt");
    saveCheckpoint(file.path(), &model, &dist, &table);
    EXPECT_NO_THROW(loadCheckpoint(file.path()));

    std::string bytes;
    {
        std::ifstream in(file.path(), std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(in), {});
    }
    ASSERT_GE(bytes.size(), 12u);
    ASSERT_EQ(uint8_t(bytes[8]), 1);
    bytes[8] = char(2);
    {
        std::ofstream out(file.path(),
                          std::ios::binary | std::ios::trunc);
        out.write(bytes.data(), std::streamsize(bytes.size()));
    }
    try {
        loadCheckpoint(file.path());
        FAIL() << "a version-2 checkpoint was accepted";
    } catch (const std::runtime_error &error) {
        EXPECT_NE(std::string(error.what())
                      .find("unsupported checkpoint version 2"),
                  std::string::npos)
            << error.what();
    }
}

TEST(Checkpoint, TableOnlyCheckpoint)
{
    params::ParamTable table(isa::theIsa().numOpcodes());
    table.dispatchWidth = 6.0;
    TempFile file("table_only.ckpt");
    saveTableCheckpoint(file.path(), table);
    Checkpoint loaded = loadCheckpoint(file.path());
    EXPECT_FALSE(loaded.model);
    EXPECT_FALSE(loaded.dist);
    ASSERT_TRUE(loaded.table);
    EXPECT_EQ(loaded.table->dispatchWidth, 6.0);
}

TEST(Checkpoint, ConfigWithoutWeightsRejected)
{
    // Handcraft a container with a model config but no weights.
    surrogate::ModelConfig cfg;
    surrogate::Model model(cfg, isa::theVocab().size());
    TempFile file("full.ckpt");
    saveCheckpoint(file.path(), &model, nullptr, nullptr);

    ChunkReader reader = ChunkReader::fromFile(file.path());
    ChunkWriter writer;
    writer.add(tagModelConfig,
               std::string(reader.payload(tagModelConfig)));
    TempFile broken("config_only.ckpt");
    writer.writeFile(broken.path());
    EXPECT_THROW(loadCheckpoint(broken.path()), std::runtime_error);
}

TEST(Checkpoint, MissingFileRejected)
{
    EXPECT_THROW(loadCheckpoint("/nonexistent/difftune.ckpt"),
                 std::runtime_error);
    // And the message names the path the caller passed.
    try {
        loadCheckpoint("/nonexistent/difftune.ckpt");
        FAIL() << "expected a load failure";
    } catch (const std::runtime_error &error) {
        EXPECT_NE(std::string(error.what())
                      .find("/nonexistent/difftune.ckpt"),
                  std::string::npos)
            << error.what();
    }
}

TEST(Checkpoint, StructuralErrorsNameThePathAndChunk)
{
    // Corrupt one payload byte of a saved file: the CRC failure must
    // name both the offending file and the chunk it hit, so a bad
    // artifact in a fleet of checkpoints is identifiable from the
    // message alone.
    surrogate::ModelConfig cfg;
    surrogate::Model model(cfg, isa::theVocab().size());
    TempFile file("named_errors.ckpt");
    saveCheckpoint(file.path(), &model, nullptr, nullptr);

    std::string bytes;
    {
        std::ifstream in(file.path(), std::ios::binary);
        std::ostringstream buffer;
        buffer << in.rdbuf();
        bytes = std::move(buffer).str();
    }
    bytes[bytes.size() - 10] ^= 0x01; // inside the last (WTS0) chunk
    {
        std::ofstream out(file.path(),
                          std::ios::binary | std::ios::trunc);
        out.write(bytes.data(), std::streamsize(bytes.size()));
    }
    try {
        loadCheckpoint(file.path());
        FAIL() << "expected a CRC failure";
    } catch (const std::runtime_error &error) {
        const std::string what = error.what();
        EXPECT_NE(what.find(file.path()), std::string::npos) << what;
        EXPECT_NE(what.find(tagModelWeights), std::string::npos)
            << what;
    }
}

TEST(Checkpoint, SectionDecodeErrorsNameThePathAndChunk)
{
    // A chunk whose CRC is fine but whose payload does not decode
    // (here: a truncated sampling-dist section) must also be tagged
    // with the file and the chunk name.
    ChunkWriter writer;
    writer.add(tagSamplingDist, "garbage");
    TempFile file("bad_dist.ckpt");
    writer.writeFile(file.path());
    try {
        loadCheckpoint(file.path());
        FAIL() << "expected a decode failure";
    } catch (const std::runtime_error &error) {
        const std::string what = error.what();
        EXPECT_NE(what.find(file.path()), std::string::npos) << what;
        EXPECT_NE(what.find(tagSamplingDist), std::string::npos)
            << what;
    }
}

TEST(Checkpoint, OversizedConfigDimensionsRejected)
{
    // A crafted config chunk demanding a terabyte-scale model must be
    // rejected before the Model is allocated: the implied weight
    // count is checked against the bytes the weights chunk holds.
    surrogate::ModelConfig cfg;
    surrogate::Model model(cfg, isa::theVocab().size());
    TempFile file("valid.ckpt");
    saveCheckpoint(file.path(), &model, nullptr, nullptr);
    ChunkReader valid = ChunkReader::fromFile(file.path());

    ByteWriter huge_config;
    huge_config.i32(1 << 20); // embedDim
    huge_config.i32(1 << 20); // hidden
    huge_config.i32(1);       // tokenLayers
    huge_config.i32(1);       // blockLayers
    huge_config.i32(0);       // paramDim
    huge_config.u64(0);       // seed
    huge_config.u64(uint64_t(1) << 40); // vocab
    ChunkWriter writer;
    writer.add(tagModelConfig, huge_config.take());
    writer.add(tagModelWeights,
               std::string(valid.payload(tagModelWeights)));
    TempFile crafted("huge_config.ckpt");
    writer.writeFile(crafted.path());
    EXPECT_THROW(loadCheckpoint(crafted.path()), std::runtime_error);
}

} // namespace
} // namespace difftune::io
