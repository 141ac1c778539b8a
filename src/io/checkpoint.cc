/**
 * @file
 * Checkpoint container and section codec implementation.
 */

#include "io/checkpoint.hh"

#include <fstream>
#include <sstream>

namespace difftune::io
{

// ------------------------------------------------------------ ChunkWriter

void
ChunkWriter::add(std::string_view tag, std::string payload)
{
    panic_if(tag.size() != 4, "chunk tag '{}' is not 4 characters",
             std::string(tag));
    for (const Chunk &chunk : chunks_)
        panic_if(chunk.tag == tag, "duplicate chunk tag '{}'",
                 std::string(tag));
    chunks_.push_back(Chunk{std::string(tag), std::move(payload)});
}

std::string
ChunkWriter::serialize() const
{
    ByteWriter writer;
    writer.bytes(std::string_view(kind_.magic, 8));
    writer.u32(kind_.maxVersion);
    writer.u32(uint32_t(chunks_.size()));
    for (const Chunk &chunk : chunks_) {
        writer.bytes(chunk.tag);
        writer.u64(chunk.payload.size());
        writer.bytes(chunk.payload);
        writer.u32(crc32(chunk.payload));
    }
    return writer.take();
}

void
ChunkWriter::writeFile(const std::string &path) const
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    fatal_if(!out, "cannot open '{}' for writing", path);
    const std::string bytes = serialize();
    out.write(bytes.data(), std::streamsize(bytes.size()));
    out.flush();
    fatal_if(!out, "write to '{}' failed", path);
}

// ------------------------------------------------------------ ChunkReader

ChunkReader::ChunkReader(std::string bytes, std::string source,
                         const ContainerKind &kind)
    : bytes_(std::move(bytes)), source_(std::move(source))
{
    if (source_.empty())
        source_ = kind.what;
    ByteReader reader(bytes_, source_.c_str());
    const std::string_view magic = reader.bytes(8);
    fatal_if(magic != std::string_view(kind.magic, 8),
             "{}: not a difftune {} (bad magic)", source_, kind.what);
    const uint32_t version = reader.u32();
    fatal_if(version < 1 || version > kind.maxVersion,
             "{}: unsupported {} version {} (this build reads 1..{})",
             source_, kind.what, version, kind.maxVersion);
    const uint32_t count = reader.u32();
    chunks_.reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
        Chunk chunk;
        chunk.tag = std::string(reader.bytes(4));
        const uint64_t size = reader.u64();
        fatal_if(size > reader.remaining(),
                 "{}: truncated: chunk '{}' claims {} bytes, {} "
                 "remain",
                 source_, chunk.tag, size, reader.remaining());
        chunk.payload = reader.bytes(size_t(size));
        const uint32_t stored_crc = reader.u32();
        const uint32_t actual_crc = crc32(chunk.payload);
        fatal_if(stored_crc != actual_crc,
                 "{}: corrupt: chunk '{}' CRC mismatch "
                 "(stored {}, computed {})",
                 source_, chunk.tag, stored_crc, actual_crc);
        for (const Chunk &seen : chunks_)
            fatal_if(seen.tag == chunk.tag,
                     "{}: corrupt: duplicate chunk '{}'", source_,
                     chunk.tag);
        chunks_.push_back(std::move(chunk));
    }
    reader.expectEnd();
}

ChunkReader
ChunkReader::fromFile(const std::string &path,
                      const ContainerKind &kind)
{
    std::ifstream in(path, std::ios::binary);
    fatal_if(!in, "cannot open {} '{}'", kind.what, path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    fatal_if(in.bad(), "read of {} '{}' failed", kind.what, path);
    return ChunkReader(std::move(buffer).str(),
                       std::string(kind.what) + " '" + path + "'",
                       kind);
}

bool
ChunkReader::has(std::string_view tag) const
{
    for (const Chunk &chunk : chunks_)
        if (chunk.tag == tag)
            return true;
    return false;
}

std::string_view
ChunkReader::payload(std::string_view tag) const
{
    for (const Chunk &chunk : chunks_)
        if (chunk.tag == tag)
            return chunk.payload;
    fatal("{}: no '{}' chunk", source_, std::string(tag));
}

// --------------------------------------------------------- section codecs

std::string
encodeParamSet(const nn::ParamSet &params)
{
    ByteWriter writer;
    writer.u64(params.count());
    for (size_t i = 0; i < params.count(); ++i) {
        const nn::Tensor &tensor = params[int(i)];
        writer.i32(tensor.rows);
        writer.i32(tensor.cols);
        for (double v : tensor.data)
            writer.f64(v);
    }
    return writer.take();
}

void
decodeParamSet(std::string_view payload, nn::ParamSet &params)
{
    ByteReader reader(payload, "weights chunk");
    const uint64_t count = reader.u64();
    fatal_if(count != params.count(),
             "weights chunk has {} tensors, model expects {}", count,
             params.count());
    for (size_t i = 0; i < params.count(); ++i) {
        nn::Tensor &tensor = params[int(i)];
        const int32_t rows = reader.i32();
        const int32_t cols = reader.i32();
        fatal_if(rows != tensor.rows || cols != tensor.cols,
                 "weights chunk tensor {} is {}x{}, model expects {}x{}",
                 i, rows, cols, tensor.rows, tensor.cols);
        for (double &v : tensor.data)
            v = reader.f64();
    }
    reader.expectEnd();
}

std::string
encodeParamTable(const params::ParamTable &table)
{
    ByteWriter writer;
    writer.u64(table.numOpcodes());
    writer.f64(table.dispatchWidth);
    writer.f64(table.reorderBufferSize);
    for (const auto &inst : table.perOpcode) {
        writer.f64(inst.numMicroOps);
        writer.f64(inst.writeLatency);
        for (double ra : inst.readAdvance)
            writer.f64(ra);
        for (double pc : inst.portMap)
            writer.f64(pc);
    }
    return writer.take();
}

params::ParamTable
decodeParamTable(std::string_view payload)
{
    ByteReader reader(payload, "parameter-table chunk");
    const uint64_t num_opcodes = reader.u64();
    // Guard the allocation before trusting the count: each opcode
    // record occupies perOpcodeParams doubles in the payload.
    fatal_if(num_opcodes >
                 reader.remaining() / (params::perOpcodeParams * 8),
             "truncated parameter-table chunk: {} opcodes claimed, {} "
             "bytes remain",
             num_opcodes, reader.remaining());
    params::ParamTable table{size_t(num_opcodes)};
    table.dispatchWidth = reader.f64();
    table.reorderBufferSize = reader.f64();
    for (auto &inst : table.perOpcode) {
        inst.numMicroOps = reader.f64();
        inst.writeLatency = reader.f64();
        for (double &ra : inst.readAdvance)
            ra = reader.f64();
        for (double &pc : inst.portMap)
            pc = reader.f64();
    }
    reader.expectEnd();
    return table;
}

std::string
encodeSamplingDist(const params::SamplingDist &dist)
{
    ByteWriter writer;
    writer.i32(dist.writeLatencyMin);
    writer.i32(dist.writeLatencyMax);
    writer.i32(dist.readAdvanceMax);
    writer.i32(dist.uopsMin);
    writer.i32(dist.uopsMax);
    writer.i32(dist.portMaxPorts);
    writer.i32(dist.portMaxCycles);
    writer.i32(dist.dispatchMin);
    writer.i32(dist.dispatchMax);
    writer.i32(dist.robMin);
    writer.i32(dist.robMax);
    writer.u8(dist.mask.numMicroOps);
    writer.u8(dist.mask.writeLatency);
    writer.u8(dist.mask.readAdvance);
    writer.u8(dist.mask.portMap);
    writer.u8(dist.mask.globals);
    return writer.take();
}

params::SamplingDist
decodeSamplingDist(std::string_view payload)
{
    ByteReader reader(payload, "sampling-dist chunk");
    params::SamplingDist dist;
    dist.writeLatencyMin = reader.i32();
    dist.writeLatencyMax = reader.i32();
    dist.readAdvanceMax = reader.i32();
    dist.uopsMin = reader.i32();
    dist.uopsMax = reader.i32();
    dist.portMaxPorts = reader.i32();
    dist.portMaxCycles = reader.i32();
    dist.dispatchMin = reader.i32();
    dist.dispatchMax = reader.i32();
    dist.robMin = reader.i32();
    dist.robMax = reader.i32();
    dist.mask.numMicroOps = reader.u8() != 0;
    dist.mask.writeLatency = reader.u8() != 0;
    dist.mask.readAdvance = reader.u8() != 0;
    dist.mask.portMap = reader.u8() != 0;
    dist.mask.globals = reader.u8() != 0;
    reader.expectEnd();
    return dist;
}

namespace
{

std::string
encodeModelConfig(const surrogate::ModelConfig &config, size_t vocab)
{
    ByteWriter writer;
    writer.i32(config.embedDim);
    writer.i32(config.hidden);
    writer.i32(config.tokenLayers);
    writer.i32(config.blockLayers);
    writer.i32(config.paramDim);
    writer.u64(config.seed);
    writer.u64(vocab);
    return writer.take();
}

surrogate::ModelConfig
decodeModelConfig(std::string_view payload, size_t &vocab)
{
    ByteReader reader(payload, "model-config chunk");
    surrogate::ModelConfig config;
    config.embedDim = reader.i32();
    config.hidden = reader.i32();
    config.tokenLayers = reader.i32();
    config.blockLayers = reader.i32();
    config.paramDim = reader.i32();
    config.seed = reader.u64();
    vocab = size_t(reader.u64());
    reader.expectEnd();
    fatal_if(config.embedDim <= 0 || config.hidden <= 0 ||
                 config.tokenLayers <= 0 || config.blockLayers <= 0 ||
                 config.paramDim < 0 || vocab == 0,
             "corrupt model-config chunk: non-positive dimension");
    return config;
}

/**
 * The scalar weight count a Model with this config registers, as a
 * double (immune to overflow from crafted dimensions). Mirrors the
 * layer registrations in surrogate::Model / nn::modules — if the
 * layout ever changes, decodeParamSet's per-tensor shape checks still
 * reject the file; this pre-check only exists to bound the Model
 * allocation by the weights actually present on disk.
 */
double
expectedModelScalars(const surrogate::ModelConfig &config, size_t vocab)
{
    const double hidden = config.hidden;
    auto lstmStack = [&](double in, int layers) {
        double total = 0.0;
        for (int layer = 0; layer < layers; ++layer) {
            const double cell_in = layer == 0 ? in : hidden;
            total += 4 * hidden * cell_in + // wx
                     4 * hidden * hidden +  // wh
                     4 * hidden;            // bias
        }
        return total;
    };
    return double(vocab) * config.embedDim +
           lstmStack(config.embedDim, config.tokenLayers) +
           lstmStack(hidden + config.paramDim, config.blockLayers) +
           hidden + 1; // head weight + bias
}

} // namespace

// ---------------------------------------------------------- high level

void
saveCheckpoint(const std::string &path, const surrogate::Model *model,
               const params::SamplingDist *dist,
               const params::ParamTable *table)
{
    panic_if(!model && !dist && !table,
             "refusing to save an empty checkpoint");
    ChunkWriter writer;
    if (model) {
        writer.add(tagModelConfig,
                   encodeModelConfig(model->config(),
                                     isa::theVocab().size()));
        writer.add(tagModelWeights, encodeParamSet(model->params()));
    }
    if (dist)
        writer.add(tagSamplingDist, encodeSamplingDist(*dist));
    if (table)
        writer.add(tagParamTable, encodeParamTable(*table));
    writer.writeFile(path);
}

void
saveTableCheckpoint(const std::string &path,
                    const params::ParamTable &table)
{
    saveCheckpoint(path, nullptr, nullptr, &table);
}

namespace
{

/**
 * Run a section decode, tagging any error with the file path and
 * the chunk it came from — a bad file must always be identifiable
 * from the message alone.
 */
template <typename Fn>
auto
decodeChunk(const std::string &path, const char *tag, Fn &&decode)
    -> decltype(decode())
{
    try {
        return decode();
    } catch (const std::exception &error) {
        fatal("checkpoint '{}': chunk '{}': {}", path, tag,
              stripErrorPrefix(error.what()));
    }
}

} // namespace

Checkpoint
loadCheckpoint(const std::string &path)
{
    const ChunkReader reader = ChunkReader::fromFile(path);
    Checkpoint checkpoint;
    const bool has_weights = reader.has(tagModelWeights);
    if (reader.has(tagModelConfig)) {
        fatal_if(!has_weights,
                 "checkpoint '{}': has a model config but no weights",
                 path);
        const surrogate::ModelConfig config =
            decodeChunk(path, tagModelConfig, [&] {
                return decodeModelConfig(
                    reader.payload(tagModelConfig),
                    checkpoint.vocabSize);
            });
        // Bound the Model allocation by the weights actually on disk
        // before constructing it — a crafted config chunk must not be
        // able to demand terabytes the weights chunk does not hold.
        const std::string_view weights =
            reader.payload(tagModelWeights);
        const double expected =
            expectedModelScalars(config, checkpoint.vocabSize);
        fatal_if(expected * sizeof(double) > double(weights.size()),
                 "checkpoint '{}': corrupt: model config implies {} "
                 "weight scalars but chunk '{}' holds {} bytes",
                 path, expected, tagModelWeights, weights.size());
        checkpoint.model = std::make_unique<surrogate::Model>(
            config, checkpoint.vocabSize);
        decodeChunk(path, tagModelWeights, [&] {
            decodeParamSet(weights, checkpoint.model->params());
        });
    } else {
        fatal_if(has_weights,
                 "checkpoint '{}': has model weights but no config",
                 path);
    }
    if (reader.has(tagSamplingDist))
        checkpoint.dist = decodeChunk(path, tagSamplingDist, [&] {
            return decodeSamplingDist(reader.payload(tagSamplingDist));
        });
    if (reader.has(tagParamTable))
        checkpoint.table = decodeChunk(path, tagParamTable, [&] {
            return decodeParamTable(reader.payload(tagParamTable));
        });
    return checkpoint;
}

} // namespace difftune::io
