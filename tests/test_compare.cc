/**
 * @file
 * Tests for the difftune compare harness (src/compare/): .preds
 * artifact round trips and strict corruption rejection (mirroring
 * the test_io container patterns under the artifact's own magic),
 * classification boundaries (inclusive tolerance, NaN/Inf, the
 * missing-block asymmetry in both directions), per-opcode and
 * per-length breakdown arithmetic, the JSON report golden, snapshot
 * consistency against the serving engine (including a live-daemon
 * loopback compare), and the committed reference artifact
 * (tests/golden/compare_reference.preds) staying bit-exact against
 * a checkpoint rebuilt at HEAD.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "base/random.hh"
#include "compare/compare.hh"
#include "compare/perturb.hh"
#include "compare/preds.hh"
#include "core/raw_table.hh"
#include "hw/default_table.hh"
#include "io/checkpoint.hh"
#include "isa/tokens.hh"
#include "serve/async_engine.hh"
#include "serve/daemon.hh"
#include "surrogate/model.hh"

#ifndef DIFFTUNE_GOLDEN_DIR
#define DIFFTUNE_GOLDEN_DIR "tests/golden"
#endif

namespace difftune::compare
{
namespace
{

constexpr const char *referencePath =
    DIFFTUNE_GOLDEN_DIR "/compare_reference.preds";

uint64_t
bits(double v)
{
    return std::bit_cast<uint64_t>(v);
}

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

class TempFile
{
  public:
    explicit TempFile(const char *name)
        : path_((std::filesystem::temp_directory_path() /
                 (std::string("difftune_compare_") + name))
                    .string())
    {
    }

    ~TempFile() { std::remove(path_.c_str()); }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/** Artifact over @p texts with @p values, digest included. */
PredsArtifact
makeArtifact(const std::vector<std::string> &texts,
             const std::vector<double> &values,
             const std::string &source = "test")
{
    PredsArtifact artifact;
    artifact.engine.source = source;
    artifact.engine.precision = "f64";
    artifact.engine.kernel = "scalar";
    artifact.engine.workers = 1;
    artifact.corpusDigest = corpusDigest(texts);
    for (size_t i = 0; i < texts.size(); ++i) {
        BlockPreds block;
        block.text = texts[i];
        block.bits = bits(values[i]);
        artifact.blocks.push_back(std::move(block));
    }
    return artifact;
}

/** The save-tiny checkpoint (examples/difftuned.cpp cmdSaveTiny):
 *  untrained, deterministic per seed. */
void
writeTinyCheckpoint(const std::string &path, uint64_t seed)
{
    const params::SamplingDist dist = params::SamplingDist::full();
    const core::ParamNormalizer norm(dist);
    surrogate::ModelConfig cfg;
    cfg.embedDim = 8;
    cfg.hidden = 10;
    cfg.tokenLayers = 1;
    cfg.blockLayers = 1;
    cfg.paramDim = norm.paramDim();
    cfg.seed = seed;
    const surrogate::Model model(cfg, isa::theVocab().size());
    const params::ParamTable table =
        hw::defaultTable(hw::Uarch::Haswell);
    io::saveCheckpoint(path, &model, &dist, &table);
}

// ---- Artifact codec.

TEST(Artifact, RoundTripBitExactIncludingSpecials)
{
    std::vector<std::string> texts;
    std::vector<double> values;
    for (size_t i = 0; i < std::size(specialDoubles); ++i) {
        texts.push_back("NOP # block " + std::to_string(i) + "\n");
        values.push_back(specialDoubles[i]);
    }
    const PredsArtifact original = makeArtifact(texts, values);
    const PredsArtifact restored =
        decodePreds(encodePreds(original));

    EXPECT_EQ(restored.engine.source, "test");
    EXPECT_EQ(restored.engine.precision, "f64");
    EXPECT_EQ(restored.engine.kernel, "scalar");
    EXPECT_EQ(restored.engine.workers, 1);
    EXPECT_EQ(restored.corpusDigest, original.corpusDigest);
    ASSERT_EQ(restored.blocks.size(), original.blocks.size());
    for (size_t i = 0; i < restored.blocks.size(); ++i) {
        EXPECT_EQ(restored.blocks[i].text, original.blocks[i].text);
        EXPECT_EQ(restored.blocks[i].bits, original.blocks[i].bits)
            << "value " << i << " did not round-trip bit-exactly";
    }
}

TEST(Artifact, FileRoundTrip)
{
    TempFile file("roundtrip.preds");
    const PredsArtifact original =
        makeArtifact({"NOP\n"}, {1.5}, "file-test");
    savePreds(file.path(), original);
    const PredsArtifact restored = loadPreds(file.path());
    ASSERT_EQ(restored.blocks.size(), 1u);
    EXPECT_EQ(restored.blocks[0].bits, bits(1.5));
    EXPECT_EQ(restored.engine.source, "file-test");

    EXPECT_THROW(loadPreds("/nonexistent/missing.preds"),
                 std::runtime_error);
}

TEST(Artifact, TruncationRejectedEverywhere)
{
    const std::string bytes =
        encodePreds(makeArtifact({"NOP\n"}, {2.0}));
    for (size_t cut = 0; cut < bytes.size(); ++cut) {
        EXPECT_THROW(decodePreds(bytes.substr(0, cut)),
                     std::runtime_error)
            << "prefix of " << cut << " bytes was accepted";
    }
    EXPECT_NO_THROW(decodePreds(bytes));
}

TEST(Artifact, CorruptPayloadByteRejected)
{
    std::string bytes = encodePreds(makeArtifact({"NOP\n"}, {2.0}));
    bytes[bytes.size() - 10] ^= 0x01; // inside the last payload
    EXPECT_THROW(decodePreds(bytes), std::runtime_error);
}

TEST(Artifact, ContainerKindsDoNotCrossLoad)
{
    // A checkpoint can never half-load as a .preds artifact...
    TempFile ckpt("kind.ckpt");
    writeTinyCheckpoint(ckpt.path(), 5);
    EXPECT_THROW(loadPreds(ckpt.path()), std::runtime_error);
    // ...and a .preds artifact is not a checkpoint.
    const std::string preds =
        encodePreds(makeArtifact({"NOP\n"}, {1.0}));
    EXPECT_THROW(io::ChunkReader{preds}, std::runtime_error);
}

TEST(Artifact, WrongVersionRejected)
{
    std::string bytes = encodePreds(makeArtifact({"NOP\n"}, {1.0}));
    bytes[8] = char(predsVersion + 1);
    EXPECT_THROW(decodePreds(bytes), std::runtime_error);
}

TEST(Artifact, DuplicateBlockTextRejected)
{
    PredsArtifact artifact =
        makeArtifact({"NOP\n", "ADD32rr %ebx, %ecx\n"}, {1.0, 2.0});
    artifact.blocks[1].text = artifact.blocks[0].text;
    EXPECT_THROW(decodePreds(encodePreds(artifact)),
                 std::runtime_error);
}

TEST(Artifact, BlockCountMismatchRejected)
{
    // Hand-build a container whose metadata declares two blocks but
    // whose block chunk carries one.
    io::ByteWriter meta;
    meta.u64(123);         // digest
    meta.u64(2);           // declared count (wrong)
    meta.str("src");
    meta.str("f64");
    meta.str("scalar");
    meta.i32(1);
    io::ByteWriter blocks;
    blocks.u64(1);
    blocks.str("NOP\n");
    blocks.u64(bits(1.0));
    io::ChunkWriter writer(predsContainer);
    writer.add(tagPredsMeta, meta.take());
    writer.add(tagPredsBlocks, blocks.take());
    EXPECT_THROW(decodePreds(writer.serialize()),
                 std::runtime_error);
}

// ---- Classification.

TEST(Classify, ToleranceBoundaryIsInclusive)
{
    // a=1.0, b=0.75: rel = 0.25/1.0 exactly.
    double rel = -1.0;
    EXPECT_EQ(classifyPair(bits(1.0), bits(0.75), 0.25, &rel),
              DiffClass::kWithinTolerance);
    EXPECT_EQ(rel, 0.25);
    EXPECT_EQ(classifyPair(bits(1.0), bits(0.75), 0.2499),
              DiffClass::kDiverged);
    EXPECT_EQ(classifyPair(bits(1.0), bits(1.0), 0.0),
              DiffClass::kBitExact);
}

TEST(Classify, RelativeErrorIsSymmetric)
{
    double ab = 0.0, ba = 0.0;
    const DiffClass cab =
        classifyPair(bits(2.0), bits(3.0), 1e-5, &ab);
    const DiffClass cba =
        classifyPair(bits(3.0), bits(2.0), 1e-5, &ba);
    EXPECT_EQ(cab, DiffClass::kDiverged);
    EXPECT_EQ(cab, cba);
    EXPECT_EQ(bits(ab), bits(ba)) << "rel error must not depend on "
                                     "argument order";
}

TEST(Classify, NonFiniteNeverWithinTolerance)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    // Identical bits are bit-exact even for NaN/Inf.
    EXPECT_EQ(classifyPair(bits(nan), bits(nan), 1e-5),
              DiffClass::kBitExact);
    EXPECT_EQ(classifyPair(bits(inf), bits(inf), 1e-5),
              DiffClass::kBitExact);
    // Everything else involving a non-finite value diverges, no
    // matter how generous the tolerance.
    EXPECT_EQ(classifyPair(bits(nan), bits(1.0), 1e100),
              DiffClass::kDiverged);
    EXPECT_EQ(classifyPair(bits(1.0), bits(nan), 1e100),
              DiffClass::kDiverged);
    EXPECT_EQ(classifyPair(bits(inf), bits(-inf), 1e100),
              DiffClass::kDiverged);
    EXPECT_EQ(classifyPair(bits(inf), bits(1e308), 1e100),
              DiffClass::kDiverged);
}

TEST(Classify, SignedZerosAreWithinTolerance)
{
    // +0.0 and -0.0 differ in bits but not in value: rel error 0.
    double rel = -1.0;
    EXPECT_EQ(classifyPair(bits(0.0), bits(-0.0), 0.0, &rel),
              DiffClass::kWithinTolerance);
    EXPECT_EQ(rel, 0.0);
}

// ---- compare() semantics.

TEST(Compare, MissingBlockAsymmetryBothDirections)
{
    const PredsArtifact big = makeArtifact(
        {"NOP\n", "ADD32rr %ebx, %ecx\n"}, {1.0, 2.0}, "big");
    const PredsArtifact small =
        makeArtifact({"NOP\n"}, {1.0}, "small");

    const CompareReport ab = compare(big, small);
    EXPECT_EQ(ab.counts[DiffClass::kBitExact], 1u);
    EXPECT_EQ(ab.counts[DiffClass::kOnlyInA], 1u);
    EXPECT_EQ(ab.counts[DiffClass::kOnlyInB], 0u);
    EXPECT_EQ(ab.exitCode(), 2);
    EXPECT_FALSE(ab.digestMatch);

    const CompareReport ba = compare(small, big);
    EXPECT_EQ(ba.counts[DiffClass::kBitExact], 1u);
    EXPECT_EQ(ba.counts[DiffClass::kOnlyInA], 0u);
    EXPECT_EQ(ba.counts[DiffClass::kOnlyInB], 1u);
    EXPECT_EQ(ba.exitCode(), 2);

    // The missing block is reported with its index in the artifact
    // that has it.
    ASSERT_EQ(ba.blocks.size(), 2u);
    EXPECT_EQ(ba.blocks[1].cls, DiffClass::kOnlyInB);
    EXPECT_EQ(ba.blocks[1].indexA, -1);
    EXPECT_EQ(ba.blocks[1].indexB, 1);
}

TEST(Compare, ExitCodeContract)
{
    const std::vector<std::string> texts = {"NOP\n"};
    const PredsArtifact one = makeArtifact(texts, {1.0});
    EXPECT_EQ(compare(one, one).exitCode(), 0);

    // 1 + 1e-7 is within the 1e-5 gate but not bit-exact.
    const PredsArtifact close = makeArtifact(texts, {1.0 + 1e-7});
    EXPECT_EQ(compare(one, close).exitCode(), 1);

    const PredsArtifact far = makeArtifact(texts, {2.0});
    EXPECT_EQ(compare(one, far).exitCode(), 2);

    CompareConfig loose;
    loose.tolerance = 10.0;
    EXPECT_EQ(compare(one, far, loose).exitCode(), 1);
}

TEST(Compare, PerOpcodeBreakdownArithmetic)
{
    // Three blocks: NOP-only (bit-exact), ADD-only (diverged), and
    // a NOP+ADD block (within tolerance). Each distinct opcode of a
    // block is charged the block's class once.
    const std::vector<std::string> texts = {
        "NOP\n",
        "ADD32rr %ebx, %ecx\n",
        "NOP\nADD32rr %ebx, %ecx\nNOP\n",
    };
    const PredsArtifact a = makeArtifact(texts, {1.0, 1.0, 1.0});
    const PredsArtifact b =
        makeArtifact(texts, {1.0, 2.0, 1.0 + 1e-7});
    const CompareReport report = compare(a, b);

    ASSERT_EQ(report.byOpcode.size(), 2u);
    const ClassCounts &nop = report.byOpcode.at("NOP");
    EXPECT_EQ(nop[DiffClass::kBitExact], 1u);
    EXPECT_EQ(nop[DiffClass::kWithinTolerance], 1u);
    EXPECT_EQ(nop[DiffClass::kDiverged], 0u);
    EXPECT_EQ(nop.total(), 2u);
    const ClassCounts &add = report.byOpcode.at("ADD32rr");
    EXPECT_EQ(add[DiffClass::kBitExact], 0u);
    EXPECT_EQ(add[DiffClass::kWithinTolerance], 1u);
    EXPECT_EQ(add[DiffClass::kDiverged], 1u);
    EXPECT_EQ(add.total(), 2u);

    // Block-level counts reconcile with the overall classification.
    EXPECT_EQ(report.counts[DiffClass::kBitExact], 1u);
    EXPECT_EQ(report.counts[DiffClass::kWithinTolerance], 1u);
    EXPECT_EQ(report.counts[DiffClass::kDiverged], 1u);
    EXPECT_EQ(report.counts.total(), texts.size());
}

TEST(Compare, PerLengthBreakdown)
{
    const std::vector<std::string> texts = {
        "NOP\n",
        "ADD32rr %ebx, %ecx\n",
        "NOP\nADD32rr %ebx, %ecx\nNOP\n",
    };
    const PredsArtifact a = makeArtifact(texts, {1.0, 1.0, 1.0});
    const PredsArtifact b = makeArtifact(texts, {1.0, 2.0, 1.0});
    const CompareReport report = compare(a, b);

    ASSERT_EQ(report.byLength.size(), 2u);
    const ClassCounts &len1 = report.byLength.at(1);
    EXPECT_EQ(len1[DiffClass::kBitExact], 1u);
    EXPECT_EQ(len1[DiffClass::kDiverged], 1u);
    const ClassCounts &len3 = report.byLength.at(3);
    EXPECT_EQ(len3[DiffClass::kBitExact], 1u);
    EXPECT_EQ(len3.total(), 1u);
}

// ---- Reports.

TEST(Report, JsonGolden)
{
    const std::vector<std::string> texts = {
        "NOP\n", "ADD32rr %ebx, %ecx\n"};
    const PredsArtifact a = makeArtifact(texts, {1.0, 2.0}, "a");
    const PredsArtifact b = makeArtifact(texts, {1.0, 3.0}, "b");
    const std::string json = renderJson(compare(a, b));
    const std::string expected =
        "{\"engineA\":{\"source\":\"a\",\"precision\":\"f64\","
        "\"kernel\":\"scalar\",\"workers\":1},"
        "\"engineB\":{\"source\":\"b\",\"precision\":\"f64\","
        "\"kernel\":\"scalar\",\"workers\":1},"
        "\"digestMatch\":true,\"tolerance\":1.000e-05,\"exit\":2,"
        "\"counts\":{\"bit-exact\":1,\"within-tolerance\":0,"
        "\"diverged\":1,\"only-in-a\":0,\"only-in-b\":0,"
        "\"total\":2},"
        "\"byOpcode\":{"
        "\"ADD32rr\":{\"bit-exact\":0,\"within-tolerance\":0,"
        "\"diverged\":1,\"only-in-a\":0,\"only-in-b\":0,"
        "\"total\":1},"
        "\"NOP\":{\"bit-exact\":1,\"within-tolerance\":0,"
        "\"diverged\":0,\"only-in-a\":0,\"only-in-b\":0,"
        "\"total\":1}},"
        "\"byLength\":{\"1\":{\"bit-exact\":1,"
        "\"within-tolerance\":0,\"diverged\":1,\"only-in-a\":0,"
        "\"only-in-b\":0,\"total\":2}},"
        "\"diffs\":[{\"class\":\"diverged\",\"indexA\":1,"
        "\"indexB\":1,\"relError\":3.333e-01,"
        "\"bitsA\":\"0x4000000000000000\","
        "\"bitsB\":\"0x4008000000000000\"}]}";
    EXPECT_EQ(json, expected);
}

TEST(Report, TableNamesEveryNonBitExactBlock)
{
    const std::vector<std::string> texts = {
        "NOP\n", "ADD32rr %ebx, %ecx\n", "SUB32rr %ebx, %ecx\n"};
    const PredsArtifact a =
        makeArtifact(texts, {1.0, 2.0, 3.0}, "a");
    const PredsArtifact b =
        makeArtifact(texts, {1.0, 4.0, 3.0 + 1e-8}, "b");
    const std::string table = renderTable(compare(a, b));
    EXPECT_NE(table.find("summary: total 3 bit-exact 1 "
                         "within-tolerance 1 diverged 1 only-in-a 0 "
                         "only-in-b 0"),
              std::string::npos)
        << table;
    EXPECT_NE(table.find("exit: 2"), std::string::npos);
    EXPECT_NE(table.find("diff diverged #1 "), std::string::npos);
    EXPECT_NE(table.find("diff within-tolerance #2 "),
              std::string::npos);
    // Bit-exact blocks get no diff line.
    EXPECT_EQ(table.find("diff bit-exact"), std::string::npos);
}

// ---- Corpus resolution.

TEST(Corpus, GenSpecIsDeterministicAndDeduplicated)
{
    const auto first = resolveCorpus("gen:24:7");
    const auto second = resolveCorpus("gen:24:7");
    EXPECT_EQ(first, second);
    EXPECT_FALSE(first.empty());
    EXPECT_EQ(corpusDigest(first), corpusDigest(second));
    std::set<std::string> unique(first.begin(), first.end());
    EXPECT_EQ(unique.size(), first.size());

    EXPECT_THROW(resolveCorpus("gen:zero"), std::runtime_error);
    EXPECT_THROW(resolveCorpus("gen:0:1"), std::runtime_error);
    EXPECT_THROW(resolveCorpus("bogus"), std::runtime_error);
    EXPECT_THROW(resolveCorpus("file:/nonexistent/corpus.txt"),
                 std::runtime_error);
}

// ---- Snapshots against the serving engine.

TEST(Snapshot, MatchesEngineAndIsWorkerCountInvariant)
{
    TempFile ckpt("snap.ckpt");
    writeTinyCheckpoint(ckpt.path(), 5);
    const auto texts = resolveCorpus("gen:12:0xbe7c");

    SnapshotOptions one;
    one.workers = 1;
    const PredsArtifact a =
        snapshotCheckpoint(ckpt.path(), texts, one);
    ASSERT_EQ(a.blocks.size(), texts.size());
    EXPECT_EQ(a.corpusDigest, corpusDigest(texts));

    // The snapshot must be exactly what the engine serves.
    const auto engine = serve::AsyncEngine::loadFromFile(ckpt.path());
    for (size_t i = 0; i < texts.size(); ++i)
        EXPECT_EQ(a.blocks[i].bits, bits(engine->predict(texts[i])))
            << "block " << i;

    // Serving determinism: a 3-worker snapshot is bit-identical.
    SnapshotOptions three;
    three.workers = 3;
    const PredsArtifact b =
        snapshotCheckpoint(ckpt.path(), texts, three);
    const CompareReport report = compare(a, b);
    EXPECT_EQ(report.exitCode(), 0);
    EXPECT_EQ(report.counts[DiffClass::kBitExact], texts.size());
}

TEST(Snapshot, DaemonLoopbackCompareIsBitExact)
{
    TempFile ckpt("daemon.ckpt");
    writeTinyCheckpoint(ckpt.path(), 9);
    const auto texts = resolveCorpus("gen:10:0x1dea");

    serve::Daemon daemon;
    daemon.registry().loadFromFile("m", ckpt.path());
    daemon.start();
    ASSERT_GT(daemon.port(), 0);

    const PredsArtifact live =
        snapshotDaemon("127.0.0.1", daemon.port(), "m", texts);
    EXPECT_EQ(live.engine.kernel, "daemon");
    const PredsArtifact local =
        snapshotCheckpoint(ckpt.path(), texts);

    // The wire carries raw f64 bit patterns, so a daemon snapshot
    // compares bit-exactly against a local one of the same file.
    const CompareReport report = compare(local, live);
    EXPECT_EQ(report.exitCode(), 0) << renderTable(report);
    EXPECT_EQ(report.counts[DiffClass::kBitExact], texts.size());
    daemon.drain();
}

TEST(Perturb, OneWeightDivergesExactlyTheOpcodeBlocks)
{
    TempFile ckpt("perturb_in.ckpt");
    TempFile pert("perturb_out.ckpt");
    writeTinyCheckpoint(ckpt.path(), 5);
    const auto texts = resolveCorpus(defaultCorpusSpec);

    // TEST64rr occurs in the default corpus; delta 8 pushes every
    // affected block far past the tolerance gate.
    const PerturbInfo info = perturbOpcodeEmbedding(
        ckpt.path(), pert.path(), "TEST64rr", 8.0);
    EXPECT_EQ(info.after, info.before + 8.0);

    const PredsArtifact a = snapshotCheckpoint(ckpt.path(), texts);
    const PredsArtifact b = snapshotCheckpoint(pert.path(), texts);
    const CompareReport report = compare(a, b);
    EXPECT_EQ(report.exitCode(), 2);

    size_t affected = 0;
    for (const BlockDiff &diff : report.blocks) {
        const auto opcodes = distinctOpcodes(diff.text);
        const bool has_opcode =
            std::find(opcodes.begin(), opcodes.end(), "TEST64rr") !=
            opcodes.end();
        if (has_opcode) {
            ++affected;
            EXPECT_EQ(diff.cls, DiffClass::kDiverged)
                << "block " << diff.indexA;
        } else {
            EXPECT_EQ(diff.cls, DiffClass::kBitExact)
                << "block " << diff.indexA
                << " diverged without containing the opcode";
        }
    }
    EXPECT_GT(affected, 0u);
    EXPECT_EQ(report.counts[DiffClass::kDiverged], affected);

    EXPECT_THROW(perturbOpcodeEmbedding(ckpt.path(), pert.path(),
                                        "NOSUCHOP", 1.0),
                 std::runtime_error);
}

TEST(Reference, CommittedArtifactMatchesHead)
{
    // The committed reference artifact must stay bit-exact against
    // a save-tiny checkpoint rebuilt at HEAD over the artifact's
    // own corpus — the in-tree version of the CI compare-check gate
    // (regenerate with tools/regen_compare_reference.sh after a
    // deliberate numerics change).
    const PredsArtifact ref = loadPreds(referencePath);
    ASSERT_FALSE(ref.blocks.empty());

    TempFile ckpt("reference.ckpt");
    writeTinyCheckpoint(ckpt.path(), 5);
    std::vector<std::string> texts;
    for (const BlockPreds &block : ref.blocks)
        texts.push_back(block.text);
    const PredsArtifact head =
        snapshotCheckpoint(ckpt.path(), texts);

    const CompareReport report = compare(ref, head);
    EXPECT_EQ(report.exitCode(), 0) << renderTable(report);
    EXPECT_EQ(report.counts[DiffClass::kBitExact],
              ref.blocks.size());
}

// ---- Property tests over randomized corpora.

class CompareProperty : public ::testing::TestWithParam<uint64_t>
{
  protected:
    /** A randomized artifact: corpus size, values and text pool all
     *  driven by the seed. */
    PredsArtifact
    randomArtifact(uint64_t seed)
    {
        Rng rng(seed);
        const size_t count = size_t(rng.uniformInt(8, 40));
        const auto texts = resolveCorpus(
            "gen:" + std::to_string(count) + ":" +
            std::to_string(seed * 2654435761u + 1));
        std::vector<double> values;
        for (size_t i = 0; i < texts.size(); ++i) {
            // A spread of magnitudes plus the occasional special.
            switch (rng.uniformInt(0, 9)) {
            case 0:
                values.push_back(0.0);
                break;
            case 1:
                values.push_back(
                    std::numeric_limits<double>::infinity());
                break;
            default:
                values.push_back(
                    0.25 + double(rng.next() % 100003) * 1e-3);
            }
        }
        return makeArtifact(texts, values);
    }
};

TEST_P(CompareProperty, SelfCompareIsAlwaysAllBitExact)
{
    const PredsArtifact a = randomArtifact(GetParam());
    const CompareReport report = compare(a, a);
    EXPECT_EQ(report.exitCode(), 0);
    EXPECT_EQ(report.counts[DiffClass::kBitExact],
              a.blocks.size());
    EXPECT_EQ(report.counts.total(), a.blocks.size());
    // Breakdown totals reconcile with the block count: each block
    // lands in exactly one length bucket.
    uint64_t by_length = 0;
    for (const auto &[length, counts] : report.byLength)
        by_length += counts.total();
    EXPECT_EQ(by_length, a.blocks.size());
}

TEST_P(CompareProperty, ClassCountsAreSymmetric)
{
    const uint64_t seed = GetParam();
    PredsArtifact a = randomArtifact(seed);
    PredsArtifact b = randomArtifact(seed + 1000);

    const CompareReport ab = compare(a, b);
    const CompareReport ba = compare(b, a);

    // Classification is direction-independent for matched blocks,
    // and the missing classes mirror each other.
    EXPECT_EQ(ab.counts[DiffClass::kBitExact],
              ba.counts[DiffClass::kBitExact]);
    EXPECT_EQ(ab.counts[DiffClass::kWithinTolerance],
              ba.counts[DiffClass::kWithinTolerance]);
    EXPECT_EQ(ab.counts[DiffClass::kDiverged],
              ba.counts[DiffClass::kDiverged]);
    EXPECT_EQ(ab.counts[DiffClass::kOnlyInA],
              ba.counts[DiffClass::kOnlyInB]);
    EXPECT_EQ(ab.counts[DiffClass::kOnlyInB],
              ba.counts[DiffClass::kOnlyInA]);
    EXPECT_EQ(ab.counts.total(), ba.counts.total());
    EXPECT_EQ(ab.exitCode(), ba.exitCode());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompareProperty,
                         ::testing::Range(uint64_t(1),
                                          uint64_t(11)));

} // namespace
} // namespace difftune::compare
