/**
 * @file
 * Tests for the prediction-serving engine: cache-hit behavior and
 * canonicalization, batched == sequential == uncached predictions
 * (bit-exact), batch boundary conditions (batch of one, batches
 * larger than the shard working set, ragged block lengths crossing
 * the lockstep masking path), invariance to the worker count,
 * surrogate-mode input handling, checkpoint validation at load, and
 * path-naming load errors, all through serve::AsyncEngine's
 * synchronous calls (predict / predictAll); its concurrency surface
 * is covered by tests/test_serve_async.cc.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <filesystem>
#include <future>

#include "bhive/corpus.hh"
#include "core/raw_table.hh"
#include "hw/default_table.hh"
#include "isa/parse.hh"
#include "serve/async_engine.hh"
#include "serve/lru_cache.hh"

namespace difftune::serve
{
namespace
{

surrogate::ModelConfig
tinyConfig(int param_dim)
{
    surrogate::ModelConfig cfg;
    cfg.embedDim = 8;
    cfg.hidden = 10;
    cfg.tokenLayers = 1;
    cfg.blockLayers = 1;
    cfg.paramDim = param_dim;
    cfg.seed = 5;
    return cfg;
}

/** An Ithemal-mode (paramDim 0) checkpoint, weights at init. */
io::Checkpoint
ithemalCheckpoint()
{
    io::Checkpoint ckpt;
    ckpt.model = std::make_unique<surrogate::Model>(
        tinyConfig(0), isa::theVocab().size());
    ckpt.vocabSize = isa::theVocab().size();
    return ckpt;
}

/** A surrogate-mode checkpoint with table + sampling distribution. */
io::Checkpoint
surrogateCheckpoint()
{
    const params::SamplingDist dist = params::SamplingDist::full();
    const core::ParamNormalizer norm(dist);
    io::Checkpoint ckpt;
    ckpt.model = std::make_unique<surrogate::Model>(
        tinyConfig(norm.paramDim()), isa::theVocab().size());
    ckpt.vocabSize = isa::theVocab().size();
    ckpt.dist = dist;
    ckpt.table = hw::defaultTable(hw::Uarch::Haswell);
    return ckpt;
}

const std::vector<std::string> sampleBlocks = {
    "ADD32rr %ebx, %ecx\nNOP\n",
    "IMUL64rr %rbx, %rcx\n",
    "MOV64rm 8(%rsi), %rdi\nADD64rr %rdi, %rbx\n",
    "PUSH64r %rbx\nPOP64r %rbx\n",
    "ADD32rr %ebx, %ecx\nNOP\n", // repeat of the first
};

bool
sameBits(double a, double b)
{
    return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

TEST(Engine, CacheHitBehavior)
{
    AsyncEngine engine(ithemalCheckpoint());
    const std::string text = sampleBlocks[0];

    const double first = engine.predict(text);
    EXPECT_EQ(engine.stats().requests, 1u);
    EXPECT_EQ(engine.stats().misses, 1u);
    EXPECT_EQ(engine.stats().hits, 0u);
    EXPECT_EQ(engine.stats().textMisses, 1u);
    EXPECT_EQ(engine.stats().textHits, 0u);

    const double second = engine.predict(text);
    EXPECT_EQ(engine.stats().requests, 2u);
    EXPECT_EQ(engine.stats().misses, 1u);
    EXPECT_EQ(engine.stats().hits, 1u);
    // The repeat was answered by the raw-text front cache, and the
    // front cache has its own counters now.
    EXPECT_EQ(engine.stats().textHits, 1u);
    EXPECT_EQ(engine.stats().textMisses, 1u);
    EXPECT_TRUE(sameBits(first, second));
}

TEST(Engine, CacheKeyIsCanonicalized)
{
    AsyncEngine engine(ithemalCheckpoint());
    engine.predict("ADD32rr %ebx, %ecx\nNOP\n");
    // Comments and blank lines canonicalize away: same block, so the
    // second request must hit.
    engine.predict("# hot loop\n\nADD32rr %ebx, %ecx\n\nNOP\n");
    EXPECT_EQ(engine.stats().hits, 1u);
    EXPECT_EQ(engine.stats().misses, 1u);
    // Distinct raw texts: the hit came from the canonical cache,
    // past the raw-text front cache.
    EXPECT_EQ(engine.stats().textHits, 0u);
    EXPECT_EQ(engine.stats().textMisses, 2u);
}

TEST(Engine, BatchedEqualsSequential)
{
    AsyncEngine sequential(ithemalCheckpoint());
    AsyncEngine batched(ithemalCheckpoint());

    std::vector<double> expected;
    for (const auto &text : sampleBlocks)
        expected.push_back(sequential.predict(text));

    const std::vector<double> actual =
        batched.predictAll(sampleBlocks);
    ASSERT_EQ(actual.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i)
        EXPECT_TRUE(sameBits(actual[i], expected[i])) << "block " << i;

    // The in-batch repeat deduplicates to one forward pass but still
    // counts as a request.
    EXPECT_EQ(batched.stats().requests, sampleBlocks.size());
    EXPECT_EQ(batched.stats().hits + batched.stats().misses,
              sampleBlocks.size());
}

TEST(Engine, BatchOfOneMatchesSingleAndUncached)
{
    AsyncEngine batched(ithemalCheckpoint());
    AsyncEngine single(ithemalCheckpoint());
    for (const auto &text : sampleBlocks) {
        const auto results = batched.predictAll({text});
        ASSERT_EQ(results.size(), 1u);
        EXPECT_TRUE(sameBits(results[0], single.predict(text)));
        EXPECT_TRUE(
            sameBits(results[0], single.predictUncached(text)));
    }
}

TEST(Engine, BatchLargerThanShardWorkingSet)
{
    // A single batch far larger than any shard's per-wave share (and
    // than the earlier tests' working sets), with every block length
    // in [1, ~8] represented: one predictAll spanning the whole
    // generated corpus must match a block-at-a-time engine bit for
    // bit.
    const auto corpus = bhive::Corpus::generate(96, 0x5eed1);
    std::vector<std::string> texts;
    for (size_t i = 0; i < corpus.size(); ++i)
        texts.push_back(isa::toString(corpus[i].block));

    AsyncEngine batched(surrogateCheckpoint());
    AsyncEngine sequential(surrogateCheckpoint());
    const auto results = batched.predictAll(texts);
    ASSERT_EQ(results.size(), texts.size());
    for (size_t i = 0; i < texts.size(); ++i)
        EXPECT_TRUE(
            sameBits(results[i], sequential.predict(texts[i])))
            << "block " << i;
}

TEST(Engine, RaggedBlockLengthsCrossTheMaskPath)
{
    // Lengths 1, 2, 5, 9 and 3 in one batch: every lockstep step
    // retires a different subset of lanes, so each block's forward
    // pass crosses the length-masking path at a different point.
    const std::vector<std::string> ragged = {
        "NOP\n",
        "ADD32rr %ebx, %ecx\nIMUL64rr %rbx, %rcx\n",
        "MOV64rm 8(%rsi), %rdi\nADD64rr %rdi, %rbx\n"
        "IMUL64rr %rbx, %rcx\nCMP64rr %rcx, %rdx\nPUSH64r %rbx\n",
        "NOP\nNOP\nADD32rr %ebx, %ecx\nPUSH64r %rbx\nPOP64r %rcx\n"
        "IMUL64rr %rbx, %rcx\nCMP64rr %rcx, %rdx\nNOP\n"
        "ADD64rr %rdi, %rbx\n",
        "PUSH64r %rbx\nPOP64r %rcx\nADD32rr %ebx, %ecx\n",
    };
    AsyncEngine batched(surrogateCheckpoint());
    AsyncEngine sequential(surrogateCheckpoint());
    const auto results = batched.predictAll(ragged);
    for (size_t i = 0; i < ragged.size(); ++i)
        EXPECT_TRUE(
            sameBits(results[i], sequential.predict(ragged[i])))
            << "block " << i;
    // And submission order must not matter.
    AsyncEngine reversed(surrogateCheckpoint());
    const std::vector<std::string> rev(ragged.rbegin(),
                                       ragged.rend());
    const auto back = reversed.predictAll(rev);
    for (size_t i = 0; i < ragged.size(); ++i)
        EXPECT_TRUE(sameBits(back[ragged.size() - 1 - i],
                             results[i]))
            << "block " << i;
}

TEST(Engine, ResultsInvariantUnderWorkerCount)
{
    std::vector<double> reference;
    for (int workers : {1, 2, 3, 7}) {
        AsyncConfig cfg;
        cfg.workers = workers;
        AsyncEngine engine(ithemalCheckpoint(), cfg);
        const auto results = engine.predictAll(sampleBlocks);
        if (reference.empty()) {
            reference = results;
            continue;
        }
        ASSERT_EQ(results.size(), reference.size());
        for (size_t i = 0; i < results.size(); ++i)
            EXPECT_TRUE(sameBits(results[i], reference[i]))
                << "workers " << workers << " block " << i;
    }

    // A submitAll group whose twins and one malformed block straddle
    // the workers' contiguous ranges for every pool size above 1:
    // slots 0/7 and 1/4 are twins, slot 5 does not parse.
    const std::vector<std::string> group = {
        sampleBlocks[0], sampleBlocks[1],     sampleBlocks[2],
        sampleBlocks[3], sampleBlocks[1],     "BOGUS_OPCODE %zz\n",
        "NOP\n",         sampleBlocks[0]};
    constexpr size_t malformed = 5;
    std::vector<double> group_reference;
    for (int workers : {1, 2, 3, 4}) {
        AsyncConfig cfg;
        cfg.workers = workers;
        AsyncEngine engine(ithemalCheckpoint(), cfg);
        std::vector<std::future<double>> futures =
            engine.submitAll(group);
        std::vector<double> results(group.size(), 0.0);
        for (size_t i = 0; i < group.size(); ++i) {
            if (i == malformed) {
                EXPECT_THROW(futures[i].get(), std::runtime_error)
                    << "workers " << workers;
            } else {
                EXPECT_NO_THROW(results[i] = futures[i].get())
                    << "workers " << workers << " slot " << i;
            }
        }
        EXPECT_TRUE(sameBits(results[7], results[0]))
            << "workers " << workers;
        EXPECT_TRUE(sameBits(results[4], results[1]))
            << "workers " << workers;
        if (group_reference.empty()) {
            group_reference = results;
            continue;
        }
        for (size_t i = 0; i < results.size(); ++i)
            EXPECT_TRUE(sameBits(results[i], group_reference[i]))
                << "workers " << workers << " slot " << i;
    }
}

TEST(Engine, UncachedMatchesCached)
{
    AsyncEngine engine(ithemalCheckpoint());
    for (const auto &text : sampleBlocks) {
        const double uncached = engine.predictUncached(text);
        const double cached = engine.predict(text);
        EXPECT_TRUE(sameBits(uncached, cached));
    }
}

TEST(Engine, SurrogateModeMatchesManualForward)
{
    io::Checkpoint ckpt = surrogateCheckpoint();
    const params::SamplingDist dist = *ckpt.dist;
    const params::ParamTable table = *ckpt.table;
    // Keep an aliased model view for the manual reference pass; the
    // engine owns the model but never mutates it.
    const surrogate::Model &model = *ckpt.model;
    AsyncEngine engine(std::move(ckpt));

    const core::ParamNormalizer norm(dist);
    for (const auto &text : sampleBlocks) {
        const auto block = isa::parseBlock(text);
        nn::Graph graph;
        nn::Ctx ctx{graph, model.params(), nullptr};
        auto inputs = core::constParamInputs(graph, table, block, norm);
        nn::Var pred = graph.exp(
            model.forward(ctx, surrogate::encodeBlock(block), inputs));
        EXPECT_TRUE(
            sameBits(engine.predict(text), graph.scalarValue(pred)));
    }
}

TEST(Engine, LruEvictionKeepsServing)
{
    AsyncConfig cfg;
    cfg.cacheCapacity = 2;
    AsyncEngine engine(ithemalCheckpoint(), cfg);
    std::vector<double> first;
    for (const auto &text : sampleBlocks)
        first.push_back(engine.predict(text));
    // Everything was evicted at least once along the way; a second
    // sweep still returns identical predictions.
    for (size_t i = 0; i < sampleBlocks.size(); ++i)
        EXPECT_TRUE(sameBits(engine.predict(sampleBlocks[i]), first[i]));
}

TEST(Engine, FileRoundTripServesIdentically)
{
    io::Checkpoint ckpt = surrogateCheckpoint();
    const std::string path =
        (std::filesystem::temp_directory_path() /
         "difftune_serve_roundtrip.ckpt")
            .string();
    io::saveCheckpoint(path, ckpt.model.get(), &*ckpt.dist,
                       &*ckpt.table);

    AsyncEngine original(std::move(ckpt));
    const auto restored = AsyncEngine::loadFromFile(path);
    std::remove(path.c_str());

    for (const auto &text : sampleBlocks)
        EXPECT_TRUE(sameBits(original.predict(text),
                             restored->predict(text)));
}

TEST(Engine, RejectsCheckpointWithoutModel)
{
    io::Checkpoint ckpt;
    ckpt.table = hw::defaultTable(hw::Uarch::Haswell);
    EXPECT_THROW(AsyncEngine{std::move(ckpt)},
                 std::runtime_error);
}

TEST(Engine, RejectsSurrogateWithoutTable)
{
    io::Checkpoint ckpt = surrogateCheckpoint();
    ckpt.table.reset();
    EXPECT_THROW(AsyncEngine{std::move(ckpt)},
                 std::runtime_error);
}

TEST(Engine, RejectsSurrogateWithoutDist)
{
    io::Checkpoint ckpt = surrogateCheckpoint();
    ckpt.dist.reset();
    EXPECT_THROW(AsyncEngine{std::move(ckpt)},
                 std::runtime_error);
}

TEST(Engine, FromFileErrorsNameTheOffendingPath)
{
    // A missing file names the path...
    try {
        AsyncEngine::loadFromFile("/nonexistent/missing.ckpt");
        FAIL() << "expected a load failure";
    } catch (const std::runtime_error &error) {
        EXPECT_NE(std::string(error.what())
                      .find("/nonexistent/missing.ckpt"),
                  std::string::npos)
            << error.what();
    }
    // ...and so does a file that loads but cannot be served (a
    // surrogate-shaped model saved without its parameter table).
    io::Checkpoint ckpt = surrogateCheckpoint();
    const std::string path =
        (std::filesystem::temp_directory_path() /
         "difftune_serve_no_table.ckpt")
            .string();
    io::saveCheckpoint(path, ckpt.model.get(), nullptr, nullptr);
    try {
        AsyncEngine::loadFromFile(path);
        std::remove(path.c_str());
        FAIL() << "expected a validation failure";
    } catch (const std::runtime_error &error) {
        std::remove(path.c_str());
        const std::string what = error.what();
        EXPECT_NE(what.find(path), std::string::npos) << what;
        EXPECT_NE(what.find("parameter table"), std::string::npos)
            << what;
    }
}

TEST(Engine, RejectsVocabMismatch)
{
    io::Checkpoint ckpt = ithemalCheckpoint();
    ckpt.vocabSize += 1;
    EXPECT_THROW(AsyncEngine{std::move(ckpt)},
                 std::runtime_error);
}

TEST(Engine, RejectsEmptyBlock)
{
    AsyncEngine engine(ithemalCheckpoint());
    EXPECT_THROW(engine.predict("# only a comment\n"),
                 std::runtime_error);
    // Also catchable from the batched path: the validation must run
    // on the submit thread, not inside a worker shard.
    EXPECT_THROW(
        engine.predictAll({sampleBlocks[0], "# only a comment\n"}),
        std::runtime_error);
}

TEST(LruCacheTest, EvictsLeastRecentlyUsed)
{
    LruCache<int, int> cache(2);
    cache.put(1, 10);
    cache.put(2, 20);
    ASSERT_NE(cache.get(1), nullptr); // refresh 1; 2 is now LRU
    cache.put(3, 30);                 // evicts 2
    EXPECT_EQ(cache.get(2), nullptr);
    ASSERT_NE(cache.get(1), nullptr);
    EXPECT_EQ(*cache.get(1), 10);
    ASSERT_NE(cache.get(3), nullptr);
    EXPECT_EQ(*cache.get(3), 30);
    EXPECT_EQ(cache.size(), 2u);
}

TEST(LruCacheTest, PutRefreshesExistingKey)
{
    LruCache<int, int> cache(2);
    cache.put(1, 10);
    cache.put(2, 20);
    cache.put(1, 11); // refresh + overwrite; 2 is now LRU
    cache.put(3, 30); // evicts 2
    ASSERT_NE(cache.get(1), nullptr);
    EXPECT_EQ(*cache.get(1), 11);
    EXPECT_EQ(cache.get(2), nullptr);
}

} // namespace
} // namespace difftune::serve
