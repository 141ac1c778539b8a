/**
 * @file
 * Tests for serving API v2 (serve::AsyncEngine): snapshot sharing
 * across shards and engines (per-engine weight allocations must not
 * scale with the worker count), bit-equality of concurrent
 * submission with the sequential reference across thread counts and
 * random interleavings, micro-batcher behavior (submitAll groups,
 * coalescing), shutdown draining, error propagation through
 * futures, atomic-stats reconciliation, and the sharded LRU cache.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <future>
#include <thread>
#include <unordered_set>

#include "base/random.hh"
#include "bhive/corpus.hh"
#include "core/raw_table.hh"
#include "hw/default_table.hh"
#include "isa/parse.hh"
#include "serve/async_engine.hh"

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

io::Checkpoint
ithemalCheckpoint()
{
    io::Checkpoint ckpt;
    ckpt.model = std::make_unique<surrogate::Model>(
        tinyConfig(0), isa::theVocab().size());
    ckpt.vocabSize = isa::theVocab().size();
    return ckpt;
}

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

bool
sameBits(double a, double b)
{
    return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

/** Canonical texts of a generated corpus. */
std::vector<std::string>
corpusTexts(size_t count, uint64_t seed)
{
    const auto corpus = bhive::Corpus::generate(count, seed);
    std::vector<std::string> texts;
    texts.reserve(corpus.size());
    for (size_t i = 0; i < corpus.size(); ++i)
        texts.push_back(isa::toString(corpus[i].block));
    return texts;
}

TEST(AsyncEngine, SnapshotSharedByAllShards)
{
    AsyncConfig cfg;
    cfg.workers = 4;
    AsyncEngine engine(surrogateCheckpoint(), cfg);
    // All shard executors borrow one snapshot: the shared_ptr is
    // referenced by the engine itself plus one per shard, and no
    // shard holds a private copy of any derived table.
    EXPECT_GE(engine.snapshotPtr().use_count(), 1 + engine.workers());
}

TEST(AsyncEngine, WeightAllocationsDoNotScaleWithWorkers)
{
    // The acceptance assertion for snapshot sharing: serve the same
    // workload with 1 and with 4 workers and require identical
    // derived-weight residency — pre-v2, 4 workers meant 4
    // projection-table sets. The input columns are shared too.
    const auto texts = corpusTexts(24, 0xa57c);
    size_t bytes[2] = {0, 0};
    const int workers[2] = {1, 4};
    for (int i = 0; i < 2; ++i) {
        AsyncConfig cfg;
        cfg.workers = workers[i];
        AsyncEngine engine(surrogateCheckpoint(), cfg);
        engine.predictAll(texts); // materialize the projections
        bytes[i] = engine.sharedWeightBytes();
        EXPECT_GT(bytes[i], 0u);
    }
    EXPECT_EQ(bytes[0], bytes[1]);
}

TEST(AsyncEngine, EnginesShareOneArtifactSnapshot)
{
    io::ModelSnapshot artifact =
        io::makeModelSnapshot(surrogateCheckpoint());
    AsyncEngine a(artifact);
    AsyncEngine b(artifact);
    EXPECT_EQ(&a.snapshot(), &b.snapshot());
    // And the shared snapshot serves both engines bit-identically.
    const auto texts = corpusTexts(8, 0x11);
    for (const auto &text : texts)
        EXPECT_TRUE(sameBits(a.predict(text), b.predict(text)));
}

TEST(AsyncEngine, SubmitMatchesSequentialReference)
{
    AsyncEngine engine(ithemalCheckpoint());
    AsyncEngine reference(ithemalCheckpoint());
    const auto texts = corpusTexts(16, 0x22);
    for (const auto &text : texts) {
        std::future<double> future = engine.submit(text);
        EXPECT_TRUE(sameBits(future.get(), reference.predict(text)));
    }
}

TEST(AsyncEngine, ConcurrentInterleavedSubmissionIsBitExact)
{
    // N client threads, each submitting the whole workload in its
    // own random order, against a sequential reference: every
    // result must be bit-identical regardless of thread count,
    // arrival order or how the micro-batcher slices the stream.
    const auto texts = corpusTexts(32, 0x33);
    AsyncEngine reference(surrogateCheckpoint());
    std::vector<double> expected;
    expected.reserve(texts.size());
    for (const auto &text : texts)
        expected.push_back(reference.predict(text));

    for (int threads : {2, 5}) {
        AsyncEngine engine(surrogateCheckpoint());
        std::atomic<int> mismatches{0};
        std::vector<std::thread> clients;
        clients.reserve(size_t(threads));
        for (int t = 0; t < threads; ++t) {
            clients.emplace_back([&, t] {
                std::vector<size_t> order(texts.size());
                for (size_t i = 0; i < order.size(); ++i)
                    order[i] = i;
                Rng rng(uint64_t(t) * 977 + 13);
                for (size_t i = order.size(); i > 1; --i)
                    std::swap(order[i - 1],
                              order[size_t(rng.uniformInt(
                                  0, int64_t(i) - 1))]);
                for (size_t i : order)
                    if (!sameBits(engine.submit(texts[i]).get(),
                                  expected[i]))
                        ++mismatches;
            });
        }
        for (auto &client : clients)
            client.join();
        EXPECT_EQ(mismatches.load(), 0) << threads << " threads";
        // Reconciliation: every request was answered exactly once.
        const ServeStats &stats = engine.stats();
        EXPECT_EQ(stats.requests,
                  uint64_t(threads) * texts.size());
        EXPECT_EQ(stats.textHits + stats.textMisses, stats.requests);
        EXPECT_EQ(stats.hits + stats.misses, stats.requests);
        EXPECT_LE(stats.forwards, stats.misses);
        // Every distinct canonical block must have been forwarded
        // at least once to be served at all.
        const std::unordered_set<std::string> unique(texts.begin(),
                                                     texts.end());
        EXPECT_GE(stats.forwards, unique.size());
    }
}

TEST(AsyncEngine, SubmitAllGroupMatchesPredictAll)
{
    const auto texts = corpusTexts(20, 0x44);
    AsyncEngine grouped(ithemalCheckpoint());
    AsyncEngine sync(ithemalCheckpoint());
    std::vector<std::future<double>> futures =
        grouped.submitAll(texts);
    const std::vector<double> direct = sync.predictAll(texts);
    ASSERT_EQ(futures.size(), direct.size());
    for (size_t i = 0; i < futures.size(); ++i)
        EXPECT_TRUE(sameBits(futures[i].get(), direct[i]))
            << "block " << i;
}

TEST(AsyncEngine, MicroBatcherCoalescesUnderMaxBatch)
{
    // On one worker, a submitAll group of more than 2 * kMaxBatch
    // distinct misses must split into at least three executed
    // batches. (With a pool, the group split alone would meet the
    // bound.)
    const auto texts = corpusTexts(2 * AsyncEngine::kMaxBatch + 2, 0x55);
    const std::unordered_set<std::string> distinct(texts.begin(),
                                                   texts.end());
    ASSERT_GT(distinct.size(), 2 * AsyncEngine::kMaxBatch);
    AsyncConfig cfg;
    cfg.workers = 1;
    AsyncEngine engine(ithemalCheckpoint(), cfg);
    for (std::future<double> &future : engine.submitAll(texts))
        future.get();
    EXPECT_GE(engine.stats().batches.load(), 3u);
}

TEST(AsyncEngine, ShutdownDrainsPendingFutures)
{
    const auto texts = corpusTexts(24, 0x66);
    AsyncEngine engine(ithemalCheckpoint());
    AsyncEngine reference(ithemalCheckpoint());
    std::vector<std::future<double>> futures;
    futures.reserve(texts.size());
    for (const auto &text : texts)
        futures.push_back(engine.submit(text));
    // Shut down immediately: every already-submitted future must
    // still complete, with the correct bits.
    engine.shutdown();
    for (size_t i = 0; i < texts.size(); ++i)
        EXPECT_TRUE(
            sameBits(futures[i].get(), reference.predict(texts[i])));
    // Intake is closed afterwards.
    EXPECT_THROW(engine.submit(texts[0]), std::runtime_error);
    // shutdown is idempotent.
    engine.shutdown();
}

TEST(AsyncEngine, SubmitAfterShutdownThrowsCatchableError)
{
    // Regression: submit/submitAll on a stopped engine used to hit
    // fatal_if — noisy and indistinguishable from a real invariant
    // violation. A draining engine is an expected serving state
    // (difftuned answers it with a "draining" wire status), so every
    // entry point must throw the dedicated, quiet error type —
    // predict and predictAll too, since they share the intake.
    const auto texts = corpusTexts(4, 0x99);
    AsyncEngine engine(ithemalCheckpoint());
    EXPECT_TRUE(sameBits(engine.submit(texts[0]).get(),
                         engine.predict(texts[0])));
    engine.shutdown();
    EXPECT_THROW(engine.submit(texts[0]), EngineStoppedError);
    EXPECT_THROW(engine.submitAll(texts), EngineStoppedError);
    EXPECT_THROW(engine.predict(texts[0]), EngineStoppedError);
    EXPECT_THROW(engine.predict(texts[1]), EngineStoppedError);
    EXPECT_THROW(engine.predictAll(texts), EngineStoppedError);
    // The rejections leave the counters reconciled: requests ==
    // hits + misses still holds for the lifetime totals.
    const auto &stats = engine.stats();
    EXPECT_EQ(stats.requests.load(),
              stats.hits.load() + stats.misses.load());
}

TEST(AsyncEngine, ParseErrorsPropagateThroughFutures)
{
    AsyncEngine engine(ithemalCheckpoint());
    const auto texts = corpusTexts(4, 0x77);
    std::vector<std::string> mixed = {texts[0], "# only a comment\n",
                                      texts[1]};
    std::vector<std::future<double>> futures =
        engine.submitAll(mixed);
    // Good requests in the same micro-batch still succeed.
    EXPECT_GT(futures[0].get(), 0.0);
    EXPECT_THROW(futures[1].get(), std::runtime_error);
    EXPECT_GT(futures[2].get(), 0.0);
    // predict surfaces the same error by throwing.
    EXPECT_THROW(engine.predict("BOGUS_OPCODE %zz\n"),
                 std::runtime_error);
}

TEST(AsyncEngine, ConcurrentSyncCallsAreSafe)
{
    // The synchronous entry points are thread-safe too (v1's
    // "single-caller" restriction is gone): hammer predict and
    // predictAll from several threads.
    const auto texts = corpusTexts(24, 0xaa);
    AsyncEngine reference(ithemalCheckpoint());
    std::vector<double> expected;
    for (const auto &text : texts)
        expected.push_back(reference.predict(text));

    AsyncEngine engine(ithemalCheckpoint());
    std::atomic<int> mismatches{0};
    std::vector<std::thread> clients;
    for (int t = 0; t < 4; ++t) {
        clients.emplace_back([&, t] {
            if (t % 2 == 0) {
                const std::vector<double> all =
                    engine.predictAll(texts);
                for (size_t i = 0; i < texts.size(); ++i)
                    if (!sameBits(all[i], expected[i]))
                        ++mismatches;
            } else {
                for (size_t i = 0; i < texts.size(); ++i)
                    if (!sameBits(engine.predict(texts[i]),
                                  expected[i]))
                        ++mismatches;
            }
        });
    }
    for (auto &client : clients)
        client.join();
    EXPECT_EQ(mismatches.load(), 0);
}

TEST(AsyncEngine, PoolShutdownDrainsEveryQueue)
{
    // Dispatcher pool: requests striped over several intake queues
    // must all complete (with the right bits) through an immediate
    // shutdown — the drain covers every per-worker queue, not just
    // one dispatcher's.
    const auto texts = corpusTexts(24, 0xbb);
    AsyncConfig cfg;
    cfg.workers = 4;
    AsyncEngine engine(ithemalCheckpoint(), cfg);
    AsyncEngine reference(ithemalCheckpoint());
    std::vector<std::future<double>> futures;
    futures.reserve(texts.size());
    for (const auto &text : texts)
        futures.push_back(engine.submit(text));
    engine.shutdown();
    for (size_t i = 0; i < texts.size(); ++i)
        EXPECT_TRUE(
            sameBits(futures[i].get(), reference.predict(texts[i])));
    EXPECT_THROW(engine.submit(texts[0]), EngineStoppedError);
}

TEST(AsyncEngine, PoolQueueMetricsReconcile)
{
    // Satellite of the traffic-lab PR: with a dispatcher pool the
    // queue_depth gauge mirrors the backlog summed over every
    // per-worker queue (one queue alone would under-report), and
    // stage.queue_wait_ns times from the enqueue on the owning
    // queue — so after a full drain the gauge reads 0 and the wait
    // histogram holds exactly one observation per queued request.
    const auto texts = corpusTexts(32, 0xcc);
    obs::MetricRegistry registry;
    AsyncConfig cfg;
    cfg.workers = 4;
    cfg.registry = &registry;
    cfg.metricPrefix = "poolrec";
    AsyncEngine engine(ithemalCheckpoint(), cfg);
    for (std::future<double> &future : engine.submitAll(texts))
        future.get();
    for (const auto &text : texts) // warm repeats: front-cache hits
        engine.submit(text).get();
    engine.shutdown();

    EXPECT_EQ(registry.gauge("poolrec.queue_depth").value(), 0);
    // Every text missed the front cache exactly once and queued;
    // the warm repeats resolved inline and never waited.
    const auto waits =
        registry.histogram("poolrec.stage.queue_wait_ns").snapshot();
    EXPECT_EQ(waits.count(), engine.stats().textMisses.load());
    EXPECT_EQ(waits.count(), texts.size());
    // Async end-to-end spans cover the same queued population.
    const auto requests =
        registry.histogram("poolrec.request_ns").snapshot();
    EXPECT_EQ(requests.count(), texts.size());
}

TEST(ShardedLruCacheTest, StripeBalanceOnDenseBlockIds)
{
    // Satellite of the traffic-lab PR: interned BlockIds are dense
    // sequential integers, and std::hash is identity for integers on
    // common implementations — without a finalizer, stripe selection
    // would correlate with the per-stripe hash-map bucket reduction.
    // stripeFor applies the full splitmix64 finalizer; audit the mix
    // on the worst-case population (10k sequential ids) and require
    // every stripe within 2x fair share (measured: within 10%,
    // worst stripe ~8.1% under fair).
    ShardedLruCache<uint32_t, double> cache(4096, 8);
    std::vector<size_t> load(size_t(cache.numStripes()), 0);
    constexpr size_t kIds = 10000;
    for (uint32_t id = 0; id < kIds; ++id)
        ++load[cache.stripeIndex(id)];
    const double fair = double(kIds) / double(load.size());
    for (size_t s = 0; s < load.size(); ++s) {
        EXPECT_LT(double(load[s]), 2.0 * fair) << "stripe " << s;
        EXPECT_GT(double(load[s]), 0.5 * fair) << "stripe " << s;
        // The documented measurement in sharded_cache.hh.
        EXPECT_NEAR(double(load[s]), fair, 0.10 * fair)
            << "stripe " << s;
    }
}

TEST(ShardedLruCacheTest, PolicyFactoryDrivesStripes)
{
    // A non-default policy threads through the sharded wrapper: a
    // TinyLFU cache under one-pass scan traffic must reject most
    // inserts (counters prove the policy actually ran per stripe).
    ShardedLruCache<uint32_t, double> cache(
        64, 4, lab::policyFactory("tinylfu"));
    EXPECT_STREQ(cache.policyName(), "tinylfu");
    // Warm a hot set, then scan with the hot traffic still flowing
    // (TinyLFU's sketch ages, so a hot set that stops arriving
    // decays away by design).
    for (int round = 0; round < 8; ++round)
        for (uint32_t id = 0; id < 64; ++id)
            if (!cache.get(id))
                cache.put(id, double(id));
    for (uint32_t id = 10000; id < 12000; ++id) {
        const uint32_t hot = id % 64;
        if (!cache.get(hot))
            cache.put(hot, double(hot));
        cache.get(id);
        cache.put(id, double(id));
    }
    const lab::CacheCounters counters = cache.counters();
    EXPECT_GT(counters.rejections, 1500u);
    // Hot keys survived the scan.
    size_t hot_resident = 0;
    for (uint32_t id = 0; id < 64; ++id)
        if (cache.get(id))
            ++hot_resident;
    EXPECT_GT(hot_resident, 48u);
}

TEST(ShardedLruCacheTest, StripedGetPutAndEviction)
{
    ShardedLruCache<std::string, double> cache(16, 4);
    EXPECT_EQ(cache.numStripes(), 4);
    EXPECT_EQ(cache.capacity(), 16u);
    for (int i = 0; i < 64; ++i)
        cache.put("key" + std::to_string(i), double(i));
    EXPECT_LE(cache.size(), 16u);
    EXPECT_GT(cache.size(), 0u);
    // Whatever survived must read back exactly.
    for (int i = 0; i < 64; ++i) {
        const auto hit = cache.get("key" + std::to_string(i));
        if (hit) {
            EXPECT_EQ(*hit, double(i));
        }
    }
    EXPECT_FALSE(cache.get("never-inserted").has_value());
}

TEST(ShardedLruCacheTest, CapacityReportsConfiguredBudget)
{
    // Regression: capacity() used to return stripes * ceil(cap /
    // stripes) — 12 for a cache configured with 10 over 4 stripes —
    // so sizing reports overstated the budget whenever the capacity
    // didn't divide the stripe count. The configured number and the
    // per-stripe enforcement bound are now reported separately.
    ShardedLruCache<std::string, double> cache(10, 4);
    EXPECT_EQ(cache.capacity(), 10u);
    EXPECT_EQ(cache.enforcedCapacity(), 12u); // 4 * ceil(10/4)
    // Residency never exceeds the enforced bound.
    for (int i = 0; i < 100; ++i)
        cache.put("key" + std::to_string(i), double(i));
    EXPECT_LE(cache.size(), cache.enforcedCapacity());

    // Exact division: the two coincide.
    ShardedLruCache<std::string, double> even(16, 4);
    EXPECT_EQ(even.capacity(), 16u);
    EXPECT_EQ(even.enforcedCapacity(), 16u);

    // One stripe degenerates to a plain LRU: both are exact.
    ShardedLruCache<std::string, double> single(7, 1);
    EXPECT_EQ(single.capacity(), 7u);
    EXPECT_EQ(single.enforcedCapacity(), 7u);
}

TEST(ShardedLruCacheTest, ConcurrentAccessKeepsValuesExact)
{
    ShardedLruCache<std::string, double> cache(256, 8);
    std::atomic<int> corrupt{0};
    std::vector<std::thread> workers;
    for (int t = 0; t < 4; ++t) {
        workers.emplace_back([&, t] {
            Rng rng{uint64_t(t)};
            for (int i = 0; i < 2000; ++i) {
                const int k = int(rng.uniformInt(0, 127));
                const std::string key =
                    "key" + std::to_string(k);
                if (i % 2 == 0) {
                    cache.put(key, double(k));
                } else if (const auto hit = cache.get(key)) {
                    if (*hit != double(k))
                        ++corrupt;
                }
            }
        });
    }
    for (auto &worker : workers)
        worker.join();
    EXPECT_EQ(corrupt.load(), 0);
}

} // namespace
} // namespace difftune::serve
