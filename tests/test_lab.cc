/**
 * @file
 * Tests for the traffic lab (lab/): trace generation determinism
 * and the serialized round trip, Zipf popularity shape, respelling
 * canonicalization, cache-policy property tests (capacity bounds,
 * counter reconciliation, LRU-behind-interface equivalence with the
 * legacy serve::LruCache, TinyLFU scan resistance), the CacheSim
 * sweep harness, and — the acceptance assertion of the lab PR —
 * bit-exact engine replay for every (policy, worker count)
 * combination, plus pool behavior under concurrent submission and
 * registry hot-swap (the TSan target).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <thread>
#include <unordered_map>

#include "base/random.hh"
#include "core/raw_table.hh"
#include "hw/default_table.hh"
#include "io/snapshot.hh"
#include "isa/parse.hh"
#include "lab/cache_sim.hh"
#include "lab/policy.hh"
#include "lab/policy_cache.hh"
#include "lab/trace.hh"
#include "serve/async_engine.hh"
#include "serve/lru_cache.hh"
#include "serve/registry.hh"

namespace difftune::lab
{
namespace
{

surrogate::ModelConfig
tinyConfig()
{
    surrogate::ModelConfig cfg;
    cfg.embedDim = 8;
    cfg.hidden = 10;
    cfg.tokenLayers = 1;
    cfg.blockLayers = 1;
    cfg.paramDim = 0;
    cfg.seed = 5;
    return cfg;
}

io::Checkpoint
tinyCheckpoint()
{
    io::Checkpoint ckpt;
    ckpt.model = std::make_unique<surrogate::Model>(
        tinyConfig(), isa::theVocab().size());
    ckpt.vocabSize = isa::theVocab().size();
    return ckpt;
}

bool
sameBits(double a, double b)
{
    return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

/** A small trace config the engine tests can replay quickly. */
TraceConfig
smallTrace(uint64_t seed)
{
    TraceConfig cfg;
    cfg.seed = seed;
    cfg.corpusSeed = 11;
    cfg.corpusTarget = 24;
    cfg.requests = 160;
    cfg.zipfSkew = 1.1;
    cfg.respellProb = 0.3;
    return cfg;
}

// ------------------------------------------------------------ traces

TEST(TraceWorkload, SameSeedIsByteIdentical)
{
    const TraceConfig cfg = smallTrace(42);
    const std::string a = TraceWorkload::generate(cfg).serialize();
    const std::string b = TraceWorkload::generate(cfg).serialize();
    EXPECT_EQ(a, b);

    TraceConfig other = cfg;
    other.seed = 43;
    EXPECT_NE(a, TraceWorkload::generate(other).serialize());
}

TEST(TraceWorkload, SerializeRoundTripsBitExact)
{
    TraceConfig cfg = smallTrace(7);
    cfg.models = 3;
    cfg.modelWeights = {0.6, 0.3, 0.1};
    const TraceWorkload trace = TraceWorkload::generate(cfg);
    const std::string bytes = trace.serialize();
    const TraceWorkload back = TraceWorkload::deserialize(bytes);
    EXPECT_EQ(back.serialize(), bytes);

    ASSERT_EQ(back.requests().size(), trace.requests().size());
    for (size_t i = 0; i < trace.requests().size(); ++i) {
        EXPECT_EQ(back.requests()[i].block, trace.requests()[i].block);
        EXPECT_EQ(back.requests()[i].model, trace.requests()[i].model);
        EXPECT_EQ(back.requests()[i].respell,
                  trace.requests()[i].respell);
        EXPECT_EQ(back.requests()[i].arrivalNs,
                  trace.requests()[i].arrivalNs);
    }
    // The corpus regenerates from its recorded seed, so the
    // materialized request texts match too.
    EXPECT_EQ(back.requestTexts(), trace.requestTexts());
}

TEST(TraceWorkload, SaveLoadRoundTrip)
{
    const TraceWorkload trace =
        TraceWorkload::generate(smallTrace(9));
    const std::string path =
        (std::filesystem::temp_directory_path() /
         "difftune_test_trace.bin")
            .string();
    trace.save(path);
    const TraceWorkload back = TraceWorkload::load(path);
    std::filesystem::remove(path);
    EXPECT_EQ(back.serialize(), trace.serialize());
}

TEST(TraceWorkload, ZipfSkewShapesPopularity)
{
    TraceConfig cfg;
    cfg.seed = 3;
    cfg.corpusTarget = 64;
    cfg.requests = 20000;
    cfg.zipfSkew = 1.1;
    cfg.respellProb = 0.0;
    const TraceWorkload trace = TraceWorkload::generate(cfg);
    const size_t n = trace.corpusTexts().size();
    ASSERT_GT(n, 8u);

    std::vector<uint64_t> counts(n, 0);
    for (const TraceRequest &req : trace.requests()) {
        ASSERT_LT(req.block, n);
        ++counts[req.block];
    }
    // Empirical rank-0 share vs the theoretical 1 / (H * 1^s).
    double harmonic = 0.0;
    for (size_t r = 0; r < n; ++r)
        harmonic += std::exp(-cfg.zipfSkew * std::log(double(r + 1)));
    const double expected0 = 1.0 / harmonic;
    const double actual0 =
        double(counts[0]) / double(cfg.requests);
    EXPECT_NEAR(actual0, expected0, 0.25 * expected0);
    // Monotone-in-expectation head: the hottest rank clearly beats
    // the mid-pack and the tail.
    EXPECT_GT(counts[0], counts[8] * 2);
    EXPECT_GT(counts[0], counts[n - 1] * 4);
}

TEST(TraceWorkload, ArrivalsAreMonotone)
{
    const TraceWorkload trace =
        TraceWorkload::generate(smallTrace(21));
    uint64_t last = 0;
    for (const TraceRequest &req : trace.requests()) {
        EXPECT_GE(req.arrivalNs, last);
        last = req.arrivalNs;
    }
    EXPECT_GT(last, 0u);
}

TEST(TraceWorkload, ModelMixStaysInRange)
{
    TraceConfig cfg = smallTrace(5);
    cfg.models = 3;
    cfg.modelWeights = {0.7, 0.2, 0.1};
    cfg.requests = 3000;
    const TraceWorkload trace = TraceWorkload::generate(cfg);
    uint64_t per_model[3] = {0, 0, 0};
    for (const TraceRequest &req : trace.requests()) {
        ASSERT_LT(req.model, cfg.models);
        ++per_model[req.model];
    }
    // The weights order the mix.
    EXPECT_GT(per_model[0], per_model[1]);
    EXPECT_GT(per_model[1], per_model[2]);
}

TEST(TraceWorkload, RespellingPreservesCanonicalForm)
{
    const TraceWorkload trace =
        TraceWorkload::generate(smallTrace(13));
    size_t respelled = 0;
    for (size_t i = 0; i < trace.requests().size(); ++i) {
        const TraceRequest &req = trace.requests()[i];
        const std::string &canonical =
            trace.corpusTexts()[req.block];
        const std::string text = trace.requestText(i);
        if (req.respell == 0) {
            EXPECT_EQ(text, canonical);
            continue;
        }
        ++respelled;
        EXPECT_NE(text, canonical);
        // The near-miss parses back to the same canonical block.
        EXPECT_EQ(isa::toString(isa::parseBlock(text)), canonical);
    }
    // respellProb = 0.3 over 160 requests: expect a healthy sample.
    EXPECT_GT(respelled, 20u);
}

// ----------------------------------------------------------- policies

TEST(CachePolicy, RegistryKnowsAllPolicies)
{
    ASSERT_EQ(policyNames().size(), 3u);
    for (const std::string &name : policyNames()) {
        const PolicyFactory factory = policyFactory(name);
        const std::unique_ptr<CachePolicy> policy = factory(8);
        EXPECT_EQ(policy->name(), name);
    }
}

TEST(CachePolicy, PropertyInvariantsHoldForEveryPolicy)
{
    // Seed-parameterized property run: for every policy, a random
    // mixed get/put stream must (a) never exceed capacity, (b) only
    // ever hit values actually put for that key, and (c) leave the
    // counters reconciled.
    constexpr size_t kCapacity = 32;
    for (const std::string &name : policyNames()) {
        for (uint64_t seed : {1u, 2u, 3u}) {
            PolicyCache<int, int> cache(
                kCapacity, policyFactory(name)(kCapacity));
            Rng rng(seed);
            uint64_t gets = 0;
            for (int i = 0; i < 4000; ++i) {
                const int key = int(rng.uniformInt(0, 63));
                if (rng.bernoulli(0.5)) {
                    ++gets;
                    if (const int *hit = cache.get(key)) {
                        // Hit implies a prior admitted put of this
                        // exact key (values are key-derived).
                        EXPECT_EQ(*hit, key * 3 + 1)
                            << name << " seed " << seed;
                    }
                } else {
                    cache.put(key, key * 3 + 1);
                }
                ASSERT_LE(cache.size(), kCapacity) << name;
            }
            const CacheCounters &c = cache.counters();
            EXPECT_EQ(c.hits + c.misses, gets) << name;
            EXPECT_EQ(c.insertions,
                      c.evictions + cache.size())
                << name;
            if (name != "tinylfu") {
                EXPECT_EQ(c.rejections, 0u) << name;
            }
        }
    }
}

TEST(CachePolicy, LruPolicyMatchesLegacyLruCache)
{
    // The extraction proof: the interface LRU must make the byte-
    // identical hit/miss/eviction decisions the legacy intrusive
    // serve::LruCache makes on the same operation sequence.
    for (uint64_t seed : {11u, 22u, 33u}) {
        constexpr size_t kCapacity = 16;
        serve::LruCache<int, int> legacy(kCapacity);
        PolicyCache<int, int> cache(kCapacity,
                                    makeLruPolicy(kCapacity));
        Rng rng(seed);
        for (int i = 0; i < 3000; ++i) {
            const int key = int(rng.uniformInt(0, 47));
            if (rng.bernoulli(0.5)) {
                const int *a = legacy.get(key);
                const int *b = cache.get(key);
                ASSERT_EQ(a == nullptr, b == nullptr)
                    << "step " << i << " seed " << seed;
                if (a) {
                    ASSERT_EQ(*a, *b);
                }
            } else {
                const int value = i;
                legacy.put(key, value);
                ASSERT_TRUE(cache.put(key, value));
            }
            ASSERT_EQ(legacy.size(), cache.size());
        }
    }
}

TEST(CachePolicy, TinyLfuRejectsScansAndKeepsHotSet)
{
    constexpr size_t kCapacity = 16;
    PolicyCache<int, int> cache(kCapacity,
                                makeTinyLfuPolicy(kCapacity));
    // Warm a hot set that exactly fills the cache and builds sketch
    // frequency well above any one-hit wonder.
    for (int round = 0; round < 8; ++round)
        for (int key = 0; key < int(kCapacity); ++key)
            if (!cache.get(key))
                cache.put(key, key);
    // A long scan interleaved with live hot traffic (that is what
    // scan resistance means — the sketch ages every 8 x capacity
    // records, so a hot set that stops arriving legitimately decays
    // away): the doorkeeper absorbs each scan key's first sighting,
    // so scan keys estimate at most 1 and lose the admission duel
    // against the still-hot residents.
    uint64_t admitted = 0;
    int hot = 0;
    for (int key = 1000; key < 2000; ++key) {
        if (!cache.get(hot))
            cache.put(hot, hot);
        hot = (hot + 1) % int(kCapacity);
        EXPECT_EQ(cache.get(key), nullptr);
        if (cache.put(key, key))
            ++admitted;
    }
    EXPECT_LT(admitted, 50u);
    EXPECT_GT(cache.counters().rejections, 950u);
    // Nearly all of the hot set survived the scan.
    size_t resident = 0;
    for (int key = 0; key < int(kCapacity); ++key)
        if (cache.get(key) != nullptr)
            ++resident;
    EXPECT_GE(resident, kCapacity - 4);
}

TEST(CachePolicy, SegmentedLruProtectsRepeatedKeysFromScans)
{
    constexpr size_t kCapacity = 16;
    PolicyCache<int, int> cache(
        kCapacity, makeSegmentedLruPolicy(kCapacity, 0.5));
    // Promote a small working set into the protected segment (two
    // hits each), then scan. The scan churns probation but may not
    // evict the protected keys.
    for (int round = 0; round < 3; ++round)
        for (int key = 0; key < 6; ++key)
            if (!cache.get(key))
                cache.put(key, key);
    for (int key = 500; key < 600; ++key) {
        cache.get(key);
        cache.put(key, key);
    }
    for (int key = 0; key < 6; ++key)
        EXPECT_NE(cache.get(key), nullptr) << "protected " << key;
}

// ----------------------------------------------------------- CacheSim

TEST(CacheSim, SweepCoversAllPoliciesAndReconciles)
{
    TraceConfig cfg;
    cfg.seed = 17;
    cfg.corpusTarget = 64;
    cfg.requests = 4000;
    cfg.zipfSkew = 1.1;
    const TraceWorkload trace = TraceWorkload::generate(cfg);
    obs::MetricRegistry registry;
    const std::vector<SimResult> results =
        sweepPolicies(trace, 16, registry);
    ASSERT_EQ(results.size(), policyNames().size());
    for (size_t i = 0; i < results.size(); ++i) {
        const SimResult &r = results[i];
        EXPECT_EQ(r.policy, policyNames()[i]);
        EXPECT_EQ(r.requests, uint64_t(cfg.requests));
        EXPECT_EQ(r.counters.hits + r.counters.misses, r.requests);
        EXPECT_GE(r.hitRate, 0.0);
        EXPECT_LE(r.hitRate, 1.0);
        EXPECT_GT(r.counters.hits, 0u);
        EXPECT_FALSE(r.row().empty());
    }
}

TEST(CacheSim, SmartPoliciesBeatLruOnSkewedTraffic)
{
    // The bench_lab --smoke floor, asserted here deterministically:
    // on heavily Zipfian traffic with a cache much smaller than the
    // corpus, segmented LRU and TinyLFU admission must match or beat
    // plain LRU's hit-rate.
    TraceConfig cfg;
    cfg.seed = 29;
    cfg.corpusTarget = 256;
    cfg.requests = 20000;
    cfg.zipfSkew = 1.0;
    const TraceWorkload trace = TraceWorkload::generate(cfg);
    obs::MetricRegistry registry;
    const std::vector<SimResult> results =
        sweepPolicies(trace, 32, registry);
    ASSERT_EQ(results.size(), 3u);
    const double lru = results[0].hitRate;
    EXPECT_GE(results[1].hitRate, lru) << "slru regressed vs lru";
    EXPECT_GE(results[2].hitRate, lru) << "tinylfu regressed vs lru";
}

// ------------------------------------------------------ engine replay

TEST(LabReplay, BitStableForEveryPolicyAndPoolSize)
{
    // The lab acceptance assertion: replaying one trace through
    // AsyncEngine must produce bit-identical kF64 predictions for
    // every cache policy x worker-pool size combination — the
    // policy and the pool may only ever change speed, never results.
    // A deliberately tiny cache forces eviction/admission churn.
    const TraceWorkload trace = TraceWorkload::generate(smallTrace(1));
    const std::vector<std::string> texts = trace.requestTexts();

    serve::AsyncEngine reference(tinyCheckpoint());
    std::vector<double> expected;
    expected.reserve(texts.size());
    for (const std::string &text : texts)
        expected.push_back(reference.predict(text));

    for (const std::string &policy : policyNames()) {
        for (int pool : {1, 2, 4}) {
            serve::AsyncConfig cfg;
            cfg.workers = pool;
            cfg.cachePolicy = policyFactory(policy);
            cfg.cacheCapacity = 8;
            serve::AsyncEngine engine(tinyCheckpoint(), cfg);
            std::vector<std::future<double>> futures =
                engine.submitAll(texts);
            ASSERT_EQ(futures.size(), expected.size());
            for (size_t i = 0; i < futures.size(); ++i)
                ASSERT_TRUE(
                    sameBits(futures[i].get(), expected[i]))
                    << policy << " pool " << pool << " req " << i;
            // Replay reconciles: every request counted exactly once.
            const serve::ServeStats &stats = engine.stats();
            EXPECT_EQ(stats.requests.load(), texts.size());
            EXPECT_EQ(stats.hits.load() + stats.misses.load(),
                      stats.requests.load());
        }
    }
}

TEST(LabReplay, PoolServesConcurrentClientsBitExact)
{
    // Concurrent clients x worker pool: any interleaving, any
    // stripe assignment, any steal must still produce the reference
    // bits. (This is the pool's TSan workout too.)
    const TraceWorkload trace = TraceWorkload::generate(smallTrace(2));
    const std::vector<std::string> texts = trace.requestTexts();
    serve::AsyncEngine reference(tinyCheckpoint());
    std::vector<double> expected;
    expected.reserve(texts.size());
    for (const std::string &text : texts)
        expected.push_back(reference.predict(text));

    serve::AsyncConfig cfg;
    cfg.workers = 4;
    cfg.cacheCapacity = 16;
    serve::AsyncEngine engine(tinyCheckpoint(), cfg);
    std::atomic<int> mismatches{0};
    std::vector<std::thread> clients;
    for (int t = 0; t < 4; ++t) {
        clients.emplace_back([&, t] {
            for (size_t i = 0; i < texts.size(); ++i) {
                const size_t at =
                    (i * 13 + size_t(t) * 7) % texts.size();
                if (!sameBits(engine.submit(texts[at]).get(),
                              expected[at]))
                    ++mismatches;
            }
        });
    }
    for (std::thread &client : clients)
        client.join();
    EXPECT_EQ(mismatches.load(), 0);
}

TEST(LabReplay, PoolSurvivesRegistryHotSwapUnderLoad)
{
    // Pool-enabled engines behind the registry: clients hammer
    // submit through acquire() while another thread hot-swaps the
    // model. Every answer must be bit-exact against the reference
    // (both generations serve the same checkpoint) and no request
    // may be dropped — the TSan job replays this under
    // ThreadSanitizer.
    const TraceWorkload trace = TraceWorkload::generate(smallTrace(3));
    const std::vector<std::string> texts = trace.requestTexts();
    serve::AsyncEngine reference(tinyCheckpoint());
    std::vector<double> expected;
    expected.reserve(texts.size());
    for (const std::string &text : texts)
        expected.push_back(reference.predict(text));

    obs::MetricRegistry metrics;
    serve::RegistryConfig rcfg;
    rcfg.engine.workers = 2;
    rcfg.engine.cacheCapacity = 16;
    rcfg.registry = &metrics;
    rcfg.metricRoot = "labswap";
    serve::ModelRegistry registry(rcfg);
    registry.load("m", io::makeModelSnapshot(tinyCheckpoint()));

    std::atomic<int> mismatches{0};
    std::atomic<bool> done{false};
    std::vector<std::thread> clients;
    for (int t = 0; t < 3; ++t) {
        clients.emplace_back([&, t] {
            for (int round = 0; round < 2; ++round)
                for (size_t i = 0; i < texts.size(); ++i) {
                    const size_t at =
                        (i * 5 + size_t(t) * 11) % texts.size();
                    const std::shared_ptr<serve::AsyncEngine>
                        engine = registry.acquire("m");
                    try {
                        if (!sameBits(
                                engine->submit(texts[at]).get(),
                                expected[at]))
                            ++mismatches;
                    } catch (const serve::EngineStoppedError &) {
                        // A request racing the swap's drain: retry
                        // on the fresh generation.
                        if (!sameBits(registry.acquire("m")
                                          ->submit(texts[at])
                                          .get(),
                                      expected[at]))
                            ++mismatches;
                    }
                }
        });
    }
    std::thread swapper([&] {
        while (!done.load()) {
            registry.load("m",
                          io::makeModelSnapshot(tinyCheckpoint()));
            std::this_thread::sleep_for(
                std::chrono::milliseconds(2));
        }
    });
    for (std::thread &client : clients)
        client.join();
    done.store(true);
    swapper.join();
    EXPECT_EQ(mismatches.load(), 0);
    EXPECT_GE(registry.swaps(), 1u);
}

} // namespace
} // namespace difftune::lab
