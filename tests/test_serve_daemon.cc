/**
 * @file
 * Tests for the difftuned serving daemon stack: ModelRegistry
 * (bit-exact serving, zero-downtime hot-swap under concurrent load,
 * fail-closed swaps, drain semantics), the length-prefixed wire
 * protocol end to end over loopback TCP (predict/statsz/list/ping,
 * hot-swap via kLoad, malformed-frame handling), graceful drain
 * with in-flight traffic, and the workload helpers' zero-sample
 * latency guard.
 */

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <thread>

#include "bhive/corpus.hh"
#include "core/raw_table.hh"
#include "hw/default_table.hh"
#include "io/checkpoint.hh"
#include "isa/parse.hh"
#include "obs/export.hh"
#include "serve/daemon.hh"
#include "serve/workload.hh"

namespace difftune::serve
{
namespace
{

surrogate::ModelConfig
tinyConfig(int param_dim, uint64_t seed)
{
    surrogate::ModelConfig cfg;
    cfg.embedDim = 8;
    cfg.hidden = 10;
    cfg.tokenLayers = 1;
    cfg.blockLayers = 1;
    cfg.paramDim = param_dim;
    cfg.seed = seed;
    return cfg;
}

/** Untrained full-pipeline checkpoint; @p seed varies the weights. */
io::Checkpoint
surrogateCheckpoint(uint64_t seed)
{
    const params::SamplingDist dist = params::SamplingDist::full();
    const core::ParamNormalizer norm(dist);
    io::Checkpoint ckpt;
    ckpt.model = std::make_unique<surrogate::Model>(
        tinyConfig(norm.paramDim(), seed), isa::theVocab().size());
    ckpt.vocabSize = isa::theVocab().size();
    ckpt.dist = dist;
    ckpt.table = hw::defaultTable(hw::Uarch::Haswell);
    return ckpt;
}

io::ModelSnapshot
artifactWithSeed(uint64_t seed)
{
    return io::makeModelSnapshot(surrogateCheckpoint(seed));
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

/** Sequential double-precision references for @p texts. */
std::vector<double>
references(const io::ModelSnapshot &artifact,
           const std::vector<std::string> &texts)
{
    const AsyncEngine engine(artifact);
    std::vector<double> refs;
    refs.reserve(texts.size());
    for (const auto &text : texts)
        refs.push_back(engine.predictUncached(text));
    return refs;
}

/** Registry config pointing at @p metrics with few workers (tests
 *  run many engines; keep each small). */
RegistryConfig
testRegistryConfig(obs::MetricRegistry *metrics)
{
    RegistryConfig cfg;
    cfg.engine.workers = 2;
    cfg.registry = metrics;
    return cfg;
}

/** Save @p seed's checkpoint under gtest's temp dir. */
std::string
saveTempCheckpoint(const std::string &stem, uint64_t seed)
{
    const std::string path =
        (std::filesystem::path(testing::TempDir()) /
         (stem + ".ckpt"))
            .string();
    const io::Checkpoint ckpt = surrogateCheckpoint(seed);
    io::saveCheckpoint(path, ckpt.model.get(), &*ckpt.dist,
                       &*ckpt.table);
    return path;
}

TEST(ModelRegistry, ServesBitExactAgainstReference)
{
    obs::MetricRegistry metrics;
    ModelRegistry registry(testRegistryConfig(&metrics));
    const io::ModelSnapshot artifact = artifactWithSeed(5);
    const auto texts = corpusTexts(12, 0x11a);
    const auto refs = references(artifact, texts);

    registry.load("haswell", artifact);
    EXPECT_EQ(registry.size(), 1u);
    const auto engine = registry.acquire("haswell");
    for (size_t i = 0; i < texts.size(); ++i)
        EXPECT_TRUE(sameBits(engine->predict(texts[i]), refs[i]))
            << "request " << i;
}

TEST(ModelRegistry, UnknownNameThrowsAndFindReturnsNull)
{
    obs::MetricRegistry metrics;
    ModelRegistry registry(testRegistryConfig(&metrics));
    EXPECT_EQ(registry.find("nope"), nullptr);
    EXPECT_THROW(registry.acquire("nope"), UnknownModelError);
    registry.load("a", artifactWithSeed(5));
    // The error names what *is* serving, for operators.
    try {
        registry.acquire("nope");
        FAIL() << "acquire should have thrown";
    } catch (const UnknownModelError &error) {
        EXPECT_NE(std::string(error.what()).find("a"),
                  std::string::npos);
    }
}

TEST(ModelRegistry, RejectsMetricUnsafeNames)
{
    obs::MetricRegistry metrics;
    ModelRegistry registry(testRegistryConfig(&metrics));
    EXPECT_THROW(registry.load("bad name", artifactWithSeed(5)),
                 std::runtime_error);
    EXPECT_THROW(registry.load("", artifactWithSeed(5)),
                 std::runtime_error);
    EXPECT_EQ(registry.size(), 0u);
}

TEST(ModelRegistry, SwapKeepsAcquiredEngineAlive)
{
    obs::MetricRegistry metrics;
    ModelRegistry registry(testRegistryConfig(&metrics));
    const io::ModelSnapshot a = artifactWithSeed(5);
    const io::ModelSnapshot b = artifactWithSeed(9);
    const auto texts = corpusTexts(6, 0x22b);
    const auto refA = references(a, texts);
    const auto refB = references(b, texts);

    registry.load("m", a);
    const auto old_engine = registry.acquire("m");
    registry.load("m", b); // hot-swap
    EXPECT_EQ(registry.swaps(), 1u);

    // The pre-swap reference still answers, from the *old* weights
    // — exactly what an in-flight request sees mid-swap.
    for (size_t i = 0; i < texts.size(); ++i)
        EXPECT_TRUE(sameBits(old_engine->predict(texts[i]), refA[i]));
    // A fresh acquire gets the new weights.
    const auto new_engine = registry.acquire("m");
    EXPECT_NE(new_engine.get(), old_engine.get());
    for (size_t i = 0; i < texts.size(); ++i)
        EXPECT_TRUE(sameBits(new_engine->predict(texts[i]), refB[i]));
}

TEST(ModelRegistry, FailedSwapLeavesLiveEngineServing)
{
    obs::MetricRegistry metrics;
    ModelRegistry registry(testRegistryConfig(&metrics));
    const io::ModelSnapshot a = artifactWithSeed(5);
    const auto texts = corpusTexts(4, 0x33c);
    const auto refA = references(a, texts);

    registry.load("m", a);
    EXPECT_THROW(
        registry.loadFromFile("m", "/nonexistent/path.ckpt"),
        std::exception);
    // Fail closed: the old engine never stopped serving.
    EXPECT_EQ(registry.swaps(), 0u);
    const auto engine = registry.acquire("m");
    for (size_t i = 0; i < texts.size(); ++i)
        EXPECT_TRUE(sameBits(engine->predict(texts[i]), refA[i]));
}

TEST(ModelRegistry, RemoveAndNames)
{
    obs::MetricRegistry metrics;
    ModelRegistry registry(testRegistryConfig(&metrics));
    registry.load("b", artifactWithSeed(5));
    registry.load("a", artifactWithSeed(9));
    EXPECT_EQ(registry.names(),
              (std::vector<std::string>{"a", "b"}));
    EXPECT_TRUE(registry.remove("a"));
    EXPECT_FALSE(registry.remove("a"));
    EXPECT_EQ(registry.size(), 1u);
}

TEST(ModelRegistry, ReloadAfterRemoveNeverReusesMetricGeneration)
{
    // Generations are monotonic per name and survive remove(): a
    // removed-but-still-referenced engine must never share a metric
    // prefix (and thus Counter objects) with its reloaded successor.
    obs::MetricRegistry metrics;
    ModelRegistry registry(testRegistryConfig(&metrics));
    const auto texts = corpusTexts(2, 0x99a);

    registry.load("m", artifactWithSeed(5)); // g0
    const auto old_engine = registry.acquire("m");
    EXPECT_TRUE(registry.remove("m"));
    registry.load("m", artifactWithSeed(9)); // must be g1, not g0
    const auto new_engine = registry.acquire("m");
    EXPECT_NE(new_engine.get(), old_engine.get());

    old_engine->predict(texts[0]);
    new_engine->predict(texts[0]);
    new_engine->predict(texts[1]);
    if (obs::enabled()) {
        const std::string dump = obs::renderStatsz(metrics);
        const auto g0 =
            obs::statszCounter(dump, "model.m.g0.requests");
        const auto g1 =
            obs::statszCounter(dump, "model.m.g1.requests");
        ASSERT_TRUE(g0.has_value() && g1.has_value());
        EXPECT_EQ(*g0, 1u); // merged telemetry would read 3 here
        EXPECT_EQ(*g1, 2u);
    }
}

TEST(ModelRegistry, DrainRejectsNewWorkButKeepsResolving)
{
    obs::MetricRegistry metrics;
    ModelRegistry registry(testRegistryConfig(&metrics));
    registry.load("m", artifactWithSeed(5));
    registry.drain();
    EXPECT_TRUE(registry.draining());
    // Late acquires still resolve — but the engine refuses intake
    // with the catchable per-request error, not a process fatal.
    const auto engine = registry.acquire("m");
    EXPECT_THROW(engine->submit("NOP\n"), EngineStoppedError);
    EXPECT_THROW(registry.load("x", artifactWithSeed(9)),
                 UnknownModelError);
    registry.drain(); // idempotent
}

/**
 * The tentpole acceptance test: N client threads hammer predict
 * through acquire() while the main thread hot-swaps the model
 * repeatedly. Zero errors are tolerated and every single answer
 * must bit-match one of the two snapshots' sequential references —
 * a swap's only observable effect is *which* of the two it matches.
 * The TSan CI job runs this same test for the data-race angle.
 */
TEST(ModelRegistry, HotSwapUnderConcurrentLoadDropsNothing)
{
    obs::MetricRegistry metrics;
    ModelRegistry registry(testRegistryConfig(&metrics));
    const io::ModelSnapshot a = artifactWithSeed(5);
    const io::ModelSnapshot b = artifactWithSeed(9);
    const auto texts = corpusTexts(10, 0x44d);
    const auto refA = references(a, texts);
    const auto refB = references(b, texts);
    // The two snapshots must actually disagree for the bit-match
    // check below to mean anything.
    for (size_t i = 0; i < texts.size(); ++i)
        ASSERT_FALSE(sameBits(refA[i], refB[i])) << "text " << i;

    registry.load("m", a);
    constexpr int kClients = 4;
    constexpr int kSwaps = 6;
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> errors{0};
    std::atomic<uint64_t> mismatches{0};
    std::atomic<uint64_t> answered{0};
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int t = 0; t < kClients; ++t) {
        clients.emplace_back([&, t] {
            size_t i = size_t(t);
            while (!stop.load(std::memory_order_acquire)) {
                const size_t slot = i++ % texts.size();
                double got = 0.0;
                try {
                    got = registry.acquire("m")->predict(
                        texts[slot]);
                } catch (const std::exception &) {
                    errors.fetch_add(1,
                                     std::memory_order_relaxed);
                    continue;
                }
                answered.fetch_add(1, std::memory_order_relaxed);
                if (!sameBits(got, refA[slot]) &&
                    !sameBits(got, refB[slot]))
                    mismatches.fetch_add(
                        1, std::memory_order_relaxed);
            }
        });
    }
    // Swap back and forth while the clients run: b, a, b, a, b, a —
    // the even number of swaps lands back on `a`.
    for (int s = 0; s < kSwaps; ++s) {
        registry.load("m", s % 2 == 0 ? b : a);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    stop.store(true, std::memory_order_release);
    for (auto &client : clients)
        client.join();

    EXPECT_EQ(errors.load(), 0u);
    EXPECT_EQ(mismatches.load(), 0u);
    EXPECT_GT(answered.load(), 0u);
    EXPECT_EQ(registry.swaps(), uint64_t(kSwaps));
    // Settled state: the final engine serves exactly `a`.
    const auto engine = registry.acquire("m");
    for (size_t i = 0; i < texts.size(); ++i)
        EXPECT_TRUE(sameBits(engine->predict(texts[i]), refA[i]));
}

TEST(Daemon, LoopbackPredictListPingStatsz)
{
    obs::MetricRegistry metrics;
    DaemonConfig cfg;
    cfg.registry = testRegistryConfig(&metrics);
    Daemon daemon(cfg);
    const io::ModelSnapshot artifact = artifactWithSeed(5);
    const auto texts = corpusTexts(8, 0x55e);
    const auto refs = references(artifact, texts);
    daemon.registry().load("haswell", artifact);
    daemon.start();
    ASSERT_GT(daemon.port(), 0);

    DaemonClient client(daemon.port());
    client.ping();
    EXPECT_EQ(client.models(),
              (std::vector<std::string>{"haswell"}));
    // Bit-exactness survives the wire: f64 crosses as its bit
    // pattern, never through decimal text.
    for (size_t i = 0; i < texts.size(); ++i)
        EXPECT_TRUE(
            sameBits(client.predict("haswell", texts[i]), refs[i]))
            << "request " << i;

    // Unknown model: an error *response*; the connection survives.
    EXPECT_THROW(client.predict("zen2", texts[0]), DaemonError);
    client.ping();

    if (obs::enabled()) {
        const std::string dump = client.statsz();
        const auto requests = obs::statszCounter(
            dump, "model.haswell.g0.requests");
        ASSERT_TRUE(requests.has_value());
        EXPECT_EQ(*requests, texts.size());
        const auto hits =
            obs::statszCounter(dump, "model.haswell.g0.hits");
        const auto misses =
            obs::statszCounter(dump, "model.haswell.g0.misses");
        ASSERT_TRUE(hits.has_value() && misses.has_value());
        EXPECT_EQ(*hits + *misses, *requests);
        EXPECT_EQ(*obs::statszCounter(dump, "model.daemon.errors"),
                  1u); // the zen2 miss above
    }
    EXPECT_GE(daemon.requestsServed(), texts.size() + 3);
    EXPECT_EQ(daemon.errorsServed(), 1u);
}

TEST(Daemon, HotSwapOverTheWire)
{
    const std::string path_a = saveTempCheckpoint("daemon_swap_a", 5);
    const std::string path_b = saveTempCheckpoint("daemon_swap_b", 9);
    const auto texts = corpusTexts(5, 0x66f);
    const auto refA =
        references(io::loadModelSnapshot(path_a), texts);
    const auto refB =
        references(io::loadModelSnapshot(path_b), texts);

    obs::MetricRegistry metrics;
    DaemonConfig cfg;
    cfg.registry = testRegistryConfig(&metrics);
    Daemon daemon(cfg);
    daemon.registry().loadFromFile("m", path_a);
    daemon.start();

    DaemonClient client(daemon.port());
    for (size_t i = 0; i < texts.size(); ++i)
        EXPECT_TRUE(sameBits(client.predict("m", texts[i]), refA[i]));
    client.load("m", path_b); // kLoad = hot-swap over the wire
    EXPECT_EQ(daemon.registry().swaps(), 1u);
    for (size_t i = 0; i < texts.size(); ++i)
        EXPECT_TRUE(sameBits(client.predict("m", texts[i]), refB[i]));
    // A bad swap is an error response and changes nothing.
    EXPECT_THROW(client.load("m", "/nonexistent.ckpt"), DaemonError);
    for (size_t i = 0; i < texts.size(); ++i)
        EXPECT_TRUE(sameBits(client.predict("m", texts[i]), refB[i]));
}

TEST(Daemon, ConcurrentClientsWithHotSwapSeeNoErrors)
{
    obs::MetricRegistry metrics;
    DaemonConfig cfg;
    cfg.registry = testRegistryConfig(&metrics);
    Daemon daemon(cfg);
    const io::ModelSnapshot a = artifactWithSeed(5);
    const io::ModelSnapshot b = artifactWithSeed(9);
    const auto texts = corpusTexts(10, 0x770);
    const auto refA = references(a, texts);
    const auto refB = references(b, texts);
    daemon.registry().load("m", a);
    daemon.start();

    // A workload large enough that the mid-run swap lands against
    // live wire traffic.
    std::vector<std::string> workload;
    for (int round = 0; round < 40; ++round)
        for (const auto &text : texts)
            workload.push_back(text);

    std::thread swapper([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        daemon.registry().load("m", b);
    });
    const DaemonClientRun run = runDaemonClients(
        "127.0.0.1", daemon.port(), "m", workload, 4);
    swapper.join();

    EXPECT_EQ(run.errors, 0u);
    ASSERT_EQ(run.predictions.size(), workload.size());
    for (size_t i = 0; i < workload.size(); ++i) {
        const size_t slot = i % texts.size();
        EXPECT_TRUE(sameBits(run.predictions[i], refA[slot]) ||
                    sameBits(run.predictions[i], refB[slot]))
            << "request " << i;
    }
    EXPECT_GT(run.seconds, 0.0);
}

TEST(Daemon, GracefulDrainAnswersEverythingAccepted)
{
    obs::MetricRegistry metrics;
    DaemonConfig cfg;
    cfg.registry = testRegistryConfig(&metrics);
    Daemon daemon(cfg);
    const io::ModelSnapshot artifact = artifactWithSeed(5);
    const auto texts = corpusTexts(6, 0x881);
    const auto refs = references(artifact, texts);
    daemon.registry().load("m", artifact);
    daemon.start();

    std::vector<std::string> workload;
    for (int round = 0; round < 50; ++round)
        for (const auto &text : texts)
            workload.push_back(text);

    // Drain fires while clients are mid-run. Past that point their
    // requests fail (connection closed / kDraining) — but every
    // response that *does* arrive must still be exact, and drain()
    // itself must settle everything and return.
    std::thread drainer([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        daemon.drain();
    });
    const DaemonClientRun run = runDaemonClients(
        "127.0.0.1", daemon.port(), "m", workload, 4);
    drainer.join();
    EXPECT_TRUE(daemon.draining());

    size_t answered = 0;
    for (size_t i = 0; i < workload.size(); ++i) {
        if (std::isnan(run.predictions[i]))
            continue; // rejected by the drain — allowed
        ++answered;
        EXPECT_TRUE(
            sameBits(run.predictions[i], refs[i % texts.size()]))
            << "request " << i;
    }
    EXPECT_EQ(answered + run.errors, workload.size());
    // New connections are refused once drained.
    EXPECT_THROW(
        {
            DaemonClient late(daemon.port());
            late.ping();
        },
        DaemonError);
}

TEST(Daemon, MalformedFramesGetErrorsNotCrashes)
{
    obs::MetricRegistry metrics;
    DaemonConfig cfg;
    cfg.registry = testRegistryConfig(&metrics);
    cfg.maxFrameBytes = 1024;
    Daemon daemon(cfg);
    daemon.registry().load("m", artifactWithSeed(5));
    daemon.start();

    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(daemon.port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);

    // Frame with an unknown opcode: kError response, connection
    // stays up.
    const unsigned char bad_op[] = {1, 0, 0, 0, 0xee};
    ASSERT_EQ(::send(fd, bad_op, sizeof(bad_op), 0),
              ssize_t(sizeof(bad_op)));
    unsigned char header[4];
    ASSERT_EQ(::recv(fd, header, 4, MSG_WAITALL), 4);
    const uint32_t len = uint32_t(header[0]) |
                         (uint32_t(header[1]) << 8) |
                         (uint32_t(header[2]) << 16) |
                         (uint32_t(header[3]) << 24);
    ASSERT_GT(len, 0u);
    ASSERT_LE(len, 1024u);
    std::vector<unsigned char> body(len);
    ASSERT_EQ(::recv(fd, body.data(), len, MSG_WAITALL),
              ssize_t(len));
    EXPECT_EQ(body[0], wire::kError);

    // Truncated predict frame: still an error response.
    const unsigned char truncated[] = {2, 0, 0, 0, wire::kPredict,
                                       9};
    ASSERT_EQ(::send(fd, truncated, sizeof(truncated), 0),
              ssize_t(sizeof(truncated)));
    ASSERT_EQ(::recv(fd, header, 4, MSG_WAITALL), 4);

    // A length prefix past maxFrameBytes: the daemon hangs up
    // rather than allocating it.
    const unsigned char huge[] = {0xff, 0xff, 0xff, 0x7f};
    ASSERT_EQ(::send(fd, huge, sizeof(huge), 0),
              ssize_t(sizeof(huge)));
    // Drain whatever remains of the truncated-frame response, then
    // expect EOF.
    char sink[4096];
    ssize_t got;
    while ((got = ::recv(fd, sink, sizeof(sink), 0)) > 0) {
    }
    EXPECT_EQ(got, 0);
    ::close(fd);

    // The daemon is still healthy for well-formed clients.
    DaemonClient client(daemon.port());
    client.ping();
    EXPECT_GE(daemon.errorsServed(), 2u);
}

TEST(Daemon, OversizedStatszIsAProtocolErrorNotADesync)
{
    if (!obs::enabled())
        GTEST_SKIP() << "statsz dump is empty with obs disabled";
    obs::MetricRegistry metrics;
    DaemonConfig cfg;
    cfg.registry = testRegistryConfig(&metrics);
    cfg.maxFrameBytes = 64; // far below any real metric dump
    Daemon daemon(cfg);
    daemon.registry().load("m", artifactWithSeed(5));
    daemon.start();

    DaemonClient client(daemon.port());
    try {
        client.statsz();
        FAIL() << "statsz should have errored";
    } catch (const DaemonError &error) {
        EXPECT_NE(std::string(error.what()).find("statsz"),
                  std::string::npos);
    }
    // kError keeps the connection usable — the old behavior sent a
    // frame over the limit, which desynced the connection.
    client.ping();
}

TEST(DaemonClient, RejectsOverlongModelNamesBeforeSending)
{
    obs::MetricRegistry metrics;
    DaemonConfig cfg;
    cfg.registry = testRegistryConfig(&metrics);
    Daemon daemon(cfg);
    daemon.start();

    // A name past the u16 length field used to truncate silently,
    // desyncing the frame; now the client refuses to encode it.
    DaemonClient client(daemon.port());
    const std::string huge(70000, 'x');
    EXPECT_THROW(client.predict(huge, "NOP\n"), DaemonError);
    EXPECT_THROW(client.load(huge, "/tmp/none.ckpt"), DaemonError);
    client.ping(); // the bad frames were never sent
}

TEST(Workload, LatencyFromEmptyHistogramIsAllZero)
{
    // Satellite of the serving-contract fixes: percentile stats of
    // a histogram that recorded nothing must be explicit zeros (the
    // old code asked an empty snapshot for p50/p95/p99 directly).
    obs::LatencyHistogram hist;
    const LatencyStats stats = latencyFromHistogram(hist);
    EXPECT_EQ(stats.p50, 0.0);
    EXPECT_EQ(stats.p95, 0.0);
    EXPECT_EQ(stats.p99, 0.0);

    hist.recordSeconds(1e-3);
    const LatencyStats one = latencyFromHistogram(hist);
    EXPECT_GT(one.p50, 0.0);
    EXPECT_GT(one.p99, 0.0);
}

} // namespace
} // namespace difftune::serve
