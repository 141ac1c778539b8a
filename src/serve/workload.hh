/**
 * @file
 * Synthetic serving workloads and the client harnesses (naive vs
 * batched throughput, multi-client async, daemon clients) shared by
 * bench/bench_serve, the difftune_serve CLI's `bench` command, the
 * difftuned CLI's `client` command and tests/test_serve_daemon, so
 * they all report the same experiment.
 */

#ifndef DIFFTUNE_SERVE_WORKLOAD_HH
#define DIFFTUNE_SERVE_WORKLOAD_HH

#include <chrono>

#include "bhive/corpus.hh"
#include "obs/metrics.hh"
#include "serve/async_engine.hh"

namespace difftune::serve
{

/** Elapsed wall-clock seconds between two steady_clock points. */
inline double
secondsBetween(std::chrono::steady_clock::time_point begin,
               std::chrono::steady_clock::time_point end)
{
    return std::chrono::duration<double>(end - begin).count();
}

/**
 * A power-law request stream over the first @p unique blocks of
 * @p corpus: low ranks dominate, approximating serving traffic where
 * a small working set receives most requests.
 */
std::vector<std::string> powerLawWorkload(const bhive::Corpus &corpus,
                                          size_t requests,
                                          size_t unique, uint64_t seed);

/** Wall-clock results of compareThroughput / engineVsNaive. */
struct ThroughputComparison
{
    double naiveSeconds = 0.0;  ///< predictUncached per request
    double engineSeconds = 0.0; ///< wave-batched predictAll

    double speedup() const { return naiveSeconds / engineSeconds; }
};

/**
 * One timed pass of the naive reference path (parse + encode + one
 * fresh double-precision graph per request) with its per-request
 * predictions, reusable across several engine comparisons.
 */
struct NaiveRun
{
    std::vector<double> predictions;
    double seconds = 0.0;
};

/** Run and time the naive reference over @p workload. */
NaiveRun runNaive(const AsyncEngine &engine,
                  const std::vector<std::string> &workload);

/**
 * Run @p workload through the batched engine in waves of @p wave
 * requests (as a serving endpoint would) and check every prediction
 * bit-exact against @p naive. Fatal on any mismatch. The engine's
 * caches are expected cold on entry.
 */
ThroughputComparison
engineVsNaive(AsyncEngine &engine,
              const std::vector<std::string> &workload,
              const NaiveRun &naive, size_t wave = 250);

/**
 * runNaive + engineVsNaive in one call (the naive pass runs first,
 * so the engine's cache starts cold).
 */
ThroughputComparison
compareThroughput(AsyncEngine &engine,
                  const std::vector<std::string> &workload,
                  size_t wave = 250);

/**
 * Request-latency percentiles of an async client run (seconds).
 * Estimated from an obs::LatencyHistogram the client threads record
 * into wait-free (no per-thread latency vectors, no final sort), so
 * each value is within LatencyHistogram::kMaxRelativeError (6.25%)
 * of the exact order statistic.
 */
struct LatencyStats
{
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
};

/**
 * Percentiles of @p hist converted to seconds, or all zeros when the
 * histogram recorded no samples: an empty histogram has no order
 * statistics, and reporting explicit zeros beats asking a snapshot
 * with count() == 0 for its p99 (callers used to do exactly that —
 * every latency consumer now goes through this guard).
 */
LatencyStats latencyFromHistogram(const obs::LatencyHistogram &hist);

/**
 * Results of compareAsyncClients: a single-caller synchronous pass
 * versus @p threads concurrent client threads submitting through
 * the AsyncEngine micro-batcher. Both passes serve the full
 * workload on a fresh engine (cold caches).
 */
struct AsyncClientComparison
{
    double singleSeconds = 0.0; ///< 1 thread, sync predict/request
    double asyncSeconds = 0.0;  ///< threads x async submit + get
    int threads = 0;
    LatencyStats latency; ///< async per-request submit-to-get time

    /** Aggregate multi-client speedup over single-caller. */
    double speedup() const { return singleSeconds / asyncSeconds; }
};

/**
 * Measure what the micro-batcher buys concurrent traffic: one
 * client thread calling the synchronous path block-at-a-time versus
 * @p threads client threads each submitting its interleaved share
 * of @p workload through AsyncEngine::submit and blocking on the
 * future (at most @p threads requests in flight, as with real
 * users). Each pass runs on a fresh engine built from @p artifact —
 * the engines share @p artifact's WeightSnapshot, so the comparison
 * also exercises cross-engine weight sharing. Every prediction of
 * both passes is checked bit-exact against @p reference (fatal on a
 * mismatch).
 */
AsyncClientComparison
compareAsyncClients(const io::ModelSnapshot &artifact,
                    const std::vector<std::string> &workload,
                    int threads, const NaiveRun &reference,
                    const AsyncConfig &config = {});

/**
 * Results of runDaemonClients: one prediction slot per request
 * (errored requests hold NaN so they can never bit-match a
 * reference), plus the error count and wall-clock timing.
 */
struct DaemonClientRun
{
    std::vector<double> predictions; ///< request-indexed; NaN = error
    uint64_t errors = 0;  ///< requests the daemon answered non-kOk
    double seconds = 0.0; ///< whole-run wall clock
    LatencyStats latency; ///< per-request round-trip time
};

/**
 * Drive a running difftuned over loopback TCP: @p threads client
 * connections (one DaemonClient each) split @p workload interleaved
 * — thread t owns requests t, t + threads, ... — and block on each
 * response before the next request. The shared harness behind
 * test_serve_daemon, bench_serve's daemon section and the
 * `difftuned client` command, so all three measure the same traffic
 * shape as compareAsyncClients' in-process pass.
 */
DaemonClientRun
runDaemonClients(const std::string &host, uint16_t port,
                 const std::string &model,
                 const std::vector<std::string> &workload,
                 int threads);

} // namespace difftune::serve

#endif // DIFFTUNE_SERVE_WORKLOAD_HH
