/**
 * @file
 * The benchmark's workloads and the inputs each draws from its seed.
 * See README.md in this directory for why each was chosen and which
 * layer metric should move which end-to-end metric.
 *
 *  - tune:       one DiffTune run for Haswell on XMca (the paper's
 *                pipeline), evaluated on the held-out test split.
 *  - serve_miss: one caller sweeping a cache-busting trace through
 *                AsyncEngine::predictAll in chunks (batched forward).
 *
 * The per-request path (AsyncEngine::submit clients and the Daemon
 * wire, over the cache-resident "hot" trace) is timed in serve_miss's
 * traced run as a layer probe.
 */

#ifndef PERFBENCH_LIB_WORKLOADS_HH
#define PERFBENCH_LIB_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "lab/trace.hh"
#include "lib/report.hh"

namespace perfbench
{

/** One invocation's settings. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Directory for the checkpoint and the span file. */
    std::string workdir = ".";
    std::string gitSha = "unknown";
};

/** Workload names, in run order. */
const std::vector<std::string> &workloadNames();

/** An independent 64-bit seed for input stream @p stream. */
uint64_t deriveSeed(uint64_t seed, uint64_t stream);

/**
 * Train/valid/test split seed of the tune workload's dataset. The
 * corpus itself is fixed; the seed draws the split and the run.
 */
uint64_t tuneSplitSeed(uint64_t seed);

/**
 * The request-path probe's trace: zipf 1.1, respell 0.25, over a
 * fixed ~2k-block corpus; the seed draws the request stream.
 */
difftune::lab::TraceConfig hotTraceConfig(uint64_t seed,
                                          uint64_t requests);

/** serve_miss trace: zipf 0.6, no respelling, over a fixed ~32k-block
 *  corpus; the seed draws the request stream. */
difftune::lab::TraceConfig missTraceConfig(uint64_t seed,
                                           uint64_t requests);

/**
 * Run @p options.workload and return its record: the end-to-end
 * metrics untraced, the per-layer metrics when traced.
 */
Report runWorkload(const Options &options);

} // namespace perfbench

#endif // PERFBENCH_LIB_WORKLOADS_HH
