/**
 * @file
 * Traffic-lab benchmark: deterministic trace generation, the cache-
 * policy sweep, and worker-pool replay throughput.
 *
 * Three sections (docs/TRAFFIC_LAB.md):
 *
 *  1. Trace generation — how fast lab::TraceWorkload materializes a
 *     Zipf-skewed bursty request stream, plus a serialize ->
 *     deserialize -> serialize round trip that must be byte-exact
 *     (the replayability contract; always enforced).
 *
 *  2. Policy sweep — lab::CacheSim replays the identical key stream
 *     against every registered policy. On a skewed trace
 *     (zipf s >= 1.0) the segmented and admission policies must not
 *     lose to plain LRU on hit rate; the sweep is fully
 *     deterministic, so the floor is enforced in every mode, not
 *     just --smoke.
 *
 *  3. Worker-pool replay — the same trace served end-to-end
 *     through serve::AsyncEngine with AsyncConfig::workers 1 vs N.
 *     Predictions must be bit-identical across pool sizes (always
 *     enforced); under --smoke on >= 2 cores the pool must reach at
 *     least 1.0x the single-worker throughput (best pair of
 *     interleaved passes, so a scheduler burst cannot fail the
 *     floor by itself). On a 1-core runner the throughput floor is
 *     skipped — pool workers would just time-slice.
 */

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.hh"
#include "core/experiment.hh"
#include "hw/default_table.hh"
#include "isa/intern.hh"
#include "lab/cache_sim.hh"
#include "lab/policy.hh"
#include "lab/trace.hh"
#include "obs/metrics.hh"
#include "serve/async_engine.hh"
#include "surrogate/model.hh"

namespace
{

using namespace difftune;

/**
 * Pool throughput floor (--smoke, >= 2 cores): a pool of N
 * workers must not serve the replay slower than a single worker.
 * Modest by design — the pool's job is to scale
 * concurrent miss traffic without taxing anything else.
 */
constexpr double poolThroughputFloor = 1.0;

/** Interleaved single/pool timing pairs for the pool floor. */
constexpr int poolPasses = 3;

double
secondsSince(const std::chrono::steady_clock::time_point &begin)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - begin)
        .count();
}

} // namespace

int
main(int argc, char **argv)
{
    const bool smoke = difftune::bench::parseBenchArgs(argc, argv);
    setVerbose(false);
    bool floors_ok = true;
    const int rc = bench::runBench(
        "bench_lab: trace generation, cache-policy sweep, and "
        "worker-pool replay",
        "serving-traffic extension (train once, serve many; Renda "
        "et al. 2021)",
        [&] {
            // ---- 1. Trace generation + round trip.
            lab::TraceConfig tcfg;
            tcfg.seed = 42;
            tcfg.corpusSeed = 9;
            tcfg.corpusTarget = 256;
            tcfg.requests = uint64_t(scaledCount(40000, 4000));
            tcfg.zipfSkew = 1.1;
            tcfg.respellProb = 0.25;

            const auto gen_begin = std::chrono::steady_clock::now();
            const lab::TraceWorkload trace =
                lab::TraceWorkload::generate(tcfg);
            const double gen_s = secondsSince(gen_begin);

            const std::string blob = trace.serialize();
            const bool round_trip =
                lab::TraceWorkload::deserialize(blob).serialize() ==
                blob;

            TextTable gen_table({"Trace", "Value", "Notes"});
            gen_table.addRow(
                {"requests",
                 std::to_string(trace.requests().size()),
                 "zipf " + fmtDouble(tcfg.zipfSkew, 1) + ", " +
                     std::to_string(trace.corpusTexts().size()) +
                     " distinct blocks"});
            gen_table.addRow(
                {"generation",
                 fmtDouble(double(trace.requests().size()) / gen_s /
                               1e6,
                           2) +
                     " Mreq/s",
                 "corpus + stream + arrivals"});
            gen_table.addRow(
                {"serialized size", std::to_string(blob.size()) +
                                        " bytes",
                 fmtDouble(double(blob.size()) /
                               double(trace.requests().size()),
                           1) +
                     " bytes/request"});
            gen_table.addRow({"round trip",
                              round_trip ? "byte-exact" : "DIVERGED",
                              "gate: byte-exact"});
            std::cout << gen_table.render() << "\n";
            if (!round_trip) {
                std::fprintf(stderr,
                             "FAIL: trace serialize round trip is "
                             "not byte-exact\n");
                floors_ok = false;
            }

            // ---- 2. Policy sweep (deterministic; floor always on).
            constexpr size_t sweepCapacity = 64;
            obs::MetricRegistry scratch;
            const std::vector<lab::SimResult> sweep =
                lab::sweepPolicies(trace, sweepCapacity, scratch);
            std::cout << "policy sweep, capacity " << sweepCapacity
                      << ":\n"
                      << lab::simTableHeader() << "\n";
            double lru_rate = 0.0;
            for (const lab::SimResult &result : sweep) {
                std::cout << result.row() << "\n";
                if (result.policy == "lru")
                    lru_rate = result.hitRate;
            }
            std::cout << "\n";
            for (const lab::SimResult &result : sweep) {
                if (result.policy == "lru")
                    continue;
                if (result.hitRate < lru_rate) {
                    std::fprintf(
                        stderr,
                        "FAIL: policy %s hit rate %.4f is under "
                        "plain LRU's %.4f on a zipf %.1f trace\n",
                        result.policy.c_str(), result.hitRate,
                        lru_rate, tcfg.zipfSkew);
                    floors_ok = false;
                }
            }

            // ---- 3. Worker-pool replay. A small cache keeps
            // miss traffic flowing (pool parallelism only matters on
            // the forward path; front-cache hits resolve inline in
            // the submitting thread either way).
            const params::SamplingDist dist =
                params::SamplingDist::full();
            const core::ParamNormalizer norm(dist);
            surrogate::ModelConfig mcfg;
            mcfg.hidden = core::ExperimentScale::fromEnv().hidden;
            mcfg.embedDim = core::ExperimentScale::fromEnv().embed;
            mcfg.tokenLayers = 1;
            mcfg.blockLayers = 2;
            mcfg.paramDim = norm.paramDim();
            surrogate::Model model(mcfg, isa::theVocab().size());
            const params::ParamTable table =
                hw::defaultTable(hw::Uarch::Haswell);
            const std::string path =
                core::cacheDir() + "/bench_lab.ckpt";
            io::saveCheckpoint(path, &model, &dist, &table);
            const io::ModelSnapshot artifact =
                io::loadModelSnapshot(path);

            const std::vector<std::string> texts =
                trace.requestTexts();
            const auto replay = [&](int workers,
                                    std::vector<uint64_t> *bits,
                                    double &seconds) {
                serve::AsyncConfig acfg;
                acfg.workers = workers;
                acfg.cachePolicy = lab::policyFactory("slru");
                acfg.cacheCapacity = 32;
                serve::AsyncEngine engine(artifact, acfg);
                std::vector<std::future<double>> futures;
                futures.reserve(texts.size());
                const auto begin = std::chrono::steady_clock::now();
                for (const std::string &text : texts)
                    futures.push_back(engine.submit(text));
                if (bits) {
                    bits->clear();
                    bits->reserve(futures.size());
                    for (auto &f : futures)
                        bits->push_back(
                            std::bit_cast<uint64_t>(f.get()));
                } else {
                    for (auto &f : futures)
                        f.get();
                }
                seconds = secondsSince(begin);
            };

            const unsigned cores =
                std::thread::hardware_concurrency();
            const int pool = int(std::min(4u, std::max(2u, cores)));

            // Bit-stability across pool sizes: always enforced (the
            // determinism contract — pool size may only change
            // speed). The first pair also seeds the timing floor.
            std::vector<uint64_t> single_bits, pool_bits;
            double single_s = 0.0, pool_s = 0.0;
            double best_single = 1e300, best_pool = 1e300;
            double best_ratio = 0.0;
            bool pool_first = false;
            for (int pass = 0; pass < poolPasses; ++pass) {
                if (pool_first) {
                    replay(pool, pass == 0 ? &pool_bits : nullptr,
                           pool_s);
                    replay(1, pass == 0 ? &single_bits : nullptr,
                           single_s);
                } else {
                    replay(1, pass == 0 ? &single_bits : nullptr,
                           single_s);
                    replay(pool, pass == 0 ? &pool_bits : nullptr,
                           pool_s);
                }
                pool_first = !pool_first;
                best_single = std::min(best_single, single_s);
                best_pool = std::min(best_pool, pool_s);
                best_ratio =
                    std::max(best_ratio, single_s / pool_s);
            }
            const bool bits_match = single_bits == pool_bits;

            TextTable pt({"Replay", "Throughput", "Notes"});
            pt.addRow(
                {"1 worker",
                 fmtDouble(double(texts.size()) / best_single, 0) +
                     " req/s",
                 "slru policy, capacity 32"});
            pt.addRow(
                {std::to_string(pool) + " workers",
                 fmtDouble(double(texts.size()) / best_pool, 0) +
                     " req/s",
                 "striped intake + idle-steal"});
            pt.addRow({"pool / single",
                       fmtDouble(best_ratio, 2) + "x",
                       cores < 2 ? "floor skipped (1-core runner)"
                       : smoke   ? "smoke floor: 1.0x"
                                 : "floor: 1.0x (BENCHMARKS.md)"});
            pt.addRow({"bits across pool sizes",
                       bits_match ? "identical" : "DIVERGED",
                       "gate: identical"});
            std::cout << pt.render();
            std::cout << "(best of " << poolPasses
                      << " interleaved pairs, " << texts.size()
                      << " requests)\n";

            if (!bits_match) {
                std::fprintf(stderr,
                             "FAIL: %d workers diverged from the "
                             "single-worker bits\n",
                             pool);
                floors_ok = false;
            }
            if (smoke && cores >= 2 &&
                best_ratio < poolThroughputFloor) {
                std::fprintf(stderr,
                             "FAIL: pool/single throughput ratio "
                             "%.2fx is under the %.1fx smoke "
                             "floor\n",
                             best_ratio, poolThroughputFloor);
                floors_ok = false;
            }
        });
    return rc != 0 ? rc : (floors_ok ? 0 : 1);
}
