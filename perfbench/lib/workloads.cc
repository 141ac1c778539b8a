/**
 * @file
 * The workloads (see workloads.hh and README.md).
 *
 * Every run sets up several times and reports the median set-up
 * time, warms caches untimed, measures for the requested seconds,
 * and then checks its outputs. A traced run measures for half the
 * time without spans and half with them, so the tracing overhead
 * comes from one process; then it times each layer's public entry
 * points directly and writes its spans to the work directory.
 */

#include "lib/workloads.hh"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <iterator>
#include <map>
#include <memory>
#include <thread>

#include "base/env.hh"
#include "base/logging.hh"
#include "base/random.hh"
#include "bhive/corpus.hh"
#include "bhive/dataset.hh"
#include "core/difftune.hh"
#include "core/evaluate.hh"
#include "core/experiment.hh"
#include "core/raw_table.hh"
#include "hw/default_table.hh"
#include "io/checkpoint.hh"
#include "io/snapshot.hh"
#include "isa/intern.hh"
#include "isa/parse.hh"
#include "isa/tokens.hh"
#include "lab/cache_sim.hh"
#include "lib/env.hh"
#include "lib/stats.hh"
#include "lib/trace.hh"
#include "mca/xmca.hh"
#include "nn/batched.hh"
#include "nn/graph.hh"
#include "nn/matvec_dispatch.hh"
#include "nn/modules.hh"
#include "obs/metrics.hh"
#include "serve/async_engine.hh"
#include "serve/daemon.hh"
#include "surrogate/model.hh"

namespace perfbench
{

using namespace difftune;

namespace
{

constexpr hw::Uarch kUarch = hw::Uarch::Haswell;

/**
 * Each workload's block population is fixed, like the paper's BHive
 * dataset, and the seed draws the traffic over it (the split and the
 * training randomness for tune, the request stream for serving):
 * corpora drawn per seed moved a tuning job's cost by ~15% from seed
 * to seed. The tune corpus seed is the one core::sharedCorpus uses.
 */
constexpr uint64_t kTuneCorpusSeed = 0xb41c5eed;
constexpr uint64_t kHotCorpusSeed = 0x407c0;
constexpr uint64_t kMissCorpusSeed = 0x3155c0;

/** Set-up repetitions per run (the median is reported). */
constexpr int kTuneSetups = 9;
constexpr int kServeSetups = 9;

/**
 * A serving run's timing is split into rounds, and each round into
 * slices; throughput and median latency are medians over the slices,
 * the tail latency is the median over rounds of each round's tail.
 */
constexpr int kServeRounds = 10;
constexpr int kSlicesPerRound = 4;

/** Trace lengths (cycled when a run outlasts them) and warm-up. */
constexpr uint64_t kHotRequests = 65536;
constexpr uint64_t kHotWarm = 8192;
constexpr uint64_t kMissRequests = 262144;
constexpr uint64_t kMissWarm = 32768; ///< 4x the default capacity
constexpr size_t kMissChunk = 256;    ///< difftune compare's chunk

/** Distinct blocks re-checked bit-exact against predictUncached. */
constexpr size_t kExactSample = 128;

/** Time budget of each traced-run layer probe. */
constexpr double kProbeSeconds = 0.2;
constexpr double kRequestProbeSeconds = 2.0;

double
secondsSince(double start)
{
    return wallSeconds() - start;
}

double
ratioOf(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** FNV-1a over @p bytes, as 16 hex digits. */
std::string
digest(const std::string &bytes)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (const unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx", (unsigned long long)h);
    return buf;
}

std::string
fmt(const char *format, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, format, v);
    return buf;
}

/**
 * Call @p body repeatedly for about @p seconds (at least once) and
 * return the mean seconds per call.
 */
template <class Body>
double
timePerCall(double seconds, Body body)
{
    const double start = wallSeconds();
    size_t calls = 0;
    double elapsed = 0.0;
    do {
        for (int i = 0; i < 16; ++i)
            body();
        calls += 16;
        elapsed = secondsSince(start);
    } while (elapsed < seconds);
    return elapsed / double(calls);
}

// ---------------------------------------------------------------------
// The standard serving checkpoint.

/** The DiffTune parameter-input surrogate at the standard shape. */
surrogate::ModelConfig
standardModelConfig()
{
    surrogate::ModelConfig cfg;
    cfg.hidden = 64;
    cfg.embedDim = 32;
    cfg.tokenLayers = 1;
    cfg.blockLayers = 2;
    cfg.paramDim =
        core::ParamNormalizer(params::SamplingDist::full()).paramDim();
    return cfg;
}

/** Write the standard checkpoint (seeded initial weights, default
 *  Haswell table, full sampling distribution) to @p path. */
void
writeStandardCheckpoint(const std::string &path)
{
    const surrogate::Model model(standardModelConfig(),
                                 isa::theVocab().size());
    const params::SamplingDist dist = params::SamplingDist::full();
    const params::ParamTable table = hw::defaultTable(kUarch);
    io::saveCheckpoint(path, &model, &dist, &table);
}

// ---------------------------------------------------------------------
// Telemetry readers.

const obs::MetricRegistry::Sample *
findSample(const std::vector<obs::MetricRegistry::Sample> &samples,
           const std::string &suffix)
{
    for (const auto &s : samples) {
        if (s.name.size() >= suffix.size() &&
            s.name.compare(s.name.size() - suffix.size(), suffix.size(),
                           suffix) == 0)
            return &s;
    }
    return nullptr;
}

obs::HistogramSnapshot
histogramOf(const obs::MetricRegistry &registry, const std::string &suffix)
{
    const auto samples = registry.samples();
    const auto *s = findSample(samples, suffix);
    return s && s->kind == obs::MetricKind::kHistogram
               ? s->hist
               : obs::HistogramSnapshot{};
}

uint64_t
globalCounter(const std::string &name)
{
    const auto samples = obs::MetricRegistry::global().samples();
    for (const auto &s : samples) {
        if (s.name == name)
            return s.counterValue;
    }
    return 0;
}

/** On a quiescent engine, requests == text_hits + text_misses ==
 *  hits + misses. */
void
checkInvariant(Report &report, const serve::AsyncEngine &engine)
{
    const serve::ServeStats &s = engine.stats();
    const uint64_t text_sum = s.textHits.load() + s.textMisses.load();
    const uint64_t hit_sum = s.hits.load() + s.misses.load();
    report.attempt();
    if (s.requests.load() != text_sum || s.requests.load() != hit_sum) {
        report.fail("quiescent engine: requests " +
                    std::to_string(s.requests.load()) +
                    " != text_hits + text_misses " +
                    std::to_string(text_sum) + " or hits + misses " +
                    std::to_string(hit_sum));
    }
}

/** Stage histograms the telemetry reports read. */
constexpr const char *kStages[] = {
    ".stage.parse_ns",   ".stage.intern_ns",     ".stage.pred_cache_ns",
    ".stage.encode_ns",  ".stage.forward_ns",    ".stage.queue_wait_ns",
    ".stage.coalesce_ns", ".request_ns",         ".batch_size"};

/**
 * An engine's ServeStats, its stage histograms and the process-wide
 * predictBatch counters at one instant; since() gives the change over
 * an interval, so warm-up traffic stays out of the ratios.
 */
struct Telemetry
{
    uint64_t requests = 0, textHits = 0, textMisses = 0, hits = 0,
             forwards = 0, internHits = 0, encodeHits = 0;
    uint64_t instCacheHits = 0, tokenLanes = 0;
    std::map<std::string, obs::HistogramSnapshot> stages;

    static Telemetry
    read(const serve::AsyncEngine &engine,
         const obs::MetricRegistry &registry)
    {
        const serve::ServeStats &s = engine.stats();
        Telemetry t;
        t.requests = s.requests.load();
        t.textHits = s.textHits.load();
        t.textMisses = s.textMisses.load();
        t.hits = s.hits.load();
        t.forwards = s.forwards.load();
        t.internHits = s.internHits.load();
        t.encodeHits = s.encodeHits.load();
        t.instCacheHits =
            globalCounter("surrogate.predict_batch.inst_cache_hits");
        t.tokenLanes = globalCounter("surrogate.predict_batch.token_lanes");
        for (const char *stage : kStages)
            t.stages[stage] = histogramOf(registry, stage);
        return t;
    }

    Telemetry
    since(const Telemetry &before) const
    {
        Telemetry d = *this;
        d.requests -= before.requests;
        d.textHits -= before.textHits;
        d.textMisses -= before.textMisses;
        d.hits -= before.hits;
        d.forwards -= before.forwards;
        d.internHits -= before.internHits;
        d.encodeHits -= before.encodeHits;
        d.instCacheHits -= before.instCacheHits;
        d.tokenLanes -= before.tokenLanes;
        for (auto &[name, hist] : d.stages) {
            const obs::HistogramSnapshot &b = before.stages.at(name);
            for (size_t i = 0; i < hist.counts.size() && i < b.counts.size();
                 ++i)
                hist.counts[i] -= b.counts[i];
            hist.sum -= b.sum;
        }
        return d;
    }

    const obs::HistogramSnapshot &
    stage(const char *name) const
    {
        return stages.at(name);
    }
};

/** The miss path's cache and forward figures (serve_miss). */
void
reportCacheTelemetry(Report &report, const Telemetry &t)
{
    const double requests = double(t.requests);
    const std::string base = "of " + std::to_string(t.requests) +
                             " timed requests";
    report.set("serve.hit_ratio", ratioOf(double(t.hits), requests),
               "either cache, " + base);
    report.set("serve.forwards_per_request",
               ratioOf(double(t.forwards), requests), base);
    report.set("serve.encode_hit_ratio",
               ratioOf(double(t.encodeHits), double(t.forwards)),
               "of " + std::to_string(t.forwards) + " forwards");
    report.set("serve.forward_us_per_block",
               ratioOf(1e-3 * double(t.stage(".stage.forward_ns").sum),
                       double(t.forwards)),
               "forward_ns sum / " + std::to_string(t.forwards) +
                   " forwards");
    const double lookups = double(t.instCacheHits + t.tokenLanes);
    report.set("surrogate.inst_cache_hit_ratio",
               ratioOf(double(t.instCacheHits), lookups),
               "hits / (hits + token lanes run), " +
                   fmt("%.0f", lookups) + " lookups");
}

/** The request path's front-end and dispatcher figures (submit). */
void
reportDispatchTelemetry(Report &report, const Telemetry &t)
{
    report.set("serve.text_hit_ratio",
               ratioOf(double(t.textHits), double(t.requests)),
               "of " + std::to_string(t.requests) + " timed requests");
    report.set("isa.intern_hit_ratio",
               ratioOf(double(t.internHits), double(t.textMisses)),
               "engine interner, of " + std::to_string(t.textMisses) +
                   " parses");
    const auto &batch = t.stage(".batch_size");
    report.set("serve.batch_size_mean", batch.mean(),
               "requests per dispatcher micro-batch, n=" +
                   std::to_string(batch.count()));
    const auto &wait = t.stage(".stage.queue_wait_ns");
    report.set("serve.queue_wait_p50_ns", wait.percentile(0.5),
               "n=" + std::to_string(wait.count()));
    report.set("serve.queue_wait_p99_ns", wait.percentile(0.99),
               "n=" + std::to_string(wait.count()));
    const auto &coalesce = t.stage(".stage.coalesce_ns");
    report.set("serve.coalesce_p50_ns", coalesce.percentile(0.5),
               "n=" + std::to_string(coalesce.count()));
    double stage_sum = 0.0;
    for (const char *stage : kStages) {
        const std::string name = stage;
        if (name.rfind(".stage.", 0) == 0)
            stage_sum += double(t.stage(stage).sum);
    }
    const auto &request = t.stage(".request_ns");
    report.set("serve.stage_accounted_ratio",
               ratioOf(stage_sum, double(request.sum)),
               "stage sums / request_ns sum (" +
                   std::to_string(request.count()) + " requests)");
}

// ---------------------------------------------------------------------
// Layer probes of the traced run: each times a layer's public entry
// points directly, on this workload's blocks.

/** nn kernels, the standard model's autograd step and its batched
 *  forward over @p blocks (at least one). */
void
probeNn(Report &report, const serve::AsyncEngine &engine,
        const std::vector<isa::BasicBlock> &blocks)
{
    {
        ScopedSpan span("nn.matvec64");
        constexpr int n = 64;
        Rng rng(11);
        std::vector<double> w(size_t(n) * n), x(n), out(n);
        for (double &v : w)
            v = rng.uniformReal() - 0.5;
        for (double &v : x)
            v = rng.uniformReal() - 0.5;
        const nn::MatvecKernels &k = nn::matvecKernels();
        const double s = timePerCall(kProbeSeconds, [&] {
            k.f64(w.data(), x.data(), out.data(), n, n);
            x[0] = out[1] * 1e-9; // a data dependence between calls
        });
        // Computed from the shape, not counted: 2 n^2 flops; W and x
        // read once and out written once, 8 bytes each.
        const double flops = 2.0 * n * n;
        const double bytes = 8.0 * (double(n) * n + 2.0 * n);
        report.set("nn.matvec64_ns", s * 1e9,
                   std::string("f64, kernel ") + k.name);
        report.set("nn.matvec64_gflops", flops / s * 1e-9,
                   "2*64*64 flops per call, from the shape");
        report.set("nn.matvec64_gbytes_per_s", bytes / s * 1e-9,
                   "(64*64+2*64)*8 bytes per call, from the shape");
    }
    {
        ScopedSpan span("nn.lstm_step64");
        Rng rng(12);
        nn::ParamSet params;
        nn::LstmCell cell(params, 64, 64, rng);
        nn::Tensor x(64, 1);
        x.uniformInit(rng, 1.0);
        nn::Graph g;
        const double s = timePerCall(kProbeSeconds, [&] {
            g.clear();
            nn::Ctx ctx{g, params, nullptr};
            auto state = cell.initial(ctx);
            (void)cell.step(ctx, g.input(x), state);
        });
        report.set("nn.lstm_step64_us", s * 1e6, "one graph step, 1 thread");
    }

    // The median-length block of the workload drives fwd+bwd.
    std::vector<size_t> order(blocks.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return blocks[a].size() < blocks[b].size();
    });
    const isa::BasicBlock &mid = blocks[order[order.size() / 2]];
    {
        ScopedSpan span("nn.fwd_bwd");
        const surrogate::Model &model = engine.model();
        const params::ParamTable table = hw::defaultTable(kUarch);
        const core::ParamNormalizer norm(params::SamplingDist::full());
        const surrogate::EncodedBlock encoded = surrogate::encodeBlock(mid);
        nn::Grads grads(model.params());
        nn::Graph g;
        const double s = timePerCall(kProbeSeconds, [&] {
            grads.zero();
            g.clear();
            nn::Ctx ctx{g, model.params(), &grads};
            const auto inputs = core::constParamInputs(g, table, mid, norm);
            nn::Var pred = g.exp(model.forward(ctx, encoded, inputs));
            g.backward(g.lossMape(pred, 2.0, 0.05));
        });
        report.set("nn.fwd_bwd_us", s * 1e6,
                   std::to_string(mid.size()) + "-instruction block");
    }
    {
        ScopedSpan span("nn.batched");
        const std::vector<nn::Tensor> &columns =
            engine.snapshot().inputColumns();
        std::vector<surrogate::EncodedBlock> encoded;
        const size_t pool = std::min<size_t>(blocks.size(), 256);
        for (size_t i = 0; i < pool; ++i)
            encoded.push_back(surrogate::encodeBlock(blocks[i]));
        nn::BatchedForward bf(engine.snapshotPtr());
        std::vector<double> out;
        for (const size_t batch : {size_t(1), size_t(8), size_t(32)}) {
            size_t next = 0;
            const double s = timePerCall(kProbeSeconds, [&] {
                std::vector<const surrogate::EncodedBlock *> ptrs;
                std::vector<std::vector<const nn::Tensor *>> inputs;
                for (size_t b = 0; b < batch; ++b) {
                    const size_t i = next++ % pool;
                    ptrs.push_back(&encoded[i]);
                    inputs.emplace_back();
                    for (const auto &inst : blocks[i].insts)
                        inputs.back().push_back(
                            &columns[size_t(inst.opcode)]);
                }
                engine.model().predictBatch(bf, ptrs, inputs, out);
            });
            report.set("nn.batched_us_per_block_b" + std::to_string(batch),
                       s * 1e6 / double(batch),
                       "Model::predictBatch f64, " +
                           std::to_string(pool) + " workload blocks");
        }
    }
}

/** isa::parseBlock and a fresh isa::Interner over @p texts. */
void
probeFrontEnd(Report &report, const std::vector<std::string> &texts,
              bool report_intern_hits)
{
    const size_t n = std::min<size_t>(texts.size(), 32768);
    std::vector<isa::BasicBlock> parsed;
    parsed.reserve(n);
    {
        ScopedSpan span("isa.parse");
        const double start = wallSeconds();
        for (size_t i = 0; i < n; ++i)
            parsed.push_back(isa::parseBlock(texts[i]));
        report.set("isa.parse_ns", secondsSince(start) * 1e9 / double(n),
                   "per block, " + std::to_string(n) + " texts");
    }
    {
        ScopedSpan span("isa.intern");
        isa::Interner interner;
        size_t known_count = 0;
        const double start = wallSeconds();
        for (const isa::BasicBlock &block : parsed) {
            bool known = false;
            interner.internBlock(block, known);
            known_count += known ? 1 : 0;
        }
        report.set("isa.intern_ns", secondsSince(start) * 1e9 / double(n),
                   "per block, fresh interner");
        if (report_intern_hits)
            report.set("isa.intern_hit_ratio",
                       ratioOf(double(known_count), double(n)),
                       "fresh interner, of " + std::to_string(n) +
                           " blocks");
    }
}

/** XMca with the default table over @p blocks, one thread. */
void
probeMca(Report &report, const std::vector<isa::BasicBlock> &blocks)
{
    ScopedSpan span("mca.simulate");
    const mca::XMca sim;
    const params::ParamTable table = hw::defaultTable(kUarch);
    double sink = 0.0;
    const double start = wallSeconds();
    for (const isa::BasicBlock &block : blocks)
        sink += sim.timing(block, table);
    report.set("mca.sim_us_per_block",
               secondsSince(start) * 1e6 / double(blocks.size()),
               std::to_string(blocks.size()) + " blocks, default table" +
                   (sink > 0.0 ? "" : " (zero timings)"));
}

/** lab::simulatePolicy for the three policies at @p capacity. */
void
probeLab(Report &report, const lab::TraceWorkload &trace, size_t capacity)
{
    ScopedSpan span("lab.simulate_policy");
    obs::MetricRegistry sim_registry;
    for (const char *policy : {"lru", "slru", "tinylfu"}) {
        const lab::SimResult r =
            lab::simulatePolicy(trace, policy, capacity, sim_registry);
        report.set(std::string("lab.") + policy + "_hit_rate",
                   100.0 * r.hitRate,
                   "capacity " + std::to_string(capacity) + ", " +
                       std::to_string(r.requests) + " requests");
    }
}

/** Print per-span-name totals and self times; write the spans. */
void
finishTrace(const Options &options)
{
    const std::vector<Span> spans = Tracer::collect();
    const std::string path =
        options.workdir + "/spans-" + options.workload + ".tsv";
    const bool written = Tracer::write(path, spans);
    std::printf("spans: %zu %s %s\n", spans.size(),
                written ? "written to" : "could not be written to",
                path.c_str());
    std::printf("  %-24s %10s %14s %14s\n", "span", "count", "total_ms",
                "self_ms");
    for (const auto &[name, t] : layerTimes(spans)) {
        std::printf("  %-24s %10zu %14.3f %14.3f\n", name.c_str(), t.count,
                    1e-6 * double(t.totalNs), 1e-6 * double(t.selfNs));
    }
    Tracer::clear();
}

/** Set-up time samples: total, checkpoint load, engine to reply. */
struct SetupTimes
{
    std::vector<double> total, cpu, loadMs, readyMs;

    /** setup_s (median process CPU) and wall.setup_s. */
    void
    report(Report &r, const std::string &what) const
    {
        const std::string reps =
            what + ", median of " + std::to_string(total.size());
        r.set("setup_s", median(cpu), "process CPU, " + reps);
        r.set("wall.setup_s", median(total), reps);
    }
};

// ---------------------------------------------------------------------
// tune

/** The timed phases of one tuning job, in order. */
constexpr const char *kTunePhases[] = {"core.phase2", "core.phase3",
                                       "core.fidelity", "core.phase4",
                                       "core.eval"};
constexpr size_t kNumTunePhases = std::size(kTunePhases);

struct TuneJob
{
    double wallS = 0.0;
    double cpuS = 0.0;
    double phaseS[kNumTunePhases] = {};
    double phase34CpuS = 0.0;
    long phase2Evals = 0;
    long phase4Evals = 0;
    double trainLoss = 0.0;
    double fidelity = 0.0;
    params::ParamTable learned;
    core::EvalResult learnedEval;
    core::EvalResult defaultEval;
};

/** A span around one tuning phase that also keeps its wall time. */
class PhaseTimer
{
  public:
    PhaseTimer(TuneJob &job, size_t phase)
        : span_(kTunePhases[phase]), out_(job.phaseS[phase]),
          start_(wallSeconds())
    {
    }
    ~PhaseTimer() { out_ = secondsSince(start_); }

    PhaseTimer(const PhaseTimer &) = delete;
    PhaseTimer &operator=(const PhaseTimer &) = delete;

  private:
    ScopedSpan span_;
    double &out_;
    double start_;
};

TuneJob
runTuneJob(const bhive::Dataset &dataset, uint64_t seed)
{
    TuneJob job;
    const mca::XMca sim;
    const params::ParamTable base = hw::defaultTable(kUarch);
    const core::DiffTuneConfig cfg = core::standardConfig(seed);
    ScopedSpan job_span("tune.job");
    const double wall0 = wallSeconds();
    const double cpu0 = processCpuSeconds();
    core::DiffTune difftune(sim, dataset, base, cfg);
    {
        PhaseTimer t(job, 0);
        difftune.collectSimulatedDataset();
    }
    job.phase2Evals = difftune.simulatorEvals();
    const double cpu3 = processCpuSeconds();
    {
        PhaseTimer t(job, 1);
        job.trainLoss = difftune.trainSurrogate();
    }
    {
        PhaseTimer t(job, 2);
        job.fidelity = difftune.surrogateFidelity();
    }
    const long evals4 = difftune.simulatorEvals();
    {
        PhaseTimer t(job, 3);
        job.learned = difftune.trainTable();
    }
    job.phase4Evals = difftune.simulatorEvals() - evals4;
    job.phase34CpuS = processCpuSeconds() - cpu3;
    {
        PhaseTimer t(job, 4);
        job.learnedEval =
            core::evaluate(sim, job.learned, dataset, dataset.test());
        job.defaultEval = core::evaluate(sim, base, dataset, dataset.test());
    }
    job.wallS = secondsSince(wall0);
    job.cpuS = processCpuSeconds() - cpu0;
    std::printf("job: %.3f s wall, %.3f s CPU; phases", job.wallS,
                job.cpuS);
    for (size_t i = 0; i < kNumTunePhases; ++i)
        std::printf(" %s %.3f s", kTunePhases[i], job.phaseS[i]);
    std::printf("\n");
    return job;
}

/** Finite-ness checks of one job, counted as operations. */
void
checkTuneJob(Report &report, const TuneJob &job)
{
    report.attempt(3);
    bool finite = true;
    for (const double v : job.learned.flatten())
        finite = finite && std::isfinite(v);
    if (!finite)
        report.fail("extracted table has non-finite entries");
    if (!std::isfinite(job.learnedEval.error) ||
        !std::isfinite(job.learnedEval.kendallTau))
        report.fail("learned-table test error is not finite");
    if (!std::isfinite(job.defaultEval.error) ||
        !std::isfinite(job.defaultEval.kendallTau))
        report.fail("default-table test error is not finite");
}

/** cpu_us_per_op and the wall figures of a run's tuning jobs. */
void
reportJobs(Report &report, const std::vector<TuneJob> &jobs)
{
    std::vector<double> walls, cpus;
    double wall_sum = 0.0;
    for (const TuneJob &j : jobs) {
        walls.push_back(j.wallS * 1e6);
        cpus.push_back(j.cpuS * 1e6);
        wall_sum += j.wallS;
    }
    const std::string n = "n=" + std::to_string(jobs.size()) + " jobs";
    report.set("cpu_us_per_op", median(cpus),
               "process CPU per tuning job (tune_cpu_s), " + n);
    report.set("wall.rps", double(jobs.size()) / wall_sum,
               "tuning jobs per second");
    report.set("wall.latency_p50_us", median(walls),
               "tuning job wall (tune_wall_s), " + n);
    report.set("wall.latency_p99_us", tailPercentile(walls).value,
               tailPercentile(walls).describe());
}

Report
runTune(const Options &options)
{
    Report report;

    // Set-up: the corpus and the measured dataset, several times.
    std::unique_ptr<bhive::Corpus> corpus;
    std::unique_ptr<bhive::Dataset> dataset;
    SetupTimes setups;
    for (int rep = 0; rep < kTuneSetups; ++rep) {
        ScopedSpan span("bhive.dataset_build");
        const double start = wallSeconds();
        const double cpu0 = processCpuSeconds();
        dataset.reset();
        corpus = std::make_unique<bhive::Corpus>(bhive::Corpus::generate(
            core::ExperimentScale::fromEnv().corpusBlocks,
            kTuneCorpusSeed));
        dataset = std::make_unique<bhive::Dataset>(
            *corpus, kUarch, tuneSplitSeed(options.seed));
        setups.total.push_back(secondsSince(start));
        setups.cpu.push_back(processCpuSeconds() - cpu0);
    }
    std::printf("tune: %zu blocks (train %zu, valid %zu, test %zu), "
                "scale %g, workers %d\n",
                corpus->size(), dataset->train().size(),
                dataset->valid().size(), dataset->test().size(),
                difftune::experimentScale(), difftune::workerThreads());

    const uint64_t run_seed = deriveSeed(options.seed, 3);
    const auto run_jobs = [&](double seconds) {
        std::vector<TuneJob> jobs;
        const double start = wallSeconds();
        do {
            jobs.push_back(runTuneJob(*dataset, run_seed));
            checkTuneJob(report, jobs.back());
            report.attempt();
            if (jobs.back().learned.save() != jobs.front().learned.save())
                report.fail("two runs on one input extracted different "
                            "tables");
        } while (secondsSince(start) + jobs.back().wallS <= seconds);
        return jobs;
    };

    // Traced: the same measurement without and then with spans.
    const std::vector<TuneJob> untraced =
        run_jobs(options.trace ? options.seconds / 2 : options.seconds);
    reportJobs(report, untraced);
    const TuneJob &first = untraced.front();
    std::printf("tune_wall_s %.4f s, tune_cpu_s %.4f s\n", first.wallS,
                first.cpuS);
    std::printf("learned_test_mape %.4f %%, learned_test_kendall_tau "
                "%.4f\n",
                100.0 * first.learnedEval.error,
                first.learnedEval.kendallTau);
    std::printf("default_test_mape %.4f %%, default_test_kendall_tau "
                "%.4f\n",
                100.0 * first.defaultEval.error,
                first.defaultEval.kendallTau);
    std::printf("learned table digest %s\n",
                digest(first.learned.save()).c_str());
    setups.report(report, "corpus + measured dataset");
    report.set("process.peak_rss_mb", peakRssMb());
    if (!options.trace)
        return report;

    Tracer::setEnabled(true);
    const std::vector<TuneJob> jobs = run_jobs(options.seconds / 2);
    Tracer::setEnabled(false);
    std::vector<double> a, b;
    for (const TuneJob &j : untraced)
        a.push_back(j.wallS);
    for (const TuneJob &j : jobs)
        b.push_back(j.wallS);
    report.set("trace.overhead_ratio", ratioOf(median(b), median(a)),
               "traced / untraced job wall");
    const TuneJob &last = jobs.back();

    // Per-layer metrics of the traced jobs (the last one).
    const char *phase_metric[kNumTunePhases] = {
        "core.phase2_s", "core.phase3_s", "core.fidelity_s",
        "core.phase4_s", "core.eval_s"};
    for (size_t i = 0; i < kNumTunePhases; ++i)
        report.set(phase_metric[i], last.phaseS[i],
                   i == 4 ? "learned + default table on the test split"
                          : "");
    const double phase3_s = last.phaseS[1];
    const double phase34_wall_s =
        last.phaseS[1] + last.phaseS[2] + last.phaseS[3];
    report.set("core.phase2_sim_evals", double(last.phase2Evals));
    report.set("core.phase4_sim_evals", double(last.phase4Evals));
    report.set("core.learned_test_mape", 100.0 * last.learnedEval.error,
               "learned table, test split");
    report.set("core.learned_test_kendall_tau", last.learnedEval.kendallTau,
               "learned table, test split");
    report.set("surrogate.train_loss", last.trainLoss);
    report.set("surrogate.fidelity_mape", 100.0 * last.fidelity,
               "surrogate vs XMca on held-out samples");
    const int loops = core::standardConfig(run_seed).surrogateLoops;
    report.set("nn.train_samples_per_s",
               ratioOf(double(last.phase2Evals) * loops, phase3_s),
               std::to_string(last.phase2Evals) + " samples x " +
                   std::to_string(loops) + " loops");
    report.set("base.core_utilization",
               ratioOf(last.phase34CpuS, phase34_wall_s * hostCores()),
               "phases 3-4, " + std::to_string(hostCores()) + " cores");
    report.set("mca.default_test_mape", 100.0 * last.defaultEval.error);
    report.set("bhive.dataset_build_s", median(setups.total),
               "corpus + Dataset, median of " +
                   std::to_string(setups.total.size()));

    // Layer probes on this workload's blocks.
    std::vector<isa::BasicBlock> train_blocks;
    std::vector<std::string> texts;
    for (const bhive::Entry &e : dataset->train()) {
        train_blocks.push_back(dataset->block(e));
        texts.push_back(isa::toString(dataset->block(e)));
    }
    Tracer::setEnabled(true);
    probeMca(report, train_blocks);
    probeFrontEnd(report, texts, true);
    const std::string ckpt = options.workdir + "/tune-probe.ckpt";
    writeStandardCheckpoint(ckpt);
    obs::MetricRegistry registry;
    serve::AsyncConfig acfg;
    acfg.registry = &registry;
    acfg.metricPrefix = "perfbench";
    const serve::AsyncEngine engine(io::loadCheckpoint(ckpt), acfg);
    probeNn(report, engine, train_blocks);
    Tracer::setEnabled(false);
    finishTrace(options);
    return report;
}

// ---------------------------------------------------------------------
// serving

/** A generated trace with its request texts materialized. */
struct ServeInputs
{
    explicit ServeInputs(const lab::TraceConfig &config)
        : trace(lab::TraceWorkload::generate(config)),
          texts(trace.requestTexts())
    {
    }

    lab::TraceWorkload trace;
    std::vector<std::string> texts;

    uint32_t rank(size_t i) const { return trace.requests()[i].block; }
    size_t distinct() const { return trace.corpusTexts().size(); }
};

/**
 * The bits served per canonical block: the first reply for a block
 * is recorded, every later reply must match it.
 */
struct Answers
{
    explicit Answers(size_t distinct) : bits(distinct), seen(distinct, 0)
    {
    }

    /** @return false if @p value contradicts an earlier reply. */
    bool
    record(uint32_t rank, double value)
    {
        const uint64_t b = std::bit_cast<uint64_t>(value);
        if (!seen[rank]) {
            seen[rank] = 1;
            bits[rank] = b;
            return true;
        }
        return bits[rank] == b;
    }

    std::vector<uint64_t> bits;
    std::vector<uint8_t> seen;
};

/** One timed pass of a serving workload. */
struct Pass
{
    uint64_t requests = 0;
    uint64_t errors = 0;
    uint64_t inconsistent = 0;
    double wallS = 0.0;
    double cpuS = 0.0;
    std::vector<double> latencyUs; ///< per call
    std::string latencyUnit;       ///< what one call is
};

void
countPass(Report &report, const Pass &pass)
{
    report.attempt(pass.requests);
    if (pass.errors)
        report.fail(std::to_string(pass.errors) + " requests failed",
                    pass.errors);
    if (pass.inconsistent)
        report.fail(std::to_string(pass.inconsistent) +
                        " replies disagree with an earlier reply for "
                        "the same canonical block",
                    pass.inconsistent);
}

/**
 * Closed loop: one thread per entry of @p cursor, each sending its
 * next request as soon as the previous reply arrives, for @p seconds.
 * Client c sends trace positions cursor[c], cursor[c] + clients, ...
 * (wrapping) and leaves cursor[c] at its next position.
 * @p call(client, text) returns the prediction.
 */
template <class Call>
Pass
closedLoop(const ServeInputs &in, std::vector<size_t> &cursor,
           double seconds, Answers &answers, Call call)
{
    struct Client
    {
        uint64_t requests = 0, errors = 0, inconsistent = 0;
        std::vector<double> latencyUs;
        std::unique_ptr<Answers> answers;
    };
    const int clients = int(cursor.size());
    std::vector<Client> state(static_cast<size_t>(clients));
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    const size_t n = in.texts.size();
    // Written before go is released, read by the clients after.
    std::chrono::steady_clock::time_point start, deadline;
    for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            Client &me = state[size_t(c)];
            me.answers = std::make_unique<Answers>(in.distinct());
            me.latencyUs.reserve(1 << 20);
            while (!go.load(std::memory_order_acquire))
                std::this_thread::yield();
            size_t i = cursor[size_t(c)] % n;
            auto now = std::chrono::steady_clock::now();
            while (now < deadline) {
                const uint64_t id =
                    (uint64_t(c + 1) << 40) | (me.requests + 1);
                double value = 0.0;
                bool ok = true;
                {
                    ScopedSpan span("client.request", id);
                    try {
                        value = call(c, in.texts[i]);
                    } catch (const std::exception &) {
                        ok = false;
                    }
                }
                const auto done = std::chrono::steady_clock::now();
                me.latencyUs.push_back(
                    std::chrono::duration<double, std::micro>(done - now)
                        .count());
                ++me.requests;
                if (!ok)
                    ++me.errors;
                else if (!me.answers->record(in.rank(i), value))
                    ++me.inconsistent;
                now = done;
                i = (i + size_t(clients)) % n;
            }
            cursor[size_t(c)] = i;
        });
    }
    const double cpu0 = processCpuSeconds();
    start = std::chrono::steady_clock::now();
    deadline = start + std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::duration<double>(seconds));
    go.store(true, std::memory_order_release);
    for (std::thread &t : threads)
        t.join();
    Pass pass;
    pass.wallS = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start)
                     .count();
    pass.cpuS = processCpuSeconds() - cpu0;
    pass.latencyUnit = "one request";
    for (Client &me : state) {
        pass.requests += me.requests;
        pass.errors += me.errors;
        pass.inconsistent += me.inconsistent;
        pass.latencyUs.insert(pass.latencyUs.end(), me.latencyUs.begin(),
                              me.latencyUs.end());
        for (size_t r = 0; r < in.distinct(); ++r) {
            if (me.answers->seen[r] &&
                !answers.record(uint32_t(r),
                                std::bit_cast<double>(me.answers->bits[r])))
                ++pass.inconsistent;
        }
    }
    return pass;
}

/** Chunked predictAll sweep from chunk @p next (advanced past the
 *  last chunk sent, wrapping). */
Pass
chunkLoop(const ServeInputs &in,
          const std::vector<std::vector<std::string>> &chunks, size_t &next,
          double seconds, Answers &answers, serve::AsyncEngine &engine)
{
    Pass pass;
    pass.latencyUnit = "one predictAll call of " +
                       std::to_string(kMissChunk) + " requests";
    const double cpu0 = processCpuSeconds();
    const double start = wallSeconds();
    size_t &k = next;
    k %= chunks.size();
    uint64_t calls = 0;
    while (secondsSince(start) < seconds) {
        const std::vector<std::string> &chunk = chunks[k];
        const size_t first = k * kMissChunk;
        const double t0 = wallSeconds();
        std::vector<double> out;
        bool ok = true;
        {
            ScopedSpan span("client.request", ++calls);
            try {
                ScopedSpan call("serve.predict_all");
                out = engine.predictAll(chunk);
            } catch (const std::exception &) {
                ok = false;
            }
        }
        pass.latencyUs.push_back(secondsSince(t0) * 1e6);
        pass.requests += chunk.size();
        if (!ok) {
            pass.errors += chunk.size();
        } else {
            for (size_t j = 0; j < chunk.size(); ++j) {
                if (!answers.record(in.rank(first + j), out[j]))
                    ++pass.inconsistent;
            }
        }
        k = (k + 1) % chunks.size();
    }
    pass.wallS = secondsSince(start);
    pass.cpuS = processCpuSeconds() - cpu0;
    return pass;
}

/**
 * After timing: check a seeded sample of the distinct blocks served
 * bit-exact against the uncached reference path.
 */
void
checkAnswers(Report &report, const Options &options, const ServeInputs &in,
             const Answers &answers, const serve::AsyncEngine &engine)
{
    std::vector<uint32_t> ranks;
    for (size_t r = 0; r < answers.seen.size(); ++r) {
        if (answers.seen[r])
            ranks.push_back(uint32_t(r));
    }
    Rng rng(deriveSeed(options.seed, 9));
    for (size_t i = ranks.size(); i > 1; --i)
        std::swap(ranks[i - 1],
                  ranks[size_t(rng.uniformInt(0, int64_t(i) - 1))]);
    ranks.resize(std::min(ranks.size(), kExactSample));
    uint64_t mismatches = 0;
    for (const uint32_t rank : ranks) {
        const std::string &text = in.trace.corpusTexts()[rank];
        if (std::bit_cast<uint64_t>(engine.predictUncached(text)) !=
            answers.bits[rank])
            ++mismatches;
    }
    report.attempt(ranks.size());
    if (mismatches)
        report.fail(std::to_string(mismatches) +
                        " served predictions differ from predictUncached",
                    mismatches);
}

/** Requests completed per second of a pass. */
double
rpsOf(const Pass &pass)
{
    return ratioOf(double(pass.requests), pass.wallS);
}

/** One round of slices. */
using Round = std::vector<Pass>;

/**
 * CPU per request and the wall figures of a measurement: throughput,
 * median latency and CPU per request are medians over all slices; the
 * tail is the median over rounds of each round's pooled tail.
 */
void
reportRounds(Report &report, const std::vector<Round> &rounds)
{
    std::vector<double> rps, p50, tail, cpu;
    uint64_t requests = 0;
    size_t samples = 0;
    Percentile first;
    for (const Round &round : rounds) {
        std::vector<double> pooled;
        for (const Pass &pass : round) {
            rps.push_back(rpsOf(pass));
            p50.push_back(median(pass.latencyUs));
            cpu.push_back(1e6 * ratioOf(pass.cpuS, double(pass.requests)));
            pooled.insert(pooled.end(), pass.latencyUs.begin(),
                          pass.latencyUs.end());
            requests += pass.requests;
        }
        const Percentile t = tailPercentile(pooled);
        if (samples == 0)
            first = t;
        samples += pooled.size();
        tail.push_back(t.value);
    }
    std::printf("slices: rps");
    for (const double r : rps)
        std::printf(" %.0f", r);
    std::printf("\n");
    const std::string slices = "median of " + std::to_string(rps.size()) +
                               " slices";
    report.set("wall.rps", median(rps),
               slices + ", " + std::to_string(requests) + " requests");
    report.set("wall.latency_p50_us", median(p50),
               slices + ", n=" + std::to_string(samples) + " (" +
                   rounds.front().front().latencyUnit + ")");
    report.set("wall.latency_p99_us", median(tail),
               "median of " + std::to_string(rounds.size()) +
                   " rounds, first round " + first.describe());
    report.set("cpu_us_per_op", median(cpu),
               "process CPU per request, " + slices);
}

enum class ServeKind
{
    kBatch,  ///< AsyncEngine::predictAll
    kSubmit, ///< AsyncEngine::submit
    kWire,   ///< DaemonClient::predict through a Daemon
};

/**
 * Everything a serving workload keeps alive. Members are destroyed
 * in reverse order: client connections before the daemon, engines
 * before the registry their counters are linked into.
 */
struct Rig
{
    std::unique_ptr<obs::MetricRegistry> registry;
    std::unique_ptr<serve::AsyncEngine> engine;
    std::unique_ptr<serve::Daemon> daemon;
    std::vector<serve::DaemonClient> clients;
    std::shared_ptr<serve::AsyncEngine> daemonEngine;

    serve::AsyncEngine &
    served()
    {
        return engine ? *engine : *daemonEngine;
    }
};

int
clientThreads()
{
    return std::max(1, hostCores() - 1);
}

/**
 * Load the checkpoint and build the engine (or the daemon, its model
 * and its client connections) up to the first reply.
 */
std::unique_ptr<Rig>
buildRig(ServeKind kind, const std::string &ckpt, const std::string &first,
         SetupTimes &times)
{
    auto rig = std::make_unique<Rig>();
    ScopedSpan span("setup");
    const double start = wallSeconds();
    const double cpu0 = processCpuSeconds();
    io::Checkpoint checkpoint;
    {
        ScopedSpan load("io.load_checkpoint");
        checkpoint = io::loadCheckpoint(ckpt);
    }
    const double loaded = wallSeconds();
    {
        ScopedSpan ready("serve.engine_ready");
        rig->registry = std::make_unique<obs::MetricRegistry>();
        if (kind == ServeKind::kWire) {
            serve::DaemonConfig cfg;
            cfg.registry.registry = rig->registry.get();
            cfg.registry.metricRoot = "perfbench";
            rig->daemon = std::make_unique<serve::Daemon>(cfg);
            rig->daemon->registry().load(
                "m", io::makeModelSnapshot(std::move(checkpoint)));
            rig->daemon->start();
            for (int c = 0; c < clientThreads(); ++c)
                rig->clients.emplace_back(rig->daemon->port());
            rig->clients[0].predict("m", first);
            rig->daemonEngine = rig->daemon->registry().acquire("m");
        } else {
            serve::AsyncConfig cfg;
            cfg.registry = rig->registry.get();
            cfg.metricPrefix = "perfbench";
            rig->engine = std::make_unique<serve::AsyncEngine>(
                std::move(checkpoint), cfg);
            if (kind == ServeKind::kBatch)
                rig->engine->predictAll({first});
            else
                rig->engine->submit(first).get();
        }
    }
    const double end = wallSeconds();
    times.cpu.push_back(processCpuSeconds() - cpu0);
    times.total.push_back(end - start);
    times.loadMs.push_back(1e3 * (loaded - start));
    times.readyMs.push_back(1e3 * (end - loaded));
    return rig;
}

/**
 * Traced-run probe of the per-request path: nproc - 1 closed-loop
 * clients over the hot trace (zipf 1.1, respell 0.25, 2048 blocks,
 * all cache-resident) through AsyncEngine::submit, or through an
 * in-process Daemon and one DaemonClient connection per client. This
 * path sleeps and wakes threads on every cache miss, and on a shared
 * 4-core VM its throughput moved up to 5x between runs with the
 * host's wake-up latency, so it is recorded per layer, without a
 * bound, rather than as a workload of its own.
 *
 * Through the daemon, each client alternates wire calls with direct
 * submit calls on the daemon's own engine, so daemon.overhead_p50_us
 * is the difference of two medians taken over one interval and one
 * traffic mix. The engine's request_ns histogram cannot stand in for
 * the direct calls: front-cache hits, most of this trace, resolve
 * inside submit and are not recorded in it.
 */
void
probeRequestPath(Report &report, const Options &options, ServeKind kind,
                 const std::string &ckpt)
{
    const ServeInputs in(hotTraceConfig(options.seed, kHotRequests));
    SetupTimes times;
    std::unique_ptr<Rig> rig = buildRig(kind, ckpt, in.texts[0], times);
    const size_t clients = size_t(clientThreads());
    // Per client (each touched by its own thread only): round trips
    // through the daemon and direct to its engine, microseconds.
    std::vector<std::vector<double>> wire_us(clients), direct_us(clients);
    const auto call = [&](int client, const std::string &text) {
        const size_t c = size_t(client);
        if (kind == ServeKind::kWire) {
            const double t0 = wallSeconds();
            if (wire_us[c].size() <= direct_us[c].size()) {
                ScopedSpan s("daemon.predict");
                const double v = rig->clients[c].predict("m", text);
                wire_us[c].push_back(secondsSince(t0) * 1e6);
                return v;
            }
            ScopedSpan s("serve.submit_get");
            const double v = rig->daemonEngine->submit(text).get();
            direct_us[c].push_back(secondsSince(t0) * 1e6);
            return v;
        }
        std::future<double> f;
        {
            ScopedSpan s("serve.submit");
            f = rig->engine->submit(text);
        }
        ScopedSpan g("serve.get");
        return f.get();
    };
    Answers answers(in.distinct());
    report.attempt(kHotWarm);
    uint64_t bad = 0;
    for (size_t i = 0; i < kHotWarm; ++i)
        bad += answers.record(in.rank(i), call(0, in.texts[i])) ? 0 : 1;
    if (bad)
        report.fail("warm-up replies disagree with earlier replies", bad);
    wire_us[0].clear();
    direct_us[0].clear();
    serve::AsyncEngine &engine = rig->served();
    const Telemetry before = Telemetry::read(engine, *rig->registry);
    std::vector<size_t> cursor(clients);
    for (size_t c = 0; c < cursor.size(); ++c)
        cursor[c] = kHotWarm + c;
    const Pass pass =
        closedLoop(in, cursor, kRequestProbeSeconds, answers, call);
    const Telemetry t =
        Telemetry::read(engine, *rig->registry).since(before);
    countPass(report, pass);
    checkInvariant(report, engine);
    checkAnswers(report, options, in, answers, engine);
    if (kind == ServeKind::kSubmit) {
        reportDispatchTelemetry(report, t);
        probeFrontEnd(report, in.texts, false);
        return;
    }
    std::vector<double> wire, direct;
    for (size_t c = 0; c < clients; ++c) {
        wire.insert(wire.end(), wire_us[c].begin(), wire_us[c].end());
        direct.insert(direct.end(), direct_us[c].begin(),
                      direct_us[c].end());
    }
    const double wire_p50 = median(wire), direct_p50 = median(direct);
    const auto &request = t.stage(".request_ns");
    report.set("daemon.overhead_p50_us", wire_p50 - direct_p50,
               fmt("DaemonClient p50 %.1f us", wire_p50) + " (n=" +
                   std::to_string(wire.size()) + ")" +
                   fmt(" - direct submit p50 %.1f us", direct_p50) +
                   " (n=" + std::to_string(direct.size()) +
                   "), interleaved on " + std::to_string(clients) +
                   " clients; engine request_ns" +
                   fmt(" p50 %.1f us", 1e-3 * request.percentile(0.5)) +
                   " covers its " + std::to_string(request.count()) +
                   " text misses only");
}

Report
runServeMiss(const Options &options)
{
    Report report;
    const ServeInputs in(missTraceConfig(options.seed, kMissRequests));
    std::printf("serve_miss: %zu-request trace over %zu distinct blocks, "
                "one caller, %d rounds of %d slices\n",
                in.texts.size(), in.distinct(), kServeRounds,
                kSlicesPerRound);
    const std::string ckpt = options.workdir + "/serve.ckpt";
    writeStandardCheckpoint(ckpt);

    std::vector<std::vector<std::string>> chunks;
    for (size_t i = 0; i + kMissChunk <= in.texts.size(); i += kMissChunk)
        chunks.emplace_back(in.texts.begin() + long(i),
                            in.texts.begin() + long(i + kMissChunk));

    SetupTimes times;
    std::unique_ptr<Rig> rig;
    for (int rep = 0; rep < kServeSetups; ++rep) {
        rig.reset();
        rig = buildRig(ServeKind::kBatch, ckpt, in.texts[0], times);
    }
    serve::AsyncEngine &engine = *rig->engine;

    // Untimed warm-up. First every distinct block once per engine
    // shard, shifting the chunk boundaries each sweep so that every
    // shard forwards every block: the interner and every shard's
    // instruction memo are then as warm as a long-running server's
    // and do not drift while timing (after a single sweep, throughput
    // still rose ~50% over the next 30 s). Then a trace prefix of 4x
    // the cache brings the prediction cache to its steady state.
    Answers answers(in.distinct());
    uint64_t bad = 0;
    const std::vector<std::string> &all = in.trace.corpusTexts();
    const size_t n = all.size();
    const size_t sweeps = size_t(engine.workers());
    for (size_t sweep = 0; sweep < sweeps; ++sweep) {
        const size_t shift = sweep * kMissChunk / sweeps;
        report.attempt(n);
        for (size_t i = 0; i < n; i += kMissChunk) {
            std::vector<std::string> chunk;
            for (size_t j = i; j < std::min(i + kMissChunk, n); ++j)
                chunk.push_back(all[(j + shift) % n]);
            const std::vector<double> out = engine.predictAll(chunk);
            for (size_t j = 0; j < out.size(); ++j) {
                const auto rank = uint32_t((i + j + shift) % n);
                bad += answers.record(rank, out[j]) ? 0 : 1;
            }
        }
    }
    report.attempt(kMissWarm);
    for (size_t k = 0; k < kMissWarm / kMissChunk; ++k) {
        const std::vector<double> out = engine.predictAll(chunks[k]);
        for (size_t j = 0; j < out.size(); ++j)
            bad += answers.record(in.rank(k * kMissChunk + j), out[j]) ? 0
                                                                        : 1;
    }
    if (bad)
        report.fail("warm-up replies disagree with earlier replies", bad);

    size_t next_chunk = kMissWarm / kMissChunk;
    const auto measure = [&](double seconds) {
        std::vector<Round> rounds;
        const double slice = seconds / (kServeRounds * kSlicesPerRound);
        for (int r = 0; r < kServeRounds; ++r) {
            rounds.emplace_back();
            for (int k = 0; k < kSlicesPerRound; ++k) {
                rounds.back().push_back(chunkLoop(in, chunks, next_chunk,
                                                  slice, answers, engine));
                countPass(report, rounds.back().back());
            }
        }
        return rounds;
    };

    if (!options.trace) {
        reportRounds(report, measure(options.seconds));
        times.report(report, "checkpoint load + engine to first reply");
        report.set("process.peak_rss_mb", peakRssMb());
        checkInvariant(report, engine);
        checkAnswers(report, options, in, answers, engine);
        return report;
    }

    // Traced run: the same measurement without and then with spans.
    const Telemetry before = Telemetry::read(engine, *rig->registry);
    const std::vector<Round> untraced = measure(options.seconds / 2);
    Tracer::setEnabled(true);
    const std::vector<Round> traced = measure(options.seconds / 2);
    Tracer::setEnabled(false);
    reportRounds(report, untraced);
    times.report(report, "checkpoint load + engine to first reply");
    report.set("process.peak_rss_mb", peakRssMb(), "after the timed slices");
    reportCacheTelemetry(
        report, Telemetry::read(engine, *rig->registry).since(before));
    std::vector<double> rps_untraced, rps_traced;
    double cpu = 0.0, wall = 0.0;
    for (const Round &round : untraced) {
        for (const Pass &p : round) {
            rps_untraced.push_back(rpsOf(p));
            cpu += p.cpuS;
            wall += p.wallS;
        }
    }
    for (const Round &round : traced) {
        for (const Pass &p : round)
            rps_traced.push_back(rpsOf(p));
    }
    report.set("trace.overhead_ratio",
               ratioOf(median(rps_untraced), median(rps_traced)),
               "time per request, traced / untraced");
    report.set("base.core_utilization", ratioOf(cpu, wall * hostCores()),
               "untraced slices, " + std::to_string(hostCores()) +
                   " cores");
    report.set("io.checkpoint_load_ms", median(times.loadMs),
               "median of " + std::to_string(times.loadMs.size()));
    report.set("serve.engine_ready_ms", median(times.readyMs),
               "construction to first reply, median of " +
                   std::to_string(times.readyMs.size()));
    checkInvariant(report, engine);
    checkAnswers(report, options, in, answers, engine);

    Tracer::setEnabled(true);
    probeLab(report, in.trace, serve::AsyncConfig{}.cacheCapacity);
    std::vector<isa::BasicBlock> blocks;
    for (size_t r = 0; r < std::min<size_t>(in.distinct(), 256); ++r)
        blocks.push_back(isa::parseBlock(in.trace.corpusTexts()[r]));
    probeMca(report, blocks);
    probeNn(report, engine, blocks);
    probeRequestPath(report, options, ServeKind::kSubmit, ckpt);
    probeRequestPath(report, options, ServeKind::kWire, ckpt);
    Tracer::setEnabled(false);
    finishTrace(options);
    return report;
}

} // namespace

// ---------------------------------------------------------------------
// Inputs

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"tune", "serve_miss"};
    return names;
}

uint64_t
deriveSeed(uint64_t seed, uint64_t stream)
{
    uint64_t state = seed ^ (0x6a09e667f3bcc909ULL * (stream + 1));
    return splitMix64(state);
}

uint64_t
tuneSplitSeed(uint64_t seed)
{
    return deriveSeed(seed, 2);
}

lab::TraceConfig
hotTraceConfig(uint64_t seed, uint64_t requests)
{
    lab::TraceConfig cfg;
    cfg.seed = deriveSeed(seed, 4);
    cfg.corpusSeed = kHotCorpusSeed;
    cfg.corpusTarget = 2048;
    cfg.requests = requests;
    cfg.zipfSkew = 1.1;
    cfg.respellProb = 0.25;
    return cfg;
}

lab::TraceConfig
missTraceConfig(uint64_t seed, uint64_t requests)
{
    lab::TraceConfig cfg;
    cfg.seed = deriveSeed(seed, 6);
    cfg.corpusSeed = kMissCorpusSeed;
    cfg.corpusTarget = 32768;
    cfg.requests = requests;
    cfg.zipfSkew = 0.6;
    cfg.respellProb = 0.0;
    return cfg;
}

Report
runWorkload(const Options &options)
{
    if (options.workload == "tune")
        return runTune(options);
    if (options.workload == "serve_miss")
        return runServeMiss(options);
    fatal("unknown workload '{}'", options.workload);
}

} // namespace perfbench
