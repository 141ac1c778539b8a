/**
 * @file
 * google-benchmark microbenchmarks for the neural substrate: matvec,
 * the lanes forward, the two backward kernels, LSTM step, full
 * surrogate forward and forward+backward. These document the
 * per-sample training cost behind the Table IV pipelines.
 *
 * All loops reuse one Graph via clear() — the arena-tape idiom every
 * production call site (BatchRunner shards, the serving engine,
 * Model::predict) uses; construction is allocation-free in steady
 * state. The *Unfused variants build the node-per-op reference
 * composition in a graph that is rebuilt from scratch each iteration
 * — the pre-rewrite engine's construction pattern — so fused-vs-
 * unfused is the old-vs-new comparison.
 *
 * --smoke additionally runs the old-vs-new harness below, which
 * prints node counts and the forward+backward speedup ratio and
 * fails (exit 1) if the ratio drops under the CI floor.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench/bench_micro_util.hh"

#include "isa/parse.hh"
#include "nn/batched.hh"
#include "nn/matvec_dispatch.hh"
#include "nn/modules.hh"
#include "surrogate/model.hh"

namespace
{

using namespace difftune;

void
BM_MatVec(benchmark::State &state)
{
    const int n = int(state.range(0));
    Rng rng(1);
    nn::ParamSet params;
    int w = params.add(n, n);
    params[w].uniformInit(rng, 0.1);
    nn::Tensor x(n, 1);
    x.uniformInit(rng, 1.0);
    nn::Graph g;
    for (auto _ : state) {
        g.clear();
        nn::Var wv = g.param(params, w, nullptr);
        benchmark::DoNotOptimize(g.matmul(wv, g.input(x)));
    }
    state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_MatVec)->Arg(32)->Arg(64)->Arg(128);

void
BM_LstmStep(benchmark::State &state)
{
    const int h = int(state.range(0));
    Rng rng(2);
    nn::ParamSet params;
    nn::LstmCell cell(params, h, h, rng);
    nn::Tensor x(h, 1);
    x.uniformInit(rng, 1.0);
    nn::Graph g;
    for (auto _ : state) {
        g.clear();
        nn::Ctx ctx{g, params, nullptr};
        auto s = cell.initial(ctx);
        benchmark::DoNotOptimize(cell.step(ctx, g.input(x), s));
    }
}
BENCHMARK(BM_LstmStep)->Arg(32)->Arg(64);

/**
 * Computed from the shape, not counted: one multiply and one add per
 * weight element and term. Printed as a rate (G/s reads GFLOP/s) for
 * a roofline reading next to the kernel's time.
 */
void
setFlopRate(benchmark::State &state, double flops_per_call)
{
    state.counters["flops"] = benchmark::Counter(
        flops_per_call * double(state.iterations()),
        benchmark::Counter::kIsRate);
}

/** Uniform values in [-0.5, 0.5). */
std::vector<double>
benchValues(Rng &rng, size_t n)
{
    std::vector<double> v(n);
    for (double &x : v)
        x = rng.uniformReal() - 0.5;
    return v;
}

/**
 * out_j = W x_j for @c range(1) vectors through the selected lanes
 * entry (nn/matvec_dispatch.hh), for a 256-row LSTM gate weight: the
 * hidden width 64 and the block LSTM's 81-wide layer-0 input. Lanes
 * 1 is the single-vector cost; 8 is the batched executor's group.
 */
void
BM_MatvecLanes(benchmark::State &state)
{
    const int rows = 256, cols = int(state.range(0));
    const int lanes = int(state.range(1));
    Rng rng(4);
    const std::vector<double> w = benchValues(rng, size_t(rows) * cols);
    const std::vector<double> x =
        benchValues(rng, size_t(lanes) * size_t(cols));
    std::vector<double> out(size_t(lanes) * size_t(rows));
    std::vector<const double *> xs;
    std::vector<double *> outs;
    for (int j = 0; j < lanes; ++j) {
        xs.push_back(x.data() + size_t(j) * cols);
        outs.push_back(out.data() + size_t(j) * rows);
    }
    const nn::MatvecKernels &k = nn::matvecKernels();
    for (auto _ : state) {
        k.lanesF64(w.data(), xs.data(), outs.data(), lanes, rows, cols);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    setFlopRate(state, 2.0 * rows * cols * lanes);
}
BENCHMARK(BM_MatvecLanes)
    ->ArgsProduct({{64, 81}, {1, 4, 8, 32}});

/**
 * dx += W^T dz through the selected backward kernel
 * (nn/matvec_dispatch.hh) for a 256-row LSTM gate weight: the hidden
 * width 64 and the block LSTM's 81-wide layer-0 input.
 */
void
BM_InputGrad(benchmark::State &state)
{
    const int rows = 256, cols = int(state.range(0));
    Rng rng(3);
    const std::vector<double> w = benchValues(rng, size_t(rows) * cols);
    const std::vector<double> dz = benchValues(rng, size_t(rows));
    std::vector<double> xgrad(size_t(cols), 0.0);
    const nn::MatvecKernels &k = nn::matvecKernels();
    for (auto _ : state) {
        k.inputGradF64(w.data(), dz.data(), xgrad.data(), rows, cols);
        benchmark::DoNotOptimize(xgrad.data());
        benchmark::ClobberMemory();
    }
    setFlopRate(state, 2.0 * rows * cols);
}
BENCHMARK(BM_InputGrad)->Arg(64)->Arg(81);

/**
 * The deferred weight-gradient flush: @c range(0) records
 * (dz, x) applied to one 256 x 64 gradient through the selected
 * outer-product kernel — a short and a long block's worth of LSTM
 * steps.
 */
void
BM_WeightGradFlush(benchmark::State &state)
{
    const int rows = 256, cols = 64;
    const size_t records = size_t(state.range(0));
    Rng rng(4);
    std::vector<std::vector<double>> dzs, xs;
    std::vector<const double *> dzp, xp;
    for (size_t r = 0; r < records; ++r) {
        dzs.push_back(benchValues(rng, size_t(rows)));
        xs.push_back(benchValues(rng, size_t(cols)));
    }
    for (size_t r = 0; r < records; ++r) {
        dzp.push_back(dzs[r].data());
        xp.push_back(xs[r].data());
    }
    std::vector<double> grad(size_t(rows) * cols, 0.0);
    const nn::MatvecKernels &k = nn::matvecKernels();
    for (auto _ : state) {
        k.outerF64(grad.data(), dzp.data(), xp.data(), records, rows, cols);
        benchmark::DoNotOptimize(grad.data());
        benchmark::ClobberMemory();
    }
    setFlopRate(state, 2.0 * rows * cols * double(records));
}
BENCHMARK(BM_WeightGradFlush)->Arg(8)->Arg(40);

surrogate::Model &
benchModel()
{
    static surrogate::Model model(
        [] {
            surrogate::ModelConfig cfg;
            cfg.hidden = 64;
            cfg.embedDim = 32;
            cfg.tokenLayers = 1;
            cfg.blockLayers = 2;
            cfg.paramDim = 0;
            return cfg;
        }(),
        isa::theVocab().size());
    return model;
}

const surrogate::EncodedBlock &
benchBlock()
{
    static const surrogate::EncodedBlock block =
        surrogate::encodeBlock(isa::parseBlock(
            "MOV64rm 8(%rsi), %rdi\n"
            "ADD64rr %rdi, %rbx\n"
            "IMUL64rr %rbx, %rcx\n"
            "CMP64rr %rcx, %rdx\n"
            "PUSH64r %rbx\n"));
    return block;
}

void
BM_SurrogateForward(benchmark::State &state)
{
    auto &model = benchModel();
    for (auto _ : state)
        benchmark::DoNotOptimize(model.predict(benchBlock()));
}
BENCHMARK(BM_SurrogateForward);

/** A small pool of distinct blocks for the batched forward benches. */
const std::vector<surrogate::EncodedBlock> &
benchBlockPool()
{
    static const std::vector<surrogate::EncodedBlock> pool = [] {
        const std::vector<std::string> texts = {
            "MOV64rm 8(%rsi), %rdi\nADD64rr %rdi, %rbx\n"
            "IMUL64rr %rbx, %rcx\nCMP64rr %rcx, %rdx\nPUSH64r %rbx\n",
            "ADD32rr %ebx, %ecx\nNOP\n",
            "IMUL64rr %rbx, %rcx\n",
            "PUSH64r %rbx\nPOP64r %rcx\nADD32rr %ebx, %ecx\n",
        };
        std::vector<surrogate::EncodedBlock> blocks;
        for (const auto &text : texts)
            blocks.push_back(
                surrogate::encodeBlock(isa::parseBlock(text)));
        return blocks;
    }();
    return pool;
}

/**
 * The batched multi-block forward (nn/batched.hh) at batch sizes
 * 1/8/32, per block: the serving engine's per-shard execution mode.
 * Compare items/s against BM_SurrogateForward for the per-block win.
 */
void
BM_SurrogatePredictBatch(benchmark::State &state)
{
    auto &model = benchModel();
    const auto &pool = benchBlockPool();
    const size_t batch = size_t(state.range(0));
    std::vector<const surrogate::EncodedBlock *> blocks;
    for (size_t i = 0; i < batch; ++i)
        blocks.push_back(&pool[i % pool.size()]);
    nn::BatchedForward bf(model.params());
    std::vector<double> out;
    for (auto _ : state) {
        model.predictBatch(bf, blocks, {}, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(batch));
}
BENCHMARK(BM_SurrogatePredictBatch)->Arg(1)->Arg(8)->Arg(32);

/** One sample's forward+backward in @p g; returns the loss. */
double
forwardBackward(nn::Graph &g, nn::Grads &grads, bool fuse)
{
    auto &model = benchModel();
    nn::Ctx ctx{g, model.params(), &grads, fuse};
    nn::Var pred = g.exp(model.forward(ctx, benchBlock(), {}));
    nn::Var loss = g.lossMape(pred, 2.0, 0.05);
    g.backward(loss);
    return g.scalarValue(loss);
}

void
BM_SurrogateForwardBackward(benchmark::State &state)
{
    auto &model = benchModel();
    nn::Grads grads(model.params());
    nn::Graph g;
    for (auto _ : state) {
        grads.zero();
        g.clear();
        benchmark::DoNotOptimize(forwardBackward(g, grads, true));
    }
}
BENCHMARK(BM_SurrogateForwardBackward);

void
BM_SurrogateForwardBackwardUnfused(benchmark::State &state)
{
    auto &model = benchModel();
    nn::Grads grads(model.params());
    for (auto _ : state) {
        grads.zero();
        // Fresh graph each iteration: the pre-rewrite construction
        // pattern (no arena reuse).
        nn::Graph g;
        benchmark::DoNotOptimize(forwardBackward(g, grads, false));
    }
}
BENCHMARK(BM_SurrogateForwardBackwardUnfused);

// ------------------------------------------------- old-vs-new floor

/** CI floor for fused+reused over unfused+rebuilt (see ISSUE 3). */
constexpr double speedupFloor = 1.8;

/** Seconds per iteration of one batch of @p iters calls. */
template <typename Body>
double
secPerIter(int iters, const Body &body)
{
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i)
        body();
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - start;
    return dt.count() / iters;
}

/**
 * The old-vs-new check. The "old" side reproduces the pre-rewrite
 * engine: the unfused node-per-op composition, routed through the
 * frozen PR-1 scalar kernels (Graph::setReferenceKernels), in a
 * graph rebuilt from scratch each sample (the pre-arena construction
 * pattern). The "new" side is fused ops in one arena-reused graph.
 * Prints node counts and the speedup ratio; returns false if the
 * ratio is under the floor.
 */
bool
runOldVsNewSmoke()
{
    auto &model = benchModel();
    nn::Grads grads(model.params());

    nn::Graph fused_graph;
    size_t fused_nodes = 0, unfused_nodes = 0;
    // Warm up both paths (first-touch arena growth, caches).
    for (int i = 0; i < 3; ++i) {
        fused_graph.clear();
        forwardBackward(fused_graph, grads, true);
        fused_nodes = fused_graph.numNodes();
        nn::Graph g;
        g.setReferenceKernels(true);
        forwardBackward(g, grads, false);
        unfused_nodes = g.numNodes();
    }

    // Interleave the two paths rep by rep and take the median of the
    // per-rep ratios: frequency drift and noisy-neighbour effects on
    // a shared runner hit both sides of each rep roughly equally.
    const int reps = 11, iters = 8;
    std::vector<double> ratios, unfused_times, fused_times;
    for (int r = 0; r < reps; ++r) {
        const double unfused_sec = secPerIter(iters, [&] {
            nn::Graph g;
            g.setReferenceKernels(true);
            forwardBackward(g, grads, false);
        });
        const double fused_sec = secPerIter(iters, [&] {
            fused_graph.clear();
            forwardBackward(fused_graph, grads, true);
        });
        ratios.push_back(unfused_sec / fused_sec);
        unfused_times.push_back(unfused_sec);
        fused_times.push_back(fused_sec);
    }
    std::sort(ratios.begin(), ratios.end());
    std::sort(unfused_times.begin(), unfused_times.end());
    std::sort(fused_times.begin(), fused_times.end());
    const double ratio = ratios[size_t(reps) / 2];
    const double unfused_sec = unfused_times[size_t(reps) / 2];
    const double fused_sec = fused_times[size_t(reps) / 2];
    std::printf("bench_micro_nn old-vs-new: nodes %zu -> %zu, "
                "fwd+bwd %.3f ms -> %.3f ms, speedup %.2fx "
                "(floor %.1fx)\n",
                unfused_nodes, fused_nodes, unfused_sec * 1e3,
                fused_sec * 1e3, ratio, speedupFloor);
    if (fused_nodes * 2 >= unfused_nodes) {
        std::fprintf(stderr,
                     "FAIL: fused graph has %zu nodes vs %zu "
                     "unfused — fusion stopped collapsing the "
                     "tape\n",
                     fused_nodes, unfused_nodes);
        return false;
    }
    if (ratio < speedupFloor) {
        std::fprintf(stderr,
                     "FAIL: fused autograd speedup %.2fx is under "
                     "the %.1fx floor\n",
                     ratio, speedupFloor);
        return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
    if (smoke && !runOldVsNewSmoke())
        return 1;
    return difftune::bench::runMicroBenchMain(argc, argv);
}
