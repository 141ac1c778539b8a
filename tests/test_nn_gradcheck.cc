/**
 * @file
 * The gradient-check net under the fused/arena autograd rewrite.
 *
 * Every op — primitive and fused — is checked against central finite
 * differences (rel-err < 1e-6) over randomized shapes, explicitly
 * including rows/cols = 1 edge cases. The fused ops are additionally
 * asserted bit-identical (values and accumulated parameter
 * gradients) to the primitive compositions they replace, and the
 * frozen reference kernels (nn/ref_kernels.cc) bit-identical to the
 * optimized ones, including the deferred weight-gradient outer
 * products against the reference kernels' immediate updates. A
 * final set of tests locks the arena lifecycle: clear() + same-shape
 * rebuild reuses storage without growth and reproduces identical
 * bits.
 *
 * To add an op: give it a gradcheck here over randomized shapes
 * (including size-1 edges) and, if it fuses a primitive
 * composition, a bit-exactness test against that composition.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>

#include "nn/modules.hh"
#include "nn/optim.hh"

namespace difftune::nn
{
namespace
{

uint64_t
bits(double v)
{
    uint64_t u = 0;
    std::memcpy(&u, &v, sizeof(u));
    return u;
}

/**
 * Central-difference gradient check of a scalar-valued graph built
 * by @p forward over every entry of every tensor in @p params.
 * Asserts relative error < 1e-6 (against max(1, |grad|)).
 */
void
gradCheck(ParamSet &params,
          const std::function<Var(Graph &, Ctx &)> &forward,
          double eps = 1e-5, double tol = 1e-6)
{
    Grads grads(params);
    Graph graph;
    Ctx ctx{graph, params, &grads};
    Var loss = forward(graph, ctx);
    graph.backward(loss);

    for (size_t p = 0; p < params.count(); ++p) {
        Tensor &tensor = params[int(p)];
        for (size_t i = 0; i < tensor.data.size(); ++i) {
            const double saved = tensor.data[i];
            tensor.data[i] = saved + eps;
            Graph gp;
            Ctx cp{gp, params, nullptr};
            const double up = gp.scalarValue(forward(gp, cp));
            tensor.data[i] = saved - eps;
            Graph gm;
            Ctx cm{gm, params, nullptr};
            const double down = gm.scalarValue(forward(gm, cm));
            tensor.data[i] = saved;
            const double numeric = (up - down) / (2 * eps);
            const double analytic = grads[int(p)].data[i];
            EXPECT_NEAR(analytic, numeric,
                        tol * std::max(1.0, std::fabs(numeric)))
                << "param " << p << " index " << i;
        }
    }
}

/** Random shapes to sweep: deliberately includes every 1-edge. */
struct Shape
{
    int rows;
    int cols;
};

const Shape kShapes[] = {{1, 1}, {1, 3}, {4, 1}, {3, 5}, {5, 2}};

/** Reduce a column vector to a scalar with a fixed random probe. */
Var
probeLoss(Graph &g, Var v, Rng &rng)
{
    const TensorView view = g.value(v);
    Tensor probe(view.rows, 1);
    probe.uniformInit(rng, 1.0);
    return g.lossMse(g.dot(v, g.input(probe)), 0.3);
}

/** Reduce an (r x c) matrix node to a scalar via matmul probes. */
Var
probeLossMatrix(Graph &g, Var v, Rng &rng)
{
    const TensorView view = g.value(v);
    Tensor right(view.cols, 1);
    right.uniformInit(rng, 1.0);
    return probeLoss(g, g.matmul(v, g.input(right)), rng);
}

// ------------------------------------------------- primitive ops

TEST(GradCheckRandom, MatmulAllShapes)
{
    Rng rng(101);
    for (const Shape m : kShapes) {
        for (int n : {1, 3}) {
            ParamSet params;
            int a = params.add(m.rows, m.cols);
            int b = params.add(m.cols, n);
            params[a].uniformInit(rng, 0.8);
            params[b].uniformInit(rng, 0.8);
            gradCheck(params, [&](Graph &g, Ctx &ctx) {
                Var prod = g.matmul(g.param(ctx.params, a, ctx.sink),
                                    g.param(ctx.params, b, ctx.sink));
                Rng probe_rng(7);
                return probeLossMatrix(g, prod, probe_rng);
            });
        }
    }
}

TEST(GradCheckRandom, ElementwiseOps)
{
    using Builder = std::function<Var(Graph &, Var)>;
    const std::pair<const char *, Builder> ops[] = {
        {"sigmoid", [](Graph &g, Var x) { return g.sigmoid(x); }},
        {"tanh", [](Graph &g, Var x) { return g.tanh(x); }},
        {"relu", [](Graph &g, Var x) { return g.relu(x); }},
        {"abs", [](Graph &g, Var x) { return g.abs(x); }},
        {"exp", [](Graph &g, Var x) { return g.exp(x); }},
        {"scale", [](Graph &g, Var x) { return g.scale(x, -1.7); }},
    };
    Rng rng(102);
    for (const auto &[name, op] : ops) {
        for (const Shape s : kShapes) {
            ParamSet params;
            int w = params.add(s.rows, s.cols);
            params[w].uniformInit(rng, 0.9);
            gradCheck(params, [&](Graph &g, Ctx &ctx) {
                Var y = op(g, g.param(ctx.params, w, ctx.sink));
                Rng probe_rng(11);
                return probeLossMatrix(g, y, probe_rng);
            });
        }
    }
}

TEST(GradCheckRandom, BinaryOpsAndScaleByVec)
{
    Rng rng(103);
    for (const Shape s : kShapes) {
        ParamSet params;
        int a = params.add(s.rows, s.cols);
        int b = params.add(s.rows, s.cols);
        params[a].uniformInit(rng, 1.0);
        params[b].uniformInit(rng, 1.0);
        std::vector<double> factors(size_t(s.rows) * s.cols);
        for (double &f : factors)
            f = rng.uniformReal(-2.0, 2.0);
        gradCheck(params, [&](Graph &g, Ctx &ctx) {
            Var va = g.param(ctx.params, a, ctx.sink);
            Var vb = g.param(ctx.params, b, ctx.sink);
            Var y = g.mul(g.add(va, vb), g.sub(va, vb));
            Var z = g.scaleByVec(y, factors);
            Rng probe_rng(13);
            return probeLossMatrix(g, z, probe_rng);
        });
    }
}

TEST(GradCheckRandom, SliceConcatParamRow)
{
    Rng rng(104);
    for (int rows : {1, 2, 6}) {
        ParamSet params;
        int table = params.add(rows + 2, 3);
        int vec = params.add(rows, 1);
        params[table].uniformInit(rng, 1.0);
        params[vec].uniformInit(rng, 1.0);
        gradCheck(params, [&](Graph &g, Ctx &ctx) {
            Var row = g.paramRow(ctx.params, table, rows / 2,
                                 ctx.sink);
            Var v = g.param(ctx.params, vec, ctx.sink);
            Var cat = g.concat({g.slice(row, 1, 1), v,
                                g.slice(row, 0, 2)});
            Rng probe_rng(17);
            return probeLoss(g, g.tanh(cat), probe_rng);
        });
    }
}

TEST(GradCheckRandom, Losses)
{
    Rng rng(105);
    for (double target : {0.0, 0.4, 2.5}) {
        ParamSet params;
        int w = params.add(1, 1);
        params[w].data[0] = rng.uniformReal(0.1, 2.0);
        gradCheck(params, [&](Graph &g, Ctx &ctx) {
            return g.lossMape(g.param(ctx.params, w, ctx.sink),
                              target);
        });
        gradCheck(params, [&](Graph &g, Ctx &ctx) {
            return g.lossMae(g.param(ctx.params, w, ctx.sink),
                             target);
        });
        gradCheck(params, [&](Graph &g, Ctx &ctx) {
            return g.lossMse(g.param(ctx.params, w, ctx.sink),
                             target);
        });
    }
}

// ----------------------------------------------------- fused ops

TEST(GradCheckFused, LinearAllActivations)
{
    Rng rng(106);
    for (const Act act :
         {Act::None, Act::Sigmoid, Act::Tanh, Act::Relu}) {
        for (const Shape s : kShapes) {
            const int out = s.rows, in = s.cols;
            ParamSet params;
            int w = params.add(out, in);
            int b = params.add(out, 1);
            int x = params.add(in, 1);
            params[w].uniformInit(rng, 0.8);
            params[b].uniformInit(rng, 0.8);
            params[x].uniformInit(rng, 0.8);
            gradCheck(params, [&](Graph &g, Ctx &ctx) {
                Var y = g.linear(g.param(ctx.params, w, ctx.sink),
                                 g.param(ctx.params, x, ctx.sink),
                                 g.param(ctx.params, b, ctx.sink),
                                 act);
                Rng probe_rng(19);
                return probeLoss(g, y, probe_rng);
            });
        }
    }
}

TEST(GradCheckFused, LstmStepRandomShapes)
{
    Rng rng(107);
    for (const auto &[hidden, in] :
         {std::pair{1, 1}, {1, 3}, {3, 1}, {4, 5}}) {
        ParamSet params;
        int wx = params.add(4 * hidden, in);
        int wh = params.add(4 * hidden, hidden);
        int b = params.add(4 * hidden, 1);
        int x = params.add(in, 1);
        int h0 = params.add(hidden, 1);
        int c0 = params.add(hidden, 1);
        for (int p = 0; p < 6; ++p)
            params[p].uniformInit(rng, 0.7);
        gradCheck(
            params,
            [&](Graph &g, Ctx &ctx) {
                Var vx = g.param(ctx.params, x, ctx.sink);
                Graph::LstmState s0{
                    g.param(ctx.params, h0, ctx.sink),
                    g.param(ctx.params, c0, ctx.sink)};
                // Two chained steps: the second consumes the first's
                // h/c slices, exercising grad flow through the
                // packed state.
                Graph::LstmState s1 = g.lstmStep(
                    g.param(ctx.params, wx, ctx.sink),
                    g.param(ctx.params, wh, ctx.sink),
                    g.param(ctx.params, b, ctx.sink), vx, s0.h,
                    s0.c);
                Graph::LstmState s2 = g.lstmStep(
                    g.param(ctx.params, wx, ctx.sink),
                    g.param(ctx.params, wh, ctx.sink),
                    g.param(ctx.params, b, ctx.sink), vx, s1.h,
                    s1.c);
                Rng probe_rng(23);
                return probeLoss(g, g.concat({s2.h, s2.c}),
                                 probe_rng);
            },
            1e-5, 1e-5);
    }
}

TEST(GradCheckFused, DotIncludingSizeOne)
{
    Rng rng(108);
    for (int n : {1, 2, 7}) {
        ParamSet params;
        int a = params.add(n, 1);
        int b = params.add(n, 1);
        params[a].uniformInit(rng, 1.0);
        params[b].uniformInit(rng, 1.0);
        gradCheck(params, [&](Graph &g, Ctx &ctx) {
            return g.lossMse(
                g.dot(g.param(ctx.params, a, ctx.sink),
                      g.param(ctx.params, b, ctx.sink)),
                0.2);
        });
    }
}

TEST(GradCheckFused, ScaledSoftClamp)
{
    Rng rng(109);
    for (int n : {1, 3, 8}) {
        ParamSet params;
        int a = params.add(n, 1);
        params[a].uniformInit(rng, 2.0);
        std::vector<double> scales(static_cast<size_t>(n), 0.0);
        for (double &s : scales)
            s = rng.uniformReal(0.2, 1.5);
        gradCheck(params, [&](Graph &g, Ctx &ctx) {
            Var y = g.scaledSoftClamp(
                g.param(ctx.params, a, ctx.sink), scales, 1.25);
            Rng probe_rng(29);
            return probeLoss(g, y, probe_rng);
        });
    }
}

// ----------------------------------- fused == unfused, bit-exact

/**
 * Build @p body twice — fused and unfused — with fresh Grads each,
 * backward from the same loss construction, and assert the loss
 * value and every accumulated gradient are bit-identical. With
 * @p reference_kernels the unfused pass runs the frozen reference
 * kernels, which apply every weight gradient immediately, so it is
 * the undeferred baseline, and @p deferred (if given) receives the
 * number of outer products the fused pass deferred.
 */
void
checkFusedUnfusedBits(
    ParamSet &params,
    const std::function<Var(Graph &, Ctx &)> &body,
    bool reference_kernels = false, size_t *deferred = nullptr)
{
    double loss_val[2];
    std::vector<std::vector<double>> grad_bits[2];
    for (int pass = 0; pass < 2; ++pass) {
        Grads grads(params);
        Graph g;
        g.setReferenceKernels(reference_kernels && pass == 1);
        Ctx ctx{g, params, &grads, /*fuse=*/pass == 0};
        Var loss = body(g, ctx);
        g.backward(loss);
        loss_val[pass] = g.scalarValue(loss);
        for (size_t p = 0; p < grads.count(); ++p)
            grad_bits[pass].push_back(grads[int(p)].data);
        if (pass == 0 && deferred) {
            *deferred = g.deferredRecords();
        } else if (pass == 1 && reference_kernels) {
            EXPECT_EQ(g.deferredRecords(), 0u);
        }
    }
    EXPECT_EQ(bits(loss_val[0]), bits(loss_val[1]));
    ASSERT_EQ(grad_bits[0].size(), grad_bits[1].size());
    for (size_t p = 0; p < grad_bits[0].size(); ++p) {
        ASSERT_EQ(grad_bits[0][p].size(), grad_bits[1][p].size());
        for (size_t i = 0; i < grad_bits[0][p].size(); ++i)
            EXPECT_EQ(bits(grad_bits[0][p][i]),
                      bits(grad_bits[1][p][i]))
                << "param " << p << " index " << i;
    }
}

TEST(FusedEquivalence, LinearModule)
{
    Rng rng(110);
    ParamSet params;
    Linear layer(params, 5, 3, rng);
    checkFusedUnfusedBits(params, [&](Graph &g, Ctx &ctx) {
        Tensor xv(5, 1);
        Rng data_rng(31);
        xv.uniformInit(data_rng, 1.0);
        Var y = layer.forward(ctx, g.input(xv));
        Rng probe_rng(37);
        return probeLoss(g, y, probe_rng);
    });
}

TEST(FusedEquivalence, LinearInputAlsoBias)
{
    // linear(W, v, v): v's gradient takes the bias term dz_i in full
    // before W^T dz, the order of the primitive add-then-matmul
    // backward.
    Rng rng(118);
    ParamSet params;
    const int w = params.add(7, 7);
    const int v = params.add(7, 1);
    params[w].uniformInit(rng, 0.5);
    params[v].uniformInit(rng, 0.5);
    checkFusedUnfusedBits(params, [&](Graph &g, Ctx &ctx) {
        Var wv = g.param(ctx.params, w, ctx.sink);
        Var vv = g.param(ctx.params, v, ctx.sink);
        Var y = ctx.fuse ? g.linear(wv, vv, vv) : g.add(g.matmul(wv, vv), vv);
        Rng probe_rng(73);
        return probeLoss(g, y, probe_rng);
    });
}

TEST(FusedEquivalence, LstmStackSequence)
{
    Rng rng(111);
    ParamSet params;
    LstmStack stack(params, 3, 4, 2, rng);
    checkFusedUnfusedBits(params, [&](Graph &g, Ctx &ctx) {
        std::vector<Var> sequence;
        Rng data_rng(41);
        for (int t = 0; t < 4; ++t) {
            Tensor xv(3, 1);
            xv.uniformInit(data_rng, 1.0);
            sequence.push_back(g.input(xv));
        }
        Var h = stack.runSequence(ctx, sequence);
        Rng probe_rng(43);
        return probeLoss(g, h, probe_rng);
    });
}

/**
 * lstmStep skips the recurrent matvec when every h entry is zero.
 * An explicit zero h — all +0.0, then with -0.0 entries — that is a
 * trainable parameter must still match the unfused composition bit
 * for bit: the value, and every gradient, h's own W^T dz and the Wh
 * record with x = 0 included.
 */
TEST(FusedEquivalence, LstmStepZeroHidden)
{
    for (const bool negative : {false, true}) {
        Rng rng(119);
        ParamSet params;
        LstmCell cell(params, 5, 6, rng);
        const int h = params.add(6, 1);
        const int c = params.add(6, 1);
        params[c].uniformInit(rng, 1.0);
        for (int i = 0; i < 6; ++i)
            params[h].data[size_t(i)] = negative && i % 2 ? -0.0 : 0.0;
        checkFusedUnfusedBits(params, [&](Graph &g, Ctx &ctx) {
            Tensor xv(5, 1);
            Rng data_rng(67);
            xv.uniformInit(data_rng, 1.0);
            const LstmCell::State zero{g.param(ctx.params, h, ctx.sink),
                                       g.param(ctx.params, c, ctx.sink)};
            const LstmCell::State next =
                cell.step(ctx, g.input(xv), zero);
            Rng probe_rng(71);
            return probeLoss(g, g.concat({next.h, next.c}), probe_rng);
        });
    }
}

TEST(FusedEquivalence, ScaledSoftClampVsPrimitiveChain)
{
    Rng rng(112);
    ParamSet params;
    int a = params.add(6, 1);
    params[a].uniformInit(rng, 2.0);
    std::vector<double> scales = {0.2, 0.5, 1.0, 1.5, 0.8, 0.05};
    constexpr double cap = 1.25;

    double vals[2][6];
    std::vector<double> grads_out[2];
    for (int pass = 0; pass < 2; ++pass) {
        Grads grads(params);
        Graph g;
        Var x = g.param(params, a, &grads);
        Var y;
        if (pass == 0) {
            y = g.scaledSoftClamp(x, scales, cap);
        } else {
            y = g.scale(
                g.tanh(g.scale(g.scaleByVec(g.abs(x), scales),
                               1.0 / cap)),
                cap);
        }
        for (int i = 0; i < 6; ++i)
            vals[pass][i] = g.value(y).data[i];
        Rng probe_rng(47);
        g.backward(probeLoss(g, y, probe_rng));
        grads_out[pass] = grads[a].data;
    }
    for (int i = 0; i < 6; ++i) {
        EXPECT_EQ(bits(vals[0][i]), bits(vals[1][i])) << i;
        EXPECT_EQ(bits(grads_out[0][i]), bits(grads_out[1][i])) << i;
    }
}

TEST(FusedEquivalence, ReferenceKernelsMatchOptimized)
{
    Rng rng(113);
    ParamSet params;
    int w = params.add(7, 5);
    int x = params.add(5, 1);
    params[w].uniformInit(rng, 1.0);
    params[x].uniformInit(rng, 1.0);

    double vals[2][7];
    std::vector<double> wg[2], xg[2];
    for (int pass = 0; pass < 2; ++pass) {
        Grads grads(params);
        Graph g;
        g.setReferenceKernels(pass == 1);
        Var y = g.matmul(g.param(params, w, &grads),
                         g.param(params, x, &grads));
        for (int i = 0; i < 7; ++i)
            vals[pass][i] = g.value(y).data[i];
        Rng probe_rng(53);
        g.backward(probeLoss(g, y, probe_rng));
        wg[pass] = grads[w].data;
        xg[pass] = grads[x].data;
    }
    for (int i = 0; i < 7; ++i)
        EXPECT_EQ(bits(vals[0][i]), bits(vals[1][i])) << i;
    EXPECT_EQ(wg[0], wg[1]);
    EXPECT_EQ(xg[0], xg[1]);
}

// ------------------------------- deferred weight gradients

TEST(DeferredWeightGrad, LeafSharedByManyLstmSteps)
{
    // Widths above and below the flush's 16-column register chunk.
    Rng rng(116);
    ParamSet params;
    LstmCell cell(params, 20, 17, rng);
    constexpr int steps = 24;
    size_t deferred = 0;
    checkFusedUnfusedBits(
        params,
        [&](Graph &g, Ctx &ctx) {
            auto s = cell.initial(ctx);
            Rng data_rng(59);
            for (int t = 0; t < steps; ++t) {
                Tensor xv(20, 1);
                xv.uniformInit(data_rng, 1.0);
                s = cell.step(ctx, g.input(xv), s);
            }
            Rng probe_rng(61);
            return probeLoss(g, s.h, probe_rng);
        },
        /*reference_kernels=*/true, &deferred);
    EXPECT_EQ(deferred, size_t(2 * steps)); // Wx and Wh per step
}

TEST(DeferredWeightGrad, LeafAlsoUsedElementwise)
{
    Rng rng(117);
    ParamSet params;
    const int w = params.add(18, 18);
    const int b = params.add(18, 1);
    const int v = params.add(18, 1);
    params[w].uniformInit(rng, 0.5);
    params[b].uniformInit(rng, 0.5);
    params[v].uniformInit(rng, 0.5);
    size_t deferred = 0;
    checkFusedUnfusedBits(
        params,
        [&](Graph &g, Ctx &ctx) {
            Var wv = g.param(ctx.params, w, ctx.sink);
            Var bv = g.param(ctx.params, b, ctx.sink);
            Var vv = g.param(ctx.params, v, ctx.sink);
            Tensor xt(18, 1);
            Rng data_rng(67);
            xt.uniformInit(data_rng, 1.0);
            Var x = g.input(xt);
            auto linear = [&](Var wt, Var in, Var bias) {
                return ctx.fuse ? g.linear(wt, in, bias)
                                : g.add(g.matmul(wt, in), bias);
            };
            // W is a matvec weight on both sides of an elementwise
            // use, so the sweep reaches that use with a record
            // pending and again leaves one for the leaf's flush.
            Var y1 = linear(wv, x, bv);
            Var mixed = g.mul(wv, g.tanh(wv));
            Var y2 = g.matmul(wv, y1);
            Var y3 = g.matmul(mixed, y2);
            // v is both the weight and the bias of one linear node
            // (in = 1), which must not be deferred.
            Var y4 = linear(vv, g.inputScalar(0.7), vv);
            Rng probe_rng(71);
            return probeLoss(g, g.add(g.add(y3, y2), y4), probe_rng);
        },
        /*reference_kernels=*/true, &deferred);
    EXPECT_EQ(deferred, 2u); // the y1 and y2 records of W
}

// --------------------------------------------- arena lifecycle

TEST(ArenaTape, ClearRebuildReproducesBitsWithoutGrowth)
{
    Rng rng(114);
    ParamSet params;
    LstmCell cell(params, 4, 6, rng);
    Linear head(params, 6, 1, rng);
    Grads grads(params);
    Graph g;

    Tensor xv(4, 1);
    xv.uniformInit(rng, 1.0);

    auto run = [&] {
        g.clear();
        grads.zero();
        Ctx ctx{g, params, &grads};
        auto s = cell.initial(ctx);
        s = cell.step(ctx, g.input(xv), s);
        s = cell.step(ctx, g.input(xv), s);
        Var loss = g.lossMse(head.forward(ctx, s.h), 0.7);
        g.backward(loss);
        return g.scalarValue(loss);
    };

    const double first = run();
    const size_t nodes = g.numNodes();
    const size_t doubles = g.arenaDoubles();
    const size_t records = g.deferredRecords();
    const size_t record_capacity = g.deferredCapacity();
    EXPECT_GT(records, 0u);
    std::vector<double> first_grads = grads[0].data;
    for (int iter = 0; iter < 5; ++iter) {
        const double again = run();
        EXPECT_EQ(bits(first), bits(again));
        // Identical tape, identical storage: the arena's high-water
        // mark must not creep.
        EXPECT_EQ(g.numNodes(), nodes);
        EXPECT_EQ(g.arenaDoubles(), doubles);
        // Nor may the deferral record lists.
        EXPECT_EQ(g.deferredRecords(), records);
        EXPECT_EQ(g.deferredCapacity(), record_capacity);
        EXPECT_EQ(grads[0].data, first_grads);
    }
}

TEST(ArenaTape, ParamSetLoadRejectsVersionMismatch)
{
    ParamSet params;
    params.add(2, 1);
    Rng rng(115);
    params[0].uniformInit(rng, 1.0);
    std::string blob = params.save();

    ParamSet other;
    other.add(2, 1);
    other.load(blob); // round-trips

    // Corrupt the version token: load() must reject it loudly
    // instead of silently ignoring it.
    const std::string bad =
        "difftune-nn v9" + blob.substr(blob.find(" 1\n"));
    EXPECT_THROW(other.load(bad), std::runtime_error);

    const std::string bad_magic =
        "difftune-xx v1" + blob.substr(blob.find(" 1\n"));
    EXPECT_THROW(other.load(bad_magic), std::runtime_error);
}

} // namespace
} // namespace difftune::nn
