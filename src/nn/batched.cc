/**
 * @file
 * Batched forward-only execution kernels.
 *
 * Bit-stability contract: every per-lane expression below
 * replicates graph.cc's fused kernels exactly — each gate
 * pre-activation is (wx_r . x + wh_r . h) + b_r with both dot
 * products accumulated in ascending k order, and the cell update is
 * the per-element chain of lstmStep. Lanes are arithmetically
 * independent, so lockstep batching and the lane-blocked inner loops
 * (independent accumulator chains, k order preserved) cannot change
 * any lane's bits. When touching a kernel, keep the expression
 * associativity exactly as written.
 */

#include "nn/batched.hh"

#include "nn/matvec_inl.hh"

#include <algorithm>
#include <cmath>

namespace difftune::nn
{

BatchedForward::BatchedForward(
    std::shared_ptr<const WeightSnapshot> snapshot)
    : snapshot_(std::move(snapshot)), params_(snapshot_->params())
{
}

BatchedForward::BatchedForward(const ParamSet &params)
    : BatchedForward(std::make_shared<WeightSnapshot>(params))
{
}

void
BatchedForward::begin(int dim)
{
    panic_if(dim <= 0, "BatchedForward::begin: dim {} <= 0", dim);
    dim_ = dim;
    lanes_.clear();
    rowTab_.clear();
    rowIdx_.clear();
    in_.clear();
}

int
BatchedForward::addLane(int steps)
{
    panic_if(dim_ == 0, "addLane before begin()");
    panic_if(steps <= 0, "addLane: lane needs >= 1 steps, got {}",
             steps);
    Lane lane;
    lane.len = steps;
    lane.off = in_.size();
    in_.resize(lane.off + size_t(steps) * dim_);
    lane.step0 = int32_t(lane.off / size_t(dim_));
    rowTab_.resize(size_t(lane.step0) + size_t(steps), -1);
    rowIdx_.resize(size_t(lane.step0) + size_t(steps), -1);
    lanes_.push_back(lane);
    return int(lanes_.size()) - 1;
}

void
BatchedForward::setInput(int lane, int step, int offset,
                         const double *x, int n)
{
    panic_if(lane < 0 || size_t(lane) >= lanes_.size(),
             "setInput: lane {} of {}", lane, lanes_.size());
    panic_if(step < 0 || step >= lanes_[size_t(lane)].len,
             "setInput: step {} of {}", step,
             lanes_[size_t(lane)].len);
    panic_if(offset < 0 || offset + n > dim_,
             "setInput: [{}, {}) out of dim {}", offset, offset + n,
             dim_);
    const size_t at =
        lanes_[size_t(lane)].off + size_t(step) * dim_ + offset;
    // A raw write makes the step's value no longer a pure table row.
    rowTab_[size_t(lanes_[size_t(lane)].step0) + size_t(step)] = -1;
    std::copy(x, x + n, in_.begin() + long(at));
}

void
BatchedForward::setInputParamRow(int lane, int step, int offset,
                                 int table_index, int row)
{
    const Tensor &table = params_[table_index];
    panic_if(row < 0 || row >= table.rows,
             "setInputParamRow: row {} of {}", row, table.rows);
    setInput(lane, step, offset, table.row(row), table.cols);
    // A step whose whole input is one table row is marked with its
    // provenance so run() can use the precomputed Wx projection of
    // that row (an embedding gather skips its layer-0 input matvec).
    const size_t mark =
        size_t(lanes_[size_t(lane)].step0) + size_t(step);
    if (offset == 0 && table.cols == dim_) {
        rowTab_[mark] = int32_t(table_index);
        rowIdx_[mark] = int32_t(row);
    } else {
        rowTab_[mark] = -1;
    }
}

void
BatchedForward::setInputPrevHidden(int lane, int step, int offset,
                                   int src_lane)
{
    panic_if(lastHidden_ == 0,
             "setInputPrevHidden: no previous run()");
    panic_if(lane < 0 || size_t(lane) >= lanes_.size(),
             "setInputPrevHidden: lane {} of {}", lane, lanes_.size());
    panic_if(step < 0 || step >= lanes_[size_t(lane)].len,
             "setInputPrevHidden: step {} of {}", step,
             lanes_[size_t(lane)].len);
    panic_if(offset < 0 || offset + lastHidden_ > dim_,
             "setInputPrevHidden: [{}, {}) out of dim {}", offset,
             offset + lastHidden_, dim_);
    const size_t at =
        lanes_[size_t(lane)].off + size_t(step) * dim_ + offset;
    rowTab_[size_t(lanes_[size_t(lane)].step0) + size_t(step)] = -1;
    panic_if(src_lane < 0 ||
                 size_t(src_lane + 1) * lastHidden_ > finalH_.size(),
             "setInputPrevHidden: bad source lane {}", src_lane);
    const double *src = finalH_.data() + size_t(src_lane) * lastHidden_;
    std::copy(src, src + lastHidden_, in_.begin() + long(at));
}

namespace
{

/**
 * Lanes per group in run(): the lanes entry holds one ymm
 * accumulator per lane, and 8 of them plus a transposed weight block
 * fill the AVX2 register file.
 */
constexpr int kLaneGroup = 8;

/**
 * The gate pre-activations of one lane at one step from its two
 * matvec products:
 *
 *     z = (wxx + whh) + b
 *
 * the combining pass of graph.cc's fused lstmStep, so the batched
 * forward is bit-identical to the sequential engine by
 * construction.
 *
 * whh is null at a lane's first step, where the incoming hidden
 * state is all zero and the (4H x H) recurrent matvec is skipped.
 * Its degenerate per-row sum is always +0.0 for finite weights —
 * the kernel's accumulators start at +0.0 and IEEE-754
 * round-to-nearest gives (+0.0) + (±0.0) = +0.0 for every
 * wh * 0.0 term — so adding a literal +0.0 reproduces the skipped
 * matvec bit for bit at one third fewer multiplies per first step.
 * graph.cc's lstmStep makes the same skip for an all-zero h.
 *
 * wxx may alias z (in-place combine), so neither is restrict.
 */
inline void
laneGatesCombine(const double *wxx, const double *__restrict whh,
                 const double *__restrict bias, double *z, int rows)
{
    if (whh) {
        for (int r = 0; r < rows; ++r)
            z[r] = (wxx[r] + whh[r]) + bias[r];
    } else {
        for (int r = 0; r < rows; ++r)
            z[r] = (wxx[r] + 0.0) + bias[r];
    }
}

/**
 * The per-element LSTM cell update of one lane, gate order
 * [i f g o]: the exact expression chain of graph.cc's lstmStep
 * forward, libm exp/tanh included.
 */
inline void
laneCellUpdate(const double *__restrict z, double *__restrict h,
               double *__restrict c, int hidden)
{
    for (int i = 0; i < hidden; ++i) {
        const double gi = 1.0 / (1.0 + std::exp(-z[i]));
        const double gf = 1.0 / (1.0 + std::exp(-z[hidden + i]));
        const double gg = std::tanh(z[2 * hidden + i]);
        const double go = 1.0 / (1.0 + std::exp(-z[3 * hidden + i]));
        const double cnew = (gf * c[i]) + (gi * gg);
        const double tc = std::tanh(cnew);
        h[i] = go * tc;
        c[i] = cnew;
    }
}

} // namespace

void
BatchedForward::run(const LstmStackRef &stack)
{
    const int hidden = stack.hidden;
    const int layers = int(stack.layers.size());
    const int count = int(lanes_.size());
    panic_if(stack.inDim != dim_,
             "run: stack expects {}-wide inputs, batch was built "
             "with {}",
             stack.inDim, dim_);
    panic_if(layers == 0 || hidden == 0, "run: empty stack ref");

    lastHidden_ = hidden;
    finalH_.resize(size_t(count) * hidden);
    if (count == 0)
        return;

    // Sort lanes by descending length (stable): at step t the lanes
    // still running are the prefix [0, active) of the sorted order —
    // masking by exclusion, which cannot perturb the surviving
    // lanes' numerics.
    order_.resize(size_t(count));
    for (int i = 0; i < count; ++i)
        order_[size_t(i)] = i;
    std::stable_sort(order_.begin(), order_.end(),
                     [this](int a, int b) {
                         return lanes_[size_t(a)].len >
                                lanes_[size_t(b)].len;
                     });

    // Lane-major state: h/c of sorted lane s, layer l, at
    // [l * count + s] * hidden. The zero fill of c is load-bearing:
    // laneCellUpdate reads c at every lane's first step (gf * c[i]),
    // and the sequential engine's initial cell state is exactly
    // zero. h's zero fill is only defensive — the t = 0 recurrent
    // skip below never reads the initial hidden state.
    const size_t per_layer = size_t(count) * hidden;
    h_.assign(size_t(layers) * per_layer, 0.0);
    c_.assign(size_t(layers) * per_layer, 0.0);
    // Per group lane g: z at [g * 4H] and the Wh h product at
    // [(kLaneGroup + g) * 4H].
    const int rows = 4 * hidden;
    gates_.resize(size_t(2 * kLaneGroup) * size_t(rows));
    double *zs[kLaneGroup];
    double *whh[kLaneGroup];
    for (int g = 0; g < kLaneGroup; ++g) {
        zs[g] = gates_.data() + size_t(g) * rows;
        whh[g] = gates_.data() + size_t(kLaneGroup + g) * rows;
    }

    const int max_len = lanes_[size_t(order_[0])].len;
    int active = count;
    for (int t = 0; t < max_len; ++t) {
        while (active > 0 &&
               lanes_[size_t(order_[size_t(active) - 1])].len <= t)
            --active;
        // Layer outer, lane groups inner: one layer's (Wx, Wh) panel
        // serves every active lane before the next layer's. Within a
        // group of up to kLaneGroup lanes each matvec is one lanes
        // call, so a weight block is loaded once per group instead
        // of once per lane. Lanes are arithmetically independent, so
        // neither order change is visible in the results.
        for (int l = 0; l < layers; ++l) {
            const LstmLayerRef &layer = stack.layers[size_t(l)];
            const int in_dim = l == 0 ? dim_ : hidden;
            const double *wx = weight(layer.wx);
            const double *wh = weight(layer.wh);
            const double *bias = weight(layer.bias);
            double *hl = h_.data() + size_t(l) * per_layer;
            double *cl = c_.data() + size_t(l) * per_layer;
            for (int s0 = 0; s0 < active; s0 += kLaneGroup) {
                const int n = std::min(kLaneGroup, active - s0);
                const double *wxx[kLaneGroup];
                const double *hs[kLaneGroup];
                const double *xs[kLaneGroup];
                double *xout[kLaneGroup];
                int nx = 0;
                for (int g = 0; g < n; ++g) {
                    const int s = s0 + g;
                    const Lane &lane =
                        lanes_[size_t(order_[size_t(s)])];
                    const double *h = hl + size_t(s) * hidden;
                    hs[g] = h;
                    const int32_t tab =
                        l == 0
                            ? rowTab_[size_t(lane.step0) + size_t(t)]
                            : -1;
                    if (tab >= 0) {
                        // The step's input is row r of a parameter
                        // table (an embedding gather): its Wx
                        // product is precomputed per vocabulary
                        // entry — in the shared snapshot, once
                        // across all sibling executors — so the
                        // lane drops out of the Wx matvec.
                        const double *proj = snapshot_->projTable(
                            layer.wx, tab, rows, in_dim);
                        const int32_t row =
                            rowIdx_[size_t(lane.step0) + size_t(t)];
                        wxx[g] = proj + size_t(row) * rows;
                    } else {
                        xs[nx] = l == 0 ? in_.data() + lane.off +
                                              size_t(t) * dim_
                                        : h - per_layer; // layer below
                        xout[nx++] = zs[g];
                        wxx[g] = zs[g];
                    }
                }
                if (nx > 0)
                    matvecLanes(wx, xs, xout, nx, rows, in_dim);
                // At t = 0 every hidden state is zero: the recurrent
                // product is skipped (see laneGatesCombine).
                if (t > 0)
                    matvecLanes(wh, hs, whh, n, rows, hidden);
                for (int g = 0; g < n; ++g) {
                    const size_t s = size_t(s0 + g);
                    laneGatesCombine(wxx[g], t > 0 ? whh[g] : nullptr,
                                     bias, zs[g], rows);
                    laneCellUpdate(zs[g], hl + s * hidden,
                                   cl + s * hidden, hidden);
                }
            }
        }
        // Lanes ending at this step hand their top-layer hidden
        // state to finalH, indexed by original lane id.
        const double *top = h_.data() + size_t(layers - 1) * per_layer;
        for (int s = 0; s < active; ++s) {
            const int id = order_[size_t(s)];
            if (lanes_[size_t(id)].len != t + 1)
                continue;
            const double *src = top + size_t(s) * hidden;
            std::copy(src, src + hidden,
                      finalH_.begin() + long(size_t(id) * hidden));
        }
    }
}

void
BatchedForward::headAll(const LinearRef &head, double *out) const
{
    panic_if(head.outDim != 1,
             "headAll expects a scalar head, got outDim {}",
             head.outDim);
    panic_if(head.inDim != lastHidden_,
             "headAll: head expects {} inputs, last run produced {}",
             head.inDim, lastHidden_);
    const double *w = weight(head.weight);
    const double b = weight(head.bias)[0];
    for (size_t j = 0; j < lanes_.size(); ++j) {
        const double *hj = finalH_.data() + j * lastHidden_;
        double sum = 0;
        for (int k = 0; k < lastHidden_; ++k)
            sum += w[k] * hj[k];
        out[j] = sum + b;
    }
}

void
BatchedForward::finalHidden(int lane, double *out) const
{
    panic_if(lastHidden_ == 0, "finalHidden before run()");
    panic_if(lane < 0 ||
                 size_t(lane + 1) * lastHidden_ > finalH_.size(),
             "finalHidden: bad lane {}", lane);
    const double *src = finalH_.data() + size_t(lane) * lastHidden_;
    std::copy(src, src + lastHidden_, out);
}

} // namespace difftune::nn
