/**
 * @file
 * Batched forward-only execution kernels.
 *
 * Bit-stability contract (kF64): every per-lane expression below
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
#include <bit>
#include <cmath>
#include <type_traits>

namespace difftune::nn
{

const char *
precisionName(Precision precision)
{
    return precision == Precision::kF64 ? "f64" : "f32";
}

template <> BatchedForward::Lanes<double> &
BatchedForward::lanes()
{
    return f64_;
}

template <> BatchedForward::Lanes<float> &
BatchedForward::lanes()
{
    return f32_;
}

template <> const BatchedForward::Lanes<double> &
BatchedForward::lanes() const
{
    return f64_;
}

template <> const BatchedForward::Lanes<float> &
BatchedForward::lanes() const
{
    return f32_;
}

template <> const double *
BatchedForward::weight(int index) const
{
    // kF64 reads the ParamSet storage in place (the zero-copy
    // argument from Graph::param: weights are never written during a
    // forward pass).
    return params_[index].data.data();
}

template <> const float *
BatchedForward::weight(int index) const
{
    return snapshot_->weightF32(index);
}

BatchedForward::BatchedForward(
    std::shared_ptr<const WeightSnapshot> snapshot,
    Precision precision)
    : snapshot_(std::move(snapshot)), params_(snapshot_->params()),
      precision_(precision)
{
    // The f32 panels live in the snapshot: the first kF32 bind pays
    // the one-time conversion, every later bind reuses it.
    if (precision_ == Precision::kF32)
        snapshot_->ensureF32();
}

BatchedForward::BatchedForward(const ParamSet &params,
                               Precision precision)
    : BatchedForward(std::make_shared<WeightSnapshot>(params),
                     precision)
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
    if (precision_ == Precision::kF64)
        f64_.in.clear();
    else
        f32_.in.clear();
}

int
BatchedForward::addLane(int steps)
{
    panic_if(dim_ == 0, "addLane before begin()");
    panic_if(steps <= 0, "addLane: lane needs >= 1 steps, got {}",
             steps);
    Lane lane;
    lane.len = steps;
    const size_t doubles = size_t(steps) * dim_;
    if (precision_ == Precision::kF64) {
        lane.off = f64_.in.size();
        f64_.in.resize(lane.off + doubles);
    } else {
        lane.off = f32_.in.size();
        f32_.in.resize(lane.off + doubles);
    }
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
    if (precision_ == Precision::kF64) {
        std::copy(x, x + n, f64_.in.begin() + long(at));
    } else {
        for (int i = 0; i < n; ++i)
            f32_.in[at + i] = float(x[i]);
    }
}

void
BatchedForward::setInputParamRow(int lane, int step, int offset,
                                 int table_index, int row)
{
    const Tensor &table = params_[table_index];
    panic_if(row < 0 || row >= table.rows,
             "setInputParamRow: row {} of {}", row, table.rows);
    if (precision_ == Precision::kF64) {
        setInput(lane, step, offset, table.row(row), table.cols);
    } else {
        panic_if(lane < 0 || size_t(lane) >= lanes_.size(),
                 "setInputParamRow: lane {} of {}", lane,
                 lanes_.size());
        panic_if(step < 0 || step >= lanes_[size_t(lane)].len,
                 "setInputParamRow: step {} of {}", step,
                 lanes_[size_t(lane)].len);
        panic_if(offset < 0 || offset + table.cols > dim_,
                 "setInputParamRow: [{}, {}) out of dim {}", offset,
                 offset + table.cols, dim_);
        // Gather from the converted weights — identical bits to
        // converting the double row here (float(double) is a pure
        // function), but no per-use conversion cost.
        const float *src = weight<float>(table_index) +
                           size_t(row) * table.cols;
        const size_t at =
            lanes_[size_t(lane)].off + size_t(step) * dim_ + offset;
        std::copy(src, src + table.cols, f32_.in.begin() + long(at));
    }
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
    if (precision_ == Precision::kF64) {
        panic_if(src_lane < 0 ||
                     size_t(src_lane + 1) * lastHidden_ >
                         f64_.finalH.size(),
                 "setInputPrevHidden: bad source lane {}", src_lane);
        const double *src =
            f64_.finalH.data() + size_t(src_lane) * lastHidden_;
        std::copy(src, src + lastHidden_, f64_.in.begin() + long(at));
    } else {
        panic_if(src_lane < 0 ||
                     size_t(src_lane + 1) * lastHidden_ >
                         f32_.finalH.size(),
                 "setInputPrevHidden: bad source lane {}", src_lane);
        const float *src =
            f32_.finalH.data() + size_t(src_lane) * lastHidden_;
        std::copy(src, src + lastHidden_, f32_.in.begin() + long(at));
    }
}

namespace
{

/**
 * Lanes per group in runImpl: the lanes entry holds one ymm
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
 * the combining pass of graph.cc's fused lstmStep, so the kF64
 * batched forward is bit-identical to the sequential engine by
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
template <typename T>
inline void
laneGatesCombine(const T *wxx, const T *__restrict whh,
                 const T *__restrict bias, T *z, int rows)
{
    if (whh) {
        for (int r = 0; r < rows; ++r)
            z[r] = (wxx[r] + whh[r]) + bias[r];
    } else {
        for (int r = 0; r < rows; ++r)
            z[r] = (wxx[r] + T(0)) + bias[r];
    }
}

/**
 * Fast float e^x for the kF32 serving mode: Cephes-style range
 * reduction (x = n ln2 + r with the round-to-nearest magic-number
 * trick, so no floor() call blocks vectorization on baseline SSE2)
 * plus a degree-6 polynomial for e^r, scaled by 2^n through the
 * exponent bits. Pure float mul/add/convert — deterministic, inlines
 * into the cell-update loop and auto-vectorizes. Relative error is
 * ~1 ulp (~1e-7), far inside the serving mode's 1e-5 gate; inputs
 * are clamped to +-87, past which the true sigmoid/tanh saturate
 * anyway.
 *
 * kF64 never touches this: the double path calls libm so it stays
 * bit-identical to the graph engine.
 */
inline float
fastExpF32(float x)
{
    x = std::min(87.0f, std::max(-87.0f, x));
    // Round x/ln2 to the nearest integer without floor(): adding
    // 1.5 * 2^23 forces the mantissa to integer granularity.
    const float t = x * 1.44269504088896341f;
    const float magic = 12582912.0f; // 1.5 * 2^23
    const float fn = (t + magic) - magic;
    // r = x - n ln2 in two steps (hi/lo split of ln2) keeps r exact.
    const float r = (x - fn * 0.693359375f) - fn * -2.12194440e-4f;
    // e^r on [-ln2/2, ln2/2]: Cephes expf polynomial.
    float p = 1.9875691500e-4f;
    p = p * r + 1.3981999507e-3f;
    p = p * r + 8.3334519073e-3f;
    p = p * r + 4.1665795894e-2f;
    p = p * r + 1.6666665459e-1f;
    p = p * r + 5.0000001201e-1f;
    const float er = (p * r) * r + r + 1.0f;
    // 2^n via the exponent field (n is in [-126, 126] after the
    // input clamp).
    const int32_t n = int32_t(fn);
    const float scale =
        std::bit_cast<float>(uint32_t(n + 127) << 23);
    return er * scale;
}

inline float
fastSigmoidF32(float z)
{
    return 1.0f / (1.0f + fastExpF32(-z));
}

inline float
fastTanhF32(float x)
{
    // (u - 1) / (u + 1) with u = e^{2x}: branchless, saturates
    // correctly in both directions under fastExpF32's input clamp.
    const float u = fastExpF32(2.0f * x);
    return (u - 1.0f) / (u + 1.0f);
}

/**
 * The per-element LSTM cell update of one lane, gate order
 * [i f g o]. In double this is the exact expression chain of
 * graph.cc's lstmStep forward (libm exp/tanh included); in float
 * the transcendentals go through the polynomial kernels above —
 * straight-line arithmetic, the dominant cost of the forward pass
 * at serving widths, and a big part of why the f32 mode is
 * accuracy-gated instead of bit-gated.
 */
template <typename T>
inline void
laneCellUpdate(const T *__restrict z, T *__restrict h,
               T *__restrict c, int hidden)
{
    for (int i = 0; i < hidden; ++i) {
        T gi, gf, gg, go;
        if constexpr (std::is_same_v<T, float>) {
            gi = fastSigmoidF32(z[i]);
            gf = fastSigmoidF32(z[hidden + i]);
            gg = fastTanhF32(z[2 * hidden + i]);
            go = fastSigmoidF32(z[3 * hidden + i]);
        } else {
            gi = T(1) / (T(1) + std::exp(-z[i]));
            gf = T(1) / (T(1) + std::exp(-z[hidden + i]));
            gg = std::tanh(z[2 * hidden + i]);
            go = T(1) / (T(1) + std::exp(-z[3 * hidden + i]));
        }
        const T cnew = (gf * c[i]) + (gi * gg);
        T tc;
        if constexpr (std::is_same_v<T, float>)
            tc = fastTanhF32(cnew);
        else
            tc = std::tanh(cnew);
        h[i] = go * tc;
        c[i] = cnew;
    }
}

} // namespace

template <typename T>
void
BatchedForward::runImpl(const LstmStackRef &stack)
{
    Lanes<T> &ws = lanes<T>();
    const int hidden = stack.hidden;
    const int layers = int(stack.layers.size());
    const int count = int(lanes_.size());
    panic_if(stack.inDim != dim_,
             "run: stack expects {}-wide inputs, batch was built "
             "with {}",
             stack.inDim, dim_);
    panic_if(layers == 0 || hidden == 0, "run: empty stack ref");

    lastHidden_ = hidden;
    ws.finalH.resize(size_t(count) * hidden);
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
    ws.h.assign(size_t(layers) * per_layer, T(0));
    ws.c.assign(size_t(layers) * per_layer, T(0));
    // Per group lane g: z at [g * 4H] and the Wh h product at
    // [(kLaneGroup + g) * 4H].
    const int rows = 4 * hidden;
    ws.gates.resize(size_t(2 * kLaneGroup) * size_t(rows));
    T *zs[kLaneGroup];
    T *whh[kLaneGroup];
    for (int g = 0; g < kLaneGroup; ++g) {
        zs[g] = ws.gates.data() + size_t(g) * rows;
        whh[g] = ws.gates.data() + size_t(kLaneGroup + g) * rows;
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
            const T *wx = weight<T>(layer.wx);
            const T *wh = weight<T>(layer.wh);
            const T *bias = weight<T>(layer.bias);
            T *hl = ws.h.data() + size_t(l) * per_layer;
            T *cl = ws.c.data() + size_t(l) * per_layer;
            for (int s0 = 0; s0 < active; s0 += kLaneGroup) {
                const int n = std::min(kLaneGroup, active - s0);
                const T *wxx[kLaneGroup];
                const T *hs[kLaneGroup];
                const T *xs[kLaneGroup];
                T *xout[kLaneGroup];
                int nx = 0;
                for (int g = 0; g < n; ++g) {
                    const int s = s0 + g;
                    const Lane &lane =
                        lanes_[size_t(order_[size_t(s)])];
                    const T *h = hl + size_t(s) * hidden;
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
                        const T *proj = snapshot_->projTable<T>(
                            layer.wx, tab, rows, in_dim);
                        const int32_t row =
                            rowIdx_[size_t(lane.step0) + size_t(t)];
                        wxx[g] = proj + size_t(row) * rows;
                    } else {
                        xs[nx] = l == 0 ? ws.in.data() + lane.off +
                                              size_t(t) * dim_
                                        : h - per_layer; // layer below
                        xout[nx++] = zs[g];
                        wxx[g] = zs[g];
                    }
                }
                if (nx > 0)
                    matvecLanesT(wx, xs, xout, nx, rows, in_dim);
                // At t = 0 every hidden state is zero: the recurrent
                // product is skipped (see laneGatesCombine).
                if (t > 0)
                    matvecLanesT(wh, hs, whh, n, rows, hidden);
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
        const T *top = ws.h.data() + size_t(layers - 1) * per_layer;
        for (int s = 0; s < active; ++s) {
            const int id = order_[size_t(s)];
            if (lanes_[size_t(id)].len != t + 1)
                continue;
            const T *src = top + size_t(s) * hidden;
            std::copy(src, src + hidden,
                      ws.finalH.begin() +
                          long(size_t(id) * hidden));
        }
    }
}

void
BatchedForward::run(const LstmStackRef &stack)
{
    if (precision_ == Precision::kF64)
        runImpl<double>(stack);
    else
        runImpl<float>(stack);
}

template <typename T>
void
BatchedForward::headAllImpl(const LinearRef &head, double *out) const
{
    const Lanes<T> &ws = lanes<T>();
    panic_if(head.outDim != 1,
             "headAll expects a scalar head, got outDim {}",
             head.outDim);
    panic_if(head.inDim != lastHidden_,
             "headAll: head expects {} inputs, last run produced {}",
             head.inDim, lastHidden_);
    const T *w = weight<T>(head.weight);
    const T b = weight<T>(head.bias)[0];
    for (size_t j = 0; j < lanes_.size(); ++j) {
        const T *hj = ws.finalH.data() + j * lastHidden_;
        T sum = 0;
        for (int k = 0; k < lastHidden_; ++k)
            sum += w[k] * hj[k];
        out[j] = double(sum + b);
    }
}

void
BatchedForward::headAll(const LinearRef &head, double *out) const
{
    if (precision_ == Precision::kF64)
        headAllImpl<double>(head, out);
    else
        headAllImpl<float>(head, out);
}

void
BatchedForward::finalHidden(int lane, double *out) const
{
    panic_if(lastHidden_ == 0, "finalHidden before run()");
    panic_if(lane < 0 ||
                 size_t(lane + 1) * lastHidden_ >
                     (precision_ == Precision::kF64
                          ? f64_.finalH.size()
                          : f32_.finalH.size()),
             "finalHidden: bad lane {}", lane);
    if (precision_ == Precision::kF64) {
        const double *src =
            f64_.finalH.data() + size_t(lane) * lastHidden_;
        std::copy(src, src + lastHidden_, out);
    } else {
        const float *src =
            f32_.finalH.data() + size_t(lane) * lastHidden_;
        for (int i = 0; i < lastHidden_; ++i)
            out[i] = double(src[i]);
    }
}

} // namespace difftune::nn
