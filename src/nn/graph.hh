/**
 * @file
 * Tape-based reverse-mode automatic differentiation.
 *
 * A Graph is a reusable tape: forward ops append nodes, backward()
 * walks the tape in reverse. Model weights live outside the graph in
 * ParamSets; gradients are accumulated into a Grads buffer aligned
 * with the ParamSet, which makes data-parallel training a matter of
 * giving each thread its own Graph + Grads and summing afterwards.
 *
 * Two ParamSets can feed one graph — e.g. the frozen surrogate
 * weights (no gradient accumulation, but gradients still flow
 * *through* them) and the trainable parameter table (DiffTune's
 * phase 4).
 *
 * # Tape / arena lifecycle
 *
 * Nodes are plain structs in one contiguous vector; every value,
 * gradient and fused-op scratch buffer is bump-allocated from
 * pointer-stable slab arenas (DoubleArena). clear() is a high-water
 * mark reset: it drops the tape but keeps every slab and every
 * vector's capacity, so a Graph that is cleared and rebuilt with the
 * same shapes (the trainer's per-shard reuse, the serving engine's
 * per-shard graphs) performs **zero** heap allocation in steady
 * state, and each node's buffers land at the same addresses each
 * iteration — the per-node gradient buffers are effectively cached
 * across minibatch iterations. The tape order *is* the topological
 * order, so backward() is a single reverse sweep with a switch per
 * node; there is no std::function indirection and nothing to
 * re-derive per iteration.
 *
 * backward() zeroes all gradient buffers itself (one memset per
 * arena slab), so each backward() call computes gradients of the
 * current tape from scratch; parameter gradients still *accumulate*
 * into the caller's Grads sinks.
 *
 * # Deferred weight gradients
 *
 * A matvec consumer (lstmStep's Wx/Wh, linear's W, a column-vector
 * matmul's left operand) whose weight is a trainable param() leaf
 * does not apply its outer product dW += dz x^T during the sweep.
 * It records the (dz, x) pointer pair instead — both buffers stay put
 * in the arenas until clear() — and the sweep applies every record
 * of the leaf at once when it reaches the leaf itself, which the
 * tape order guarantees comes after all its consumers. The flush
 * hands the leaf's records, in order, as parallel dz and x pointer
 * arrays to the selected outer-product kernel
 * (MatvecKernels::outerF64, nn/matvec_dispatch.hh), which holds a
 * column block of each gradient row in registers across the records
 * — 32 columns at AVX2 width — so an LSTM weight gradient is read
 * and written once per sweep instead of once per step. The immediate
 * update of a weight that is not deferred is the same kernel with one
 * record, and dx += W^T dz is its sibling entry inputGradF64. Every
 * element receives the same additions in the same order as the
 * immediate update (the dz_i == 0 rows skipped alike), on either
 * dispatch path, so results are bit-identical. Any other use
 * of the leaf in the sweep flushes its pending records first, so
 * non-matvec consumers still see the reference order. The record
 * lists keep their capacity across clear(), like the arenas.
 *
 * # Fused ops
 *
 * The dominant multi-node patterns have single-node fused forms with
 * hand-written backward kernels:
 *
 *   linear()          act(W x + b)      replaces matmul+add(+act)
 *   lstmStep()        one LSTM cell     replaces ~16 nodes
 *   scaledSoftClamp() cap*tanh(s|x|/cap)  replaces abs+scaleByVec+
 *                                         scale+tanh+scale
 *
 * dot() is a fused a^T b reduction in the same style; today its
 * consumers are the gradcheck probes (and any future scalar heads),
 * not a hot path.
 *
 * Every fused kernel replicates the reference composition's
 * per-element operation order exactly, so fused and unfused graphs
 * produce bit-identical values and parameter updates (locked in by
 * tests/test_nn_gradcheck.cc equivalence tests and the golden files
 * under tests/golden/). To add an op: add an Op tag, a builder that
 * fills a Node, a backward case, a gradcheck in
 * tests/test_nn_gradcheck.cc, and — if it replaces a primitive
 * composition — a bit-exactness test against that composition.
 */

#ifndef DIFFTUNE_NN_GRAPH_HH
#define DIFFTUNE_NN_GRAPH_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "nn/tensor.hh"

namespace difftune::nn
{

/** A set of persistent parameters (model weights). */
class ParamSet
{
  public:
    /** Register a parameter; returns its index. */
    int
    add(int rows, int cols)
    {
        params_.emplace_back(rows, cols);
        return int(params_.size()) - 1;
    }

    Tensor &operator[](int i) { return params_[size_t(i)]; }
    const Tensor &operator[](int i) const { return params_[size_t(i)]; }

    size_t count() const { return params_.size(); }

    /** Total scalar parameter count. */
    size_t scalarCount() const;

    /** Serialize all tensors (text, round-trips with load()). */
    std::string save() const;
    /** Load values saved by save(); version and shapes must match. */
    void load(const std::string &text);

  private:
    std::vector<Tensor> params_;
};

/** Per-parameter gradient buffers aligned with a ParamSet. */
class Grads
{
  public:
    explicit Grads(const ParamSet &params);

    Tensor &operator[](int i) { return grads_[size_t(i)]; }
    const Tensor &operator[](int i) const { return grads_[size_t(i)]; }

    size_t count() const { return grads_.size(); }

    void zero();

    /** this += other (elementwise over every tensor). */
    void addFrom(const Grads &other);

    /** Multiply every gradient by @p factor. */
    void scale(double factor);

    /** Global L2 norm across all gradients. */
    double l2Norm() const;

    /** Scale down so the global L2 norm is at most @p max_norm. */
    void clipL2(double max_norm);

  private:
    std::vector<Tensor> grads_;
};

/** Handle to a node in a Graph's tape. */
struct Var
{
    int32_t id = -1;

    bool valid() const { return id >= 0; }
};

/** Elementwise activation selector for fused ops. */
enum class Act : uint8_t
{
    None,
    Sigmoid,
    Tanh,
    Relu,
};

/**
 * Non-owning view of a node's value or gradient. Valid until the
 * owning Graph is cleared or destroyed.
 */
struct TensorView
{
    int rows = 0;
    int cols = 0;
    const double *data = nullptr;

    size_t size() const { return size_t(rows) * size_t(cols); }

    double
    at(int r, int c) const
    {
        return data[size_t(r) * cols + c];
    }

    /** Pointer to row @p r. */
    const double *row(int r) const { return data + size_t(r) * cols; }
};

/**
 * Bump allocator for double buffers: pointer-stable slabs with a
 * high-water-mark reset. reset() keeps every slab, so identical
 * allocation sequences reuse identical addresses with no heap
 * traffic.
 */
class DoubleArena
{
  public:
    /** Allocate @p n doubles (uninitialized). Stable address. */
    double *alloc(size_t n);

    /** High-water-mark reset: drop all allocations, keep slabs. */
    void reset();

    /** memset every double handed out since the last reset() to 0. */
    void zeroUsed();

    /** Doubles handed out since the last reset(). */
    size_t usedDoubles() const { return used_; }

  private:
    /** First slab: 1 k doubles = 8 KB. */
    static constexpr size_t firstSlabDoubles = size_t(1) << 10;
    /** Slab size cap: 256 k doubles = 2 MB. */
    static constexpr size_t maxSlabDoubles = size_t(1) << 18;

    struct Slab
    {
        std::unique_ptr<double[]> data;
        size_t cap = 0;
        size_t used = 0;
    };

    std::vector<Slab> slabs_;
    size_t cur_ = 0;  ///< slab currently allocated from
    size_t used_ = 0; ///< total doubles since reset()
};

/** Reusable reverse-mode tape (see file comment for the lifecycle). */
class Graph
{
  public:
    Graph() = default;
    Graph(const Graph &) = delete;
    Graph &operator=(const Graph &) = delete;

    /** Reset the tape for reuse (keeps slabs and capacity). */
    void clear();

    /**
     * Number of distinct parameter leaves materialized (parameter
     * nodes are cached per graph, so repeated uses of one weight —
     * e.g. an LSTM cell stepped over a sequence — share one node and
     * one value copy).
     */
    size_t numCachedParams() const { return paramCache_.size(); }

    // ---- Leaves

    /** Constant input (no gradient); the value is copied in. */
    Var input(const Tensor &value);

    /** Constant scalar column-vector input of size 1. */
    Var inputScalar(double value);

    /** Constant all-zero (rows x cols) input. */
    Var zeros(int rows, int cols);

    /**
     * Parameter leaf. If @p sink is non-null, backward() accumulates
     * the parameter's gradient into (*sink)[index]; a null sink means
     * the parameter is frozen (gradients still flow through uses).
     */
    Var param(const ParamSet &params, int index, Grads *sink);

    /**
     * One row of a parameter as a column vector (embedding lookup /
     * parameter-table gather).
     */
    Var paramRow(const ParamSet &params, int index, int row,
                 Grads *sink);

    // ---- Primitive ops (all shapes are checked)

    Var matmul(Var a, Var b);   ///< (m x k) * (k x n)
    Var add(Var a, Var b);      ///< elementwise
    Var sub(Var a, Var b);      ///< elementwise
    Var mul(Var a, Var b);      ///< elementwise (Hadamard)
    Var scale(Var a, double c); ///< a * c
    Var scaleByVec(Var a, const std::vector<double> &factors);
    Var sigmoid(Var a);
    Var tanh(Var a);
    Var relu(Var a);
    Var abs(Var a);
    Var exp(Var a); ///< elementwise e^x (clamped at x = 30 for safety)
    Var slice(Var a, int row0, int nrows); ///< rows of a column vector
    Var concat(const std::vector<Var> &parts); ///< stack column vectors

    // ---- Fused ops (bit-identical to their primitive compositions)

    /** act(W x + b): fused matmul + bias + activation. */
    Var linear(Var w, Var x, Var b, Act act = Act::None);

    /** Hidden and cell state of one fused LSTM step. */
    struct LstmState
    {
        Var h;
        Var c;
    };

    /**
     * One fused LSTM cell step (gate order [i f g o], forget-gate
     * layout as in modules.cc). One node replaces the ~16-node
     * primitive composition.
     */
    LstmState lstmStep(Var wx, Var wh, Var bias, Var x, Var h, Var c);

    /** Fused dot-product reduction a^T b for column vectors (1x1). */
    Var dot(Var a, Var b);

    /**
     * cap * tanh(scales_i * |a_i| / cap): the parameter-table input
     * soft clamp, fused from abs + scaleByVec + scale + tanh + scale.
     */
    Var scaledSoftClamp(Var a, const std::vector<double> &scales,
                        double cap);

    // ---- Losses (scalar outputs; target is a constant)

    /** |pred - target| / max(target, floor): the paper's MAPE term. */
    Var lossMape(Var pred, double target, double floor = 1e-3);
    /** |pred - target|. */
    Var lossMae(Var pred, double target);
    /** (pred - target)^2. */
    Var lossMse(Var pred, double target);

    // ---- Access

    TensorView value(Var v) const;
    TensorView grad(Var v) const;

    /** Scalar value of a 1x1 node. */
    double scalarValue(Var v) const;

    /**
     * Reverse pass from @p loss (must be 1x1). Zeroes all node
     * gradients, seeds d(loss)/d(loss) = @p seed and accumulates
     * into parameter sinks.
     */
    void backward(Var loss, double seed = 1.0);

    size_t numNodes() const { return nodes_.size(); }

    /**
     * Route the primitive matmul's matrix-vector paths through the
     * frozen pre-rewrite kernels (nn/ref_kernels.cc). Bit-identical
     * results, pre-rewrite speed — the "old" side of
     * bench_micro_nn's old-vs-new floor. Off by default.
     */
    void setReferenceKernels(bool on) { refKernels_ = on; }

    /** Doubles currently allocated across both arenas (stats). */
    size_t
    arenaDoubles() const
    {
        return varena_.usedDoubles() + garena_.usedDoubles();
    }

    /** Outer products deferred by the last backward() (stats). */
    size_t deferredRecords() const { return deferred_.size(); }

    /** Capacity of the deferral record lists (stats). */
    size_t
    deferredCapacity() const
    {
        return deferred_.capacity() + flushDz_.capacity() +
               flushX_.capacity();
    }

  private:
    enum class Op : uint8_t
    {
        Input,
        Param,
        ParamRow,
        Matmul,
        Add,
        Sub,
        Mul,
        Scale,
        ScaleVec,
        Sigmoid,
        Tanh,
        Relu,
        Abs,
        Exp,
        Slice,
        Concat,
        Linear,
        LstmCell,
        Dot,
        SoftClamp,
        LossMape,
        LossMae,
        LossMse,
    };

    /**
     * One tape entry. Trivially destructible: all buffers live in
     * the arenas, operand lists in extraVars_, op constants in
     * extraData_.
     */
    struct Node
    {
        Op op = Op::Input;
        Act act = Act::None;
        bool requiresGrad = false;
        /** Gradient seeded during the current backward() sweep. */
        bool gradLive = false;
        int rows = 0;
        int cols = 0;
        double *val = nullptr;  ///< value, varena_ (Slice: aliased)
        double *grad = nullptr; ///< gradient, garena_ (if needed)
        double *aux = nullptr;  ///< fused-op saved state / scratch
        int32_t a = -1, b = -1, c = -1; ///< operand node ids
        int32_t extra = -1; ///< offset into extraVars_ / extraData_
        int32_t i0 = 0, i1 = 0; ///< small int payload
        double c0 = 0.0, c1 = 0.0; ///< small double payload
        Grads *sink = nullptr; ///< Param/ParamRow gradient sink
        /** Param: first / last pending deferred record, or -1. */
        int32_t deferHead = -1, deferTail = -1;
    };

    /** One deferred outer product dW += dz x^T of a Param leaf. */
    struct Deferred
    {
        const double *dz;
        const double *x;
        int32_t next; ///< the leaf's next record, or -1
    };

    Node &node(Var v) { return nodes_[size_t(v.id)]; }
    const Node &node(Var v) const { return nodes_[size_t(v.id)]; }

    /**
     * Append a node with a (rows x cols) value buffer and optional
     * aux space; allocates a gradient buffer iff @p requires_grad.
     */
    Var pushNode(Op op, int rows, int cols, bool requires_grad,
                 size_t aux_doubles = 0);

    /** pushNode without a value allocation (Slice aliases). */
    Var pushAliasNode(Op op, int rows, int cols, bool requires_grad,
                      double *val);

    Var unaryElementwise(Op op, Var a);
    Var lossNode(Op op, Var pred, double target, double value,
                 double denom);

    void backwardNode(Node &n);

    /**
     * An operand of the node being swept, for any use other than a
     * deferrable weight slot: its pending records are flushed first.
     */
    Node &operand(int32_t id);

    /**
     * Record the weight half of a matvec backward, dW += dz x^T, for
     * the trainable weight @p wn if it is a Param leaf and no other
     * operand of the same node (@p alone). Otherwise flush @p wn and
     * return false: the caller applies the update itself.
     */
    bool deferWeightGrad(Node &wn, bool alone, const double *dz,
                         const double *x);

    /** Apply and drop every pending record of Param leaf @p leaf. */
    void flushDeferred(Node &leaf);

    std::vector<Node> nodes_;
    /** (param-set address ^ index ^ row) -> node cache. */
    std::vector<std::pair<uint64_t, Var>> paramCache_;
    /** Operand-id overflow lists (Concat parts, LstmCell inputs). */
    std::vector<int32_t> extraVars_;
    /** Per-op constant vectors (scaleByVec / soft-clamp scales). */
    std::vector<double> extraData_;
    /** Deferred outer products of this sweep (see file comment). */
    std::vector<Deferred> deferred_;
    /** flushDeferred()'s gathered records of one leaf (dz and x
     *  halves, for the outer-product kernel), reused. */
    std::vector<const double *> flushDz_, flushX_;
    DoubleArena varena_; ///< values + fused-op aux
    DoubleArena garena_; ///< gradients (zeroed per backward())
    bool refKernels_ = false; ///< see setReferenceKernels()
};

} // namespace difftune::nn

#endif // DIFFTUNE_NN_GRAPH_HH
