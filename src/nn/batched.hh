/**
 * @file
 * Batched multi-block forward inference: the serving-side execution
 * mode of the nn/ substrate (no tape, shared weight reads).
 *
 * The autograd Graph executes one block at a time and pays tape
 * construction per node. BatchedForward runs N ragged sequences
 * ("lanes") through an LSTM stack in lockstep with no tape at all.
 * Per step and layer, the active lanes go in groups of up to 8: the
 * group's Wx x products are one lanes call of the matvec dispatch
 * (nn/matvec_dispatch.hh), its Wh h products another, so each
 * weight block is loaded and transposed once per group instead of
 * once per lane; then each lane's gate combine and cell update run
 * as before. Two forward-only shortcuts exploit frozenness:
 *
 *  - first-step skip: a lane's initial hidden state is zero, so the
 *    recurrent matvec at t = 0 collapses to its exact degenerate
 *    result (+0.0 per row — see laneGatesCombine in batched.cc);
 *  - input projections: when a step's input is a row of a parameter
 *    table (an embedding gather, via setInputParamRow), the Wx
 *    product of every table row is precomputed once per (weight,
 *    table) pair and the lane sits out its group's layer-0 Wx call.
 *
 * All weight-derived state — the input-projection tables and the
 * loader's constant input columns — lives in an immutable
 * nn::WeightSnapshot (see nn/snapshot.hh) that the executor borrows
 * through a shared_ptr; the weights themselves are read in place
 * from the snapshot's ParamSet. Any number of executors (e.g. the
 * serving engine's shards) bind one snapshot and share a single
 * copy; an executor only owns its per-batch lane scratch.
 *
 * # Bit-stability contract
 *
 * Every per-lane arithmetic operation replicates the graph engine's
 * per-element expression shape and k-ascending accumulation order
 * exactly — each lane of a lanes call has the bits of the
 * single-vector kernel the graph runs, and both shortcuts above are
 * value-exact — so a batched forward pass is bit-identical to
 * running each lane through its own Graph, regardless of batch
 * size, submission order or the lengths of the other lanes.
 * tests/test_nn_batched.cc and the golden suite lock this in.
 *
 * # Ragged batches and masking
 *
 * Lanes may have different lengths. run() sorts lanes by descending
 * length (stable), so at step t only a contiguous prefix of lanes
 * is still active; finished lanes simply stop being touched —
 * masking by exclusion, which cannot perturb the surviving lanes'
 * numerics. A lane's final hidden state is captured at its own last
 * step.
 *
 * The bound ParamSet must stay frozen for the executor's lifetime
 * (the input projections snapshot it). Usage per LSTM level:
 *
 *     bf.begin(in_dim);
 *     int lane = bf.addLane(steps);
 *     bf.setInput(...) / setInputParamRow(...) / setInputPrevHidden(...)
 *     bf.run(stack_ref);          // finalHidden(lane) now valid
 *     ... begin() the next level (may read the previous finalHidden
 *         via setInputPrevHidden) ...
 *     bf.headAll(head_ref, out);  // scalar head over final hiddens
 */

#ifndef DIFFTUNE_NN_BATCHED_HH
#define DIFFTUNE_NN_BATCHED_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "nn/snapshot.hh"

namespace difftune::nn
{

/** Parameter indices of one LSTM layer (all within one ParamSet). */
struct LstmLayerRef
{
    int wx = -1;   ///< (4H x in) input weights
    int wh = -1;   ///< (4H x H) recurrent weights
    int bias = -1; ///< (4H x 1) bias, forget-gate block at [H, 2H)
};

/** Parameter indices of a stacked LSTM, bottom layer first. */
struct LstmStackRef
{
    std::vector<LstmLayerRef> layers;
    int inDim = 0;  ///< layer-0 input width
    int hidden = 0; ///< hidden width (all layers)
};

/** Parameter indices of a linear layer y = W x + b. */
struct LinearRef
{
    int weight = -1; ///< (out x in)
    int bias = -1;   ///< (out x 1)
    int inDim = 0;
    int outDim = 0;
};

/**
 * Forward-only batched executor over one ParamSet (see the file
 * comment for the execution model and the usage protocol). All
 * scratch is recycled across batches, so a long-lived instance (one
 * per serving shard) allocates nothing in steady state.
 */
class BatchedForward
{
  public:
    /**
     * Borrow @p snapshot (shared with any number of sibling
     * executors); the weights are read from its ParamSet in place.
     */
    explicit BatchedForward(
        std::shared_ptr<const WeightSnapshot> snapshot);

    /**
     * Convenience: bind to @p params through a private snapshot
     * (for standalone users — tests, benches). @p params must
     * outlive the executor; nothing is shared.
     */
    explicit BatchedForward(const ParamSet &params);

    BatchedForward(const BatchedForward &) = delete;
    BatchedForward &operator=(const BatchedForward &) = delete;

    const WeightSnapshot &snapshot() const { return *snapshot_; }

    const std::shared_ptr<const WeightSnapshot> &
    snapshotPtr() const
    {
        return snapshot_;
    }

    // ---- Ragged batch assembly

    /**
     * Start assembling a batch of lanes whose per-step inputs are
     * @p dim wide. Previous finalHidden() results stay readable
     * until the next run().
     */
    void begin(int dim);

    /** Add a lane of @p steps >= 1 steps; returns its lane id. */
    int addLane(int steps);

    /** Fill @p n elements of (lane, step)'s input at @p offset from
     *  @p x. */
    void setInput(int lane, int step, int offset, const double *x,
                  int n);

    /** Input slice = row @p row of parameter @p table_index (an
     *  embedding gather). */
    void setInputParamRow(int lane, int step, int offset,
                          int table_index, int row);

    /** Input slice = the previous run()'s final hidden state of
     *  @p src_lane. */
    void setInputPrevHidden(int lane, int step, int offset,
                            int src_lane);

    // ---- Execution

    /**
     * Advance @p stack over the assembled batch in lockstep. Every
     * lane must have been fully filled. Invalidates the previous
     * run's finalHidden values.
     */
    void run(const LstmStackRef &stack);

    /**
     * Scalar head y_lane = W h_final(lane) + b (outDim must be 1)
     * over every lane of the last run(); writes numLanes() doubles.
     */
    void headAll(const LinearRef &head, double *out) const;

    /**
     * Copy the last run()'s final top-layer hidden state of @p lane
     * into @p out (hidden doubles).
     */
    void finalHidden(int lane, double *out) const;

    size_t numLanes() const { return lanes_.size(); }

  private:
    struct Lane
    {
        int len = 0;       ///< steps
        size_t off = 0;    ///< offset of step 0 in in_
        int32_t step0 = 0; ///< off / dim: index into the step marks
    };

    /** Base pointer of parameter @p index (read in place). */
    const double *
    weight(int index) const
    {
        return params_[index].data.data();
    }

    std::shared_ptr<const WeightSnapshot> snapshot_;
    const ParamSet &params_; ///< snapshot_->params(), cached

    int dim_ = 0;           ///< input width of the batch being built
    int lastHidden_ = 0;    ///< hidden width of the last run()
    std::vector<Lane> lanes_;
    std::vector<int> order_; ///< lane ids sorted by length descending
    /**
     * Per-step input provenance, indexed lane.step0 + step: the
     * (table, row) a full-width setInputParamRow filled it from, or
     * (-1, -1) for raw inputs. Lets run() use the precomputed
     * Wx-projection of that row instead of a per-step matvec.
     */
    std::vector<int32_t> rowTab_;
    std::vector<int32_t> rowIdx_;

    std::vector<double> in_;     ///< ragged inputs, lane-major
    std::vector<double> h_, c_;  ///< layers x lanes x hidden
    std::vector<double> gates_;  ///< a lane group's z and Wh h
    std::vector<double> finalH_; ///< lanes x hidden (flat)
};

} // namespace difftune::nn

#endif // DIFFTUNE_NN_BATCHED_HH
