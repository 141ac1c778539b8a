/**
 * @file
 * WeightSnapshot: one immutable, shareable bundle of everything a
 * forward-only executor derives from a frozen ParamSet.
 *
 * Before serving API v2 every nn::BatchedForward owned a private
 * copy of the derived weight state, so a W-shard serving engine
 * held W copies. A WeightSnapshot hoists all of that out of the
 * executor: it borrows the frozen f64 ParamSet in place (zero
 * copy), caches input projections once per (weight, table) pair,
 * and can carry the loader's precomputed constant input columns
 * (the serving engine's per-opcode parameter-input tensors).
 * Executors borrow the snapshot through a shared_ptr, so any number
 * of shards — across any number of engines — share one copy of
 * every derived table.
 *
 * # Immutability and thread safety
 *
 * The bound ParamSet must stay frozen for the snapshot's lifetime,
 * and the snapshot itself is logically immutable: every query
 * returns the same bytes forever. The lazy state is the projection
 * list and the input columns. Projection tables are built
 * thread-safely (an append-only lock-free list with acquire/release
 * publication) and are a pure function of the frozen weights, so a
 * racing reader either sees the published entry or computes the
 * identical value — results never depend on timing. setInputColumns
 * is the one setup-time mutation: call it before the snapshot is
 * shared across threads (the serving engine does so at load time).
 *
 * Bit-exactness: the weights are the ParamSet storage itself and
 * every projected row comes from the shared matvec kernel
 * (nn/matvec_inl.hh) — identical to what a private-copy executor
 * computed before, so sharing changes memory, never results.
 */

#ifndef DIFFTUNE_NN_SNAPSHOT_HH
#define DIFFTUNE_NN_SNAPSHOT_HH

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "nn/graph.hh"

namespace difftune::nn
{

/** Frozen-weight bundle shared by forward-only executors. */
class WeightSnapshot
{
  public:
    /**
     * Bind to @p params, which must stay frozen and alive for the
     * snapshot's lifetime. @p owner (optional) is held to keep the
     * ParamSet's storage alive — e.g. the surrogate::Model that owns
     * it.
     */
    explicit WeightSnapshot(const ParamSet &params,
                            std::shared_ptr<const void> owner = nullptr);
    ~WeightSnapshot();

    WeightSnapshot(const WeightSnapshot &) = delete;
    WeightSnapshot &operator=(const WeightSnapshot &) = delete;

    const ParamSet &params() const { return params_; }

    // ---- Loader-provided constant input columns

    /**
     * Attach precomputed constant input tensors (the serving
     * engine's per-opcode parameter-input columns). Thread-safe:
     * the first caller wins (std::call_once) and later callers —
     * e.g. sibling engines binding the same snapshot concurrently —
     * discard their argument and synchronize with the winner's
     * write. Safe because the columns are a pure function of the
     * frozen checkpoint, so every caller computes identical ones.
     */
    void setInputColumns(std::vector<Tensor> columns);

    const std::vector<Tensor> &
    inputColumns() const
    {
        return inputColumns_;
    }

    /**
     * Whether a setInputColumns call has completed. An acquire
     * read: a true result also makes the columns themselves visible,
     * so sibling engines can skip recomputing them entirely.
     */
    bool
    hasInputColumns() const
    {
        return columnsSet_.load(std::memory_order_acquire);
    }

    /**
     * The projection of every row of parameter table @p table
     * through weight @p wx (lazy; cached once per (wx, table) pair
     * for the snapshot's lifetime). Row r of the result is the
     * shared matvec kernel's product of @p wx against table row r —
     * bit-identical to running that matvec at step time. @p rows is
     * the output height (4H for an LSTM input weight), @p in_dim the
     * table row width.
     */
    const double *projTable(int wx, int table, int rows,
                            int in_dim) const;

    // ---- Memory accounting (for the serving CLI / bench / tests)

    /** Bytes of the borrowed f64 ParamSet storage (not owned). */
    size_t f64Bytes() const;

    /** Bytes of all cached input projections (grows lazily). */
    size_t projBytes() const;

    /** Bytes of the attached constant input columns. */
    size_t inputColumnBytes() const;

    /**
     * Bytes of derived state this snapshot deduplicates: everything
     * a pre-v2 executor would have copied per shard (projection
     * tables + input columns). The f64 weights are excluded — they
     * were always read in place.
     */
    size_t
    sharedBytes() const
    {
        return projBytes() + inputColumnBytes();
    }

  private:
    /** One published (wx, table) projection; append-only list node. */
    struct ProjNode
    {
        int wx = -1;
        int table = -1;
        std::vector<double> data;
        ProjNode *next = nullptr;
    };

    const ParamSet &params_;
    std::shared_ptr<const void> owner_;
    std::once_flag columnsOnce_;
    std::atomic<bool> columnsSet_{false};
    std::vector<Tensor> inputColumns_;

    mutable std::atomic<ProjNode *> proj_{nullptr};
};

} // namespace difftune::nn

#endif // DIFFTUNE_NN_SNAPSHOT_HH
