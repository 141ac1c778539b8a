/**
 * @file
 * Load-once promotion of a checkpoint into an immutable, shareable
 * serving bundle.
 *
 * A Checkpoint is a mutable grab-bag fresh off the wire; a
 * ModelSnapshot is what serving engines actually want: the model
 * frozen behind shared_ptr<const>, its weights wrapped in one
 * nn::WeightSnapshot (see nn/snapshot.hh) that every executor
 * — across any number of engines — borrows instead of copying, plus
 * the table/distribution sections the DiffTune surrogate needs.
 * Load a file once with loadModelSnapshot and construct as many
 * serve::AsyncEngine instances from it as you like; they share one
 * copy of the weights and every derived table.
 *
 * Validation here covers what any consumer needs (a model must be
 * present and match the process vocabulary); surrogate-specific
 * checks (table/distribution presence and dimensions) stay with the
 * serving engine, which owns the parameter-input transform. All
 * loadModelSnapshot error messages name the offending file.
 */

#ifndef DIFFTUNE_IO_SNAPSHOT_HH
#define DIFFTUNE_IO_SNAPSHOT_HH

#include "io/checkpoint.hh"
#include "nn/snapshot.hh"

namespace difftune::io
{

/**
 * A checkpoint promoted to an immutable serving bundle. Every
 * section sits behind shared_ptr<const>, so engines built from one
 * artifact share the sections themselves, not per-engine copies.
 */
struct ModelSnapshot
{
    /** The frozen model (never trained through this handle). */
    std::shared_ptr<const surrogate::Model> model;
    /** Sampling distribution (input normalizer for paramDim > 0). */
    std::shared_ptr<const params::SamplingDist> dist;
    /** Learned simulator parameter table. */
    std::shared_ptr<const params::ParamTable> table;
    /**
     * The model's weights as one shareable snapshot (owns a
     * reference to the model). Engines bind their executors to this
     * and may attach precomputed input columns at load time — do
     * that before the snapshot is shared across threads.
     */
    std::shared_ptr<nn::WeightSnapshot> weights;
};

/**
 * Promote @p checkpoint (which must carry a model matching the
 * process vocabulary) into a ModelSnapshot. The checkpoint is
 * consumed.
 */
ModelSnapshot makeModelSnapshot(Checkpoint &&checkpoint);

/**
 * Load @p path and promote it. The checkpoint is read and the
 * snapshot constructed exactly once; share the result across
 * engines instead of re-loading. Errors name @p path.
 */
ModelSnapshot loadModelSnapshot(const std::string &path);

} // namespace difftune::io

#endif // DIFFTUNE_IO_SNAPSHOT_HH
