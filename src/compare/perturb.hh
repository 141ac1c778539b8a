/**
 * @file
 * Checkpoint perturbation test hooks for the compare harness.
 *
 * tools/compare_smoke.sh proves the end-to-end contract of
 * `difftune compare` by snapshotting a checkpoint, flipping exactly
 * one weight, and asserting the diff classifies exactly the blocks
 * that weight can influence. The sharpest such weight is an
 * opcode-token embedding row: it feeds the model if and only if the
 * block contains that opcode, so the expected diverged set is
 * computable from block texts alone.
 *
 * These are test hooks, not a tuning API — they rewrite a
 * checkpoint file in place of its semantics on purpose.
 */

#ifndef DIFFTUNE_COMPARE_PERTURB_HH
#define DIFFTUNE_COMPARE_PERTURB_HH

#include <cstddef>
#include <string>

namespace difftune::compare
{

/** What perturbOpcodeEmbedding changed. */
struct PerturbInfo
{
    size_t tensorIndex = 0; ///< position in the model's ParamSet
    int row = 0;
    int col = 0;
    double before = 0.0;
    double after = 0.0;
};

/**
 * Load the checkpoint at @p in_path, add @p delta to element
 * (@p row, @p col) of parameter tensor @p tensor_index, and save to
 * @p out_path (same sections). Fatal on a missing model section or
 * out-of-range coordinates.
 */
PerturbInfo perturbWeight(const std::string &in_path,
                          const std::string &out_path,
                          size_t tensor_index, int row, int col,
                          double delta);

/**
 * Perturb column 0 of the embedding row of @p opcode's token: the
 * embedding tensor is the unique parameter with vocabSize rows, and
 * the row feeds predictions exactly for blocks containing the
 * opcode. Fatal if @p opcode is unknown or no embedding-shaped
 * tensor exists.
 */
PerturbInfo perturbOpcodeEmbedding(const std::string &in_path,
                                   const std::string &out_path,
                                   const std::string &opcode,
                                   double delta = 0.5);

} // namespace difftune::compare

#endif // DIFFTUNE_COMPARE_PERTURB_HH
