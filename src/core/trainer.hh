/**
 * @file
 * Data-parallel minibatch machinery shared by surrogate training,
 * parameter-table training and the Ithemal baseline.
 *
 * A batch is split into fixed logical chunks of consecutive samples
 * (kChunk in trainer.cc). Each chunk sums its samples' gradients and
 * losses, in sample order, into its own reusable Grads; worker lanes,
 * each owning one reusable Graph, claim chunks dynamically. The chunk
 * partials are then combined by a fixed pairwise tree and averaged.
 * The reduction's shape is a function of the batch size alone, so
 * losses and gradients are bit-identical for any worker count, core
 * count, DIFFTUNE_THREADS setting and thread schedule.
 */

#ifndef DIFFTUNE_CORE_TRAINER_HH
#define DIFFTUNE_CORE_TRAINER_HH

#include <functional>
#include <memory>

#include "nn/optim.hh"

namespace difftune::core
{

/**
 * Reusable per-lane and per-chunk training state for one trainable
 * ParamSet.
 */
class BatchRunner
{
  public:
    /**
     * @param trainable the ParamSet receiving gradients
     * @param workers max worker threads (<= 0: library default)
     */
    BatchRunner(const nn::ParamSet &trainable, int workers);

    /**
     * One sample's forward+backward. Must build the loss in @p graph,
     * call backward, and return the scalar loss. Gradients for the
     * trainable set must be accumulated into @p grads.
     */
    using SampleFn =
        std::function<double(size_t index, nn::Graph &graph,
                             nn::Grads &grads)>;

    /**
     * Run @p body for sample indices [begin, end) in parallel,
     * average the gradients into an internal buffer, and return the
     * mean loss. Chunk c covers [begin + c * kChunk, ...) and sums
     * its samples in index order; the chunk partials combine as
     * chunk[c] += chunk[c + s] for s = 1, 2, 4, ..., so the result
     * depends only on the range and the samples, never on how many
     * workers ran it. Call apply() afterwards to take an optimizer
     * step.
     */
    double runBatch(size_t begin, size_t end, const SampleFn &body);

    /** Clip the averaged batch gradient and step the optimizer. */
    void apply(nn::ParamSet &params, nn::Optimizer &optimizer,
               double clip = 0.0);

    const nn::Grads &batchGrads() const { return total_; }

  private:
    int workers_;
    /** One reusable graph per worker lane. */
    std::vector<std::unique_ptr<nn::Graph>> graphs_;
    /** One reusable buffer per chunk; grows to the largest batch. */
    std::vector<nn::Grads> chunkGrads_;
    nn::Grads total_;
};

} // namespace difftune::core

#endif // DIFFTUNE_CORE_TRAINER_HH
