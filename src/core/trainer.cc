/**
 * @file
 * BatchRunner implementation.
 */

#include "core/trainer.hh"

#include <algorithm>
#include <atomic>

#include "base/env.hh"
#include "base/parallel.hh"

namespace difftune::core
{

namespace
{

/**
 * Samples per logical chunk. The paper's batch of 256 is 16 chunks,
 * 4 per worker on a 4-core host, for dynamic balance. A batch of at
 * most kChunk samples is one chunk, i.e. one sequential sum, which
 * is what tests/golden/nn_numerics.txt (6-sample batches) records.
 * Changing the value changes every trained bit.
 */
constexpr size_t kChunk = 16;

} // namespace

BatchRunner::BatchRunner(const nn::ParamSet &trainable, int workers)
    : workers_(workers > 0 ? workers : workerThreads()), total_(trainable)
{
    graphs_.resize(workers_);
    for (auto &graph : graphs_)
        graph = std::make_unique<nn::Graph>();
}

double
BatchRunner::runBatch(size_t begin, size_t end, const SampleFn &body)
{
    const size_t n = end - begin;
    if (n == 0)
        return 0.0;
    const size_t chunks = (n + kChunk - 1) / kChunk;
    while (chunkGrads_.size() < chunks)
        chunkGrads_.push_back(total_);
    std::vector<double> chunk_loss(chunks, 0.0);

    // Lanes claim chunks in any order; each chunk's sum is sequential
    // in sample order, so its bits do not depend on the claiming lane.
    std::atomic<size_t> next{0};
    parallelShards(std::min(chunks, size_t(workers_)), workers_,
                   [&](size_t, size_t, int lane) {
                       nn::Graph &graph = *graphs_[lane];
                       for (size_t c = next++; c < chunks; c = next++) {
                           nn::Grads &grads = chunkGrads_[c];
                           grads.zero();
                           const size_t lo = begin + c * kChunk;
                           const size_t hi = std::min(end, lo + kChunk);
                           double loss = 0.0;
                           for (size_t i = lo; i < hi; ++i) {
                               graph.clear();
                               loss += body(i, graph, grads);
                           }
                           chunk_loss[c] = loss;
                       }
                   });

    // Fixed stride-doubling pairwise tree over the chunk partials.
    for (size_t stride = 1; stride < chunks; stride *= 2) {
        for (size_t c = 0; c + stride < chunks; c += 2 * stride) {
            chunkGrads_[c].addFrom(chunkGrads_[c + stride]);
            chunk_loss[c] += chunk_loss[c + stride];
        }
    }
    total_.zero();
    total_.addFrom(chunkGrads_[0]);
    total_.scale(1.0 / double(n));
    return chunk_loss[0] / double(n);
}

void
BatchRunner::apply(nn::ParamSet &params, nn::Optimizer &optimizer,
                   double clip)
{
    if (clip > 0.0)
        total_.clipL2(clip);
    optimizer.step(params, total_);
}

} // namespace difftune::core
