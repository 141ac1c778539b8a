/**
 * @file
 * Deterministic fork-join parallel-for over index ranges.
 *
 * Work is partitioned into contiguous shards, one per worker. The
 * shard count is min(requested workers, pool size, n), and the pool
 * size defaults to the host's core count (workerThreads()), so the
 * partition itself depends on the host. No caller reduces over
 * shards: parallelFor, the fidelity check and predictAll write
 * per-item results, and core::BatchRunner uses the shards only as
 * worker lanes that claim fixed-size chunks whose partials combine in
 * a fixed tree (core/trainer.hh). Every result is therefore the same
 * on any core count. A new caller that sums per-shard partials would
 * break that; reduce over a partition that depends on n alone.
 */

#ifndef DIFFTUNE_BASE_PARALLEL_HH
#define DIFFTUNE_BASE_PARALLEL_HH

#include <cstddef>
#include <functional>

namespace difftune
{

/**
 * Run @p body(begin, end, shard) over a deterministic partition of
 * [0, n) into at most @p max_workers contiguous shards. The calling
 * thread participates; shard 0 runs on the caller.
 *
 * @param n total number of items
 * @param max_workers upper bound on concurrency (<=0: use default)
 * @param body callable (size_t begin, size_t end, int shard)
 * @return the number of shards actually used
 */
int parallelShards(
    size_t n, int max_workers,
    const std::function<void(size_t, size_t, int)> &body);

/**
 * Items per shard when [0, n) is split into at most @p shards
 * contiguous shards, as parallelShards splits once it has settled
 * the shard count: shard s covers [s * chunk, min(n, (s + 1) *
 * chunk)), and fewer than @p shards are used when n is small.
 * 0 when n is 0.
 */
size_t shardChunk(size_t n, size_t shards);

/** parallelShards with per-item granularity body(i). */
void parallelFor(size_t n, int max_workers,
                 const std::function<void(size_t)> &body);

} // namespace difftune

#endif // DIFFTUNE_BASE_PARALLEL_HH
