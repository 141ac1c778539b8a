/**
 * @file
 * Order statistics for the benchmark's timings.
 *
 * A timing is reported as its median plus the highest percentile the
 * sample supports: the highest rung of a fixed ladder (p50, p90, p99)
 * that still has at least ten samples beyond it. The sample count is
 * always reported with it, so a p90 standing in for a p99 is visible.
 */

#ifndef PERFBENCH_LIB_STATS_HH
#define PERFBENCH_LIB_STATS_HH

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench
{

/** Samples a percentile needs beyond it before it is reported. */
constexpr size_t kMinSamplesBeyond = 10;

/**
 * Nearest-rank quantile of @p sorted (ascending, non-empty): the
 * sample at rank ceil(p * n), p in [0, 1].
 */
double nearestRank(const std::vector<double> &sorted, double p);

/** Median of @p values: the middle sample, or the mean of the two
 *  middle samples for an even count; 0 when empty. */
double median(std::vector<double> values);

/** Samples strictly beyond the nearest-rank p-quantile of @p n. */
size_t samplesBeyond(size_t n, double p);

/** One reported percentile and the sample that backs it. */
struct Percentile
{
    double p = 0.0;         ///< the percentile chosen, in [0, 1]
    double value = 0.0;     ///< its value (the maximum if none fits)
    size_t n = 0;           ///< samples
    bool supported = false; ///< false: no rung had enough beyond it

    /** "p99 (n=123456)", or "max (n=3; no supported percentile)". */
    std::string describe() const;
};

/**
 * The highest rung of {0.5, 0.9, 0.99} that has at least
 * kMinSamplesBeyond samples beyond it. With too few samples for any
 * rung, the maximum is returned with supported = false.
 */
Percentile tailPercentile(std::vector<double> samples);

} // namespace perfbench

#endif // PERFBENCH_LIB_STATS_HH
