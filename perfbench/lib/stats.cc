/**
 * @file
 * Order statistics (see stats.hh).
 */

#include "lib/stats.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench
{

namespace
{

/** 1-based nearest rank of the p-quantile among @p n samples. */
size_t
rankOf(size_t n, double p)
{
    const double r = std::ceil(p * double(n));
    return std::clamp<size_t>(size_t(r), 1, n);
}

} // namespace

double
nearestRank(const std::vector<double> &sorted, double p)
{
    return sorted[rankOf(sorted.size(), p) - 1];
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const size_t mid = values.size() / 2;
    return values.size() % 2 ? values[mid]
                             : 0.5 * (values[mid - 1] + values[mid]);
}

size_t
samplesBeyond(size_t n, double p)
{
    return n == 0 ? 0 : n - rankOf(n, p);
}

std::string
Percentile::describe() const
{
    char buf[96];
    if (!supported) {
        std::snprintf(buf, sizeof buf,
                      "max (n=%zu; no supported percentile)", n);
    } else {
        std::snprintf(buf, sizeof buf, "p%g (n=%zu)", p * 100.0, n);
    }
    return buf;
}

Percentile
tailPercentile(std::vector<double> samples)
{
    Percentile out;
    out.n = samples.size();
    if (samples.empty())
        return out;
    std::sort(samples.begin(), samples.end());
    for (const double p : {0.99, 0.9, 0.5}) {
        if (samplesBeyond(samples.size(), p) < kMinSamplesBeyond)
            continue;
        out.p = p;
        out.value = nearestRank(samples, p);
        out.supported = true;
        return out;
    }
    out.p = 1.0;
    out.value = samples.back();
    return out;
}

} // namespace perfbench
