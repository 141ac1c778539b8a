/**
 * @file
 * Spans the benchmark records around its calls into each layer.
 *
 * A span has a name, a start and an end (steady-clock nanoseconds
 * since the tracer's epoch), the span that was open on the same
 * thread when it began (its parent, 0 for a root), and a request id
 * that a root span sets and its descendants inherit. Spans live in
 * per-thread buffers in memory and are written out once, when the
 * traced run ends. With tracing off a ScopedSpan costs one relaxed
 * load.
 *
 * A layer's self time is its span's duration minus the part of that
 * interval its child spans cover (overlapping children count once).
 */

#ifndef PERFBENCH_LIB_TRACE_HH
#define PERFBENCH_LIB_TRACE_HH

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench
{

/** One recorded span. */
struct Span
{
    uint64_t id = 0;
    uint64_t parent = 0;  ///< 0: a root span
    uint64_t request = 0; ///< 0: not part of a request
    const char *name = ""; ///< a string literal
    uint64_t startNs = 0;
    uint64_t endNs = 0;
};

/** Process-wide span store. */
class Tracer
{
  public:
    static void setEnabled(bool on);
    static bool enabled();

    /** Steady-clock nanoseconds since the tracer's epoch. */
    static uint64_t nowNs();

    /** Every span recorded so far (call with recording threads
     *  quiescent), in per-thread recording order. */
    static std::vector<Span> collect();

    /** Drop every recorded span. */
    static void clear();

    /**
     * Write @p spans as tab-separated lines
     * "id parent request name start_ns end_ns" under a header line.
     * @return false if the file could not be written
     */
    static bool write(const std::string &path,
                      const std::vector<Span> &spans);
};

/** Records one span over its scope when tracing is on. */
class ScopedSpan
{
  public:
    /**
     * @param name a string literal
     * @param request request id (0: inherit the enclosing span's)
     */
    explicit ScopedSpan(const char *name, uint64_t request = 0);
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    bool on_;
    size_t slot_ = 0;
};

/**
 * Self time of an interval [start, end) whose children cover
 * @p children (each [start, end), possibly overlapping each other or
 * reaching outside the parent): the duration minus the union of the
 * children clipped to the parent.
 */
uint64_t selfTimeNs(uint64_t start, uint64_t end,
                    std::vector<std::pair<uint64_t, uint64_t>> children);

/** Per-name totals over a set of spans. */
struct LayerTime
{
    size_t count = 0;
    uint64_t totalNs = 0;
    uint64_t selfNs = 0;
};

/** Total and self time per span name. */
std::map<std::string, LayerTime> layerTimes(const std::vector<Span> &spans);

} // namespace perfbench

#endif // PERFBENCH_LIB_TRACE_HH
