/**
 * @file
 * The benchmark's metric catalogue and its result record.
 *
 * Every run prints a readable table and then, as its last line, one
 * JSON object {"correct", "attempted", "failed", "metrics"}. An
 * untraced run's metrics are exactly the end-to-end catalogue; a
 * traced run's are exactly the per-layer catalogue. Every workload
 * emits every metric of the catalogue it prints. Each entry names the
 * workload that measures it, or none when every workload does; a
 * metric the running workload should measure and did not is a
 * failure, and a metric of a layer the workload does not use reads 0
 * and is marked idle.
 */

#ifndef PERFBENCH_LIB_REPORT_HH
#define PERFBENCH_LIB_REPORT_HH

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench
{

/** One catalogue entry. */
struct MetricSpec
{
    const char *name;
    const char *unit;
    /** The one workload that measures it; nullptr: every workload. */
    const char *on = nullptr;

    /** Whether workload @p workload must measure this metric. */
    bool measuredOn(const std::string &workload) const;
};

/** The end-to-end metrics, in print order. */
const std::vector<MetricSpec> &endToEndMetrics();

/** The per-layer metrics, in print order. */
const std::vector<MetricSpec> &perLayerMetrics();

/** Whether @p name matches [A-Za-z0-9_.-]+. */
bool validMetricName(std::string_view name);

/** @p s as a JSON string literal. */
std::string jsonString(const std::string &s);

/** @p v with all its digits (%.17g). */
std::string jsonNumber(double v);

/** One run's measurements and correctness tally. */
class Report
{
  public:
    /** Record metric @p name (a catalogue name); @p note is shown in
     *  the readable table only. A non-finite value is a failure. */
    void set(const std::string &name, double value,
             const std::string &note = "");

    bool has(const std::string &name) const;
    double get(const std::string &name) const;

    /** Count @p n operations attempted. */
    void attempt(uint64_t n = 1) { attempted_ += n; }

    /** Count @p n failed operations, with the reason. */
    void fail(const std::string &why, uint64_t n = 1);

    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return failed_; }
    bool correct() const { return failed_ == 0 && attempted_ > 0; }

    /**
     * Print the table of @p specs and then the JSON result line.
     * A spec that @p workload measures (MetricSpec::measuredOn) and
     * that has no value is a failure. Any other spec reads 0 as an
     * idle layer; a value set for it is a failure too, since the
     * catalogue then misstates what the workload measures.
     */
    void emit(std::FILE *out, const std::vector<MetricSpec> &specs,
              const std::string &workload);

    /** The JSON result line emit() prints (without the newline). */
    std::string resultJson(const std::vector<MetricSpec> &specs) const;

  private:
    struct Value
    {
        double value = 0.0;
        std::string note;
    };
    std::map<std::string, Value> values_;
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
    std::vector<std::string> reasons_;
};

} // namespace perfbench

#endif // PERFBENCH_LIB_REPORT_HH
