/**
 * @file
 * Metric catalogue and result record (see report.hh).
 */

#include "lib/report.hh"

#include <cmath>

namespace perfbench
{

const std::vector<MetricSpec> &
endToEndMetrics()
{
    static const std::vector<MetricSpec> specs = {
        {"setup_s", "s"},
        {"cpu_us_per_op", "us"},
    };
    return specs;
}

const std::vector<MetricSpec> &
perLayerMetrics()
{
    constexpr const char *kTune = "tune";
    constexpr const char *kMiss = "serve_miss";
    static const std::vector<MetricSpec> specs = {
        {"wall.setup_s", "s"},
        {"wall.rps", "1/s"},
        {"wall.latency_p50_us", "us"},
        {"wall.latency_p99_us", "us"},
        {"process.peak_rss_mb", "MB"},
        {"core.phase2_s", "s", kTune},
        {"core.phase3_s", "s", kTune},
        {"core.fidelity_s", "s", kTune},
        {"core.phase4_s", "s", kTune},
        {"core.eval_s", "s", kTune},
        {"core.phase2_sim_evals", "count", kTune},
        {"core.phase4_sim_evals", "count", kTune},
        {"core.learned_test_mape", "%", kTune},
        {"core.learned_test_kendall_tau", "tau", kTune},
        {"surrogate.train_loss", "loss", kTune},
        {"surrogate.fidelity_mape", "%", kTune},
        {"surrogate.inst_cache_hit_ratio", "ratio", kMiss},
        {"nn.train_samples_per_s", "1/s", kTune},
        {"nn.fwd_bwd_us", "us"},
        {"nn.matvec64_ns", "ns"},
        {"nn.matvec64_gflops", "GFLOP/s"},
        {"nn.matvec64_gbytes_per_s", "GB/s"},
        {"nn.lstm_step64_us", "us"},
        {"nn.batched_us_per_block_b1", "us"},
        {"nn.batched_us_per_block_b8", "us"},
        {"nn.batched_us_per_block_b32", "us"},
        {"base.core_utilization", "ratio"},
        {"mca.sim_us_per_block", "us"},
        {"mca.default_test_mape", "%", kTune},
        {"bhive.dataset_build_s", "s", kTune},
        {"io.checkpoint_load_ms", "ms", kMiss},
        {"serve.engine_ready_ms", "ms", kMiss},
        {"isa.parse_ns", "ns"},
        {"isa.intern_ns", "ns"},
        {"isa.intern_hit_ratio", "ratio"},
        {"serve.text_hit_ratio", "ratio", kMiss},
        {"serve.hit_ratio", "ratio", kMiss},
        {"serve.forwards_per_request", "ratio", kMiss},
        {"serve.encode_hit_ratio", "ratio", kMiss},
        {"serve.batch_size_mean", "count", kMiss},
        {"serve.queue_wait_p50_ns", "ns", kMiss},
        {"serve.queue_wait_p99_ns", "ns", kMiss},
        {"serve.coalesce_p50_ns", "ns", kMiss},
        {"serve.forward_us_per_block", "us", kMiss},
        {"serve.stage_accounted_ratio", "ratio", kMiss},
        {"lab.lru_hit_rate", "%", kMiss},
        {"lab.slru_hit_rate", "%", kMiss},
        {"lab.tinylfu_hit_rate", "%", kMiss},
        {"daemon.overhead_p50_us", "us", kMiss},
        {"trace.overhead_ratio", "ratio"},
    };
    return specs;
}

bool
MetricSpec::measuredOn(const std::string &workload) const
{
    return on == nullptr || workload == on;
}

bool
validMetricName(std::string_view name)
{
    if (name.empty())
        return false;
    for (const char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_' || c == '.' ||
                        c == '-';
        if (!ok)
            return false;
    }
    return true;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void
Report::set(const std::string &name, double value, const std::string &note)
{
    if (!std::isfinite(value)) {
        fail("metric " + name + " is not finite");
        value = 0.0;
    }
    values_[name] = Value{value, note};
}

bool
Report::has(const std::string &name) const
{
    return values_.count(name) != 0;
}

double
Report::get(const std::string &name) const
{
    const auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second.value;
}

void
Report::fail(const std::string &why, uint64_t n)
{
    failed_ += n;
    if (reasons_.size() < 20)
        reasons_.push_back(why);
}

std::string
Report::resultJson(const std::vector<MetricSpec> &specs) const
{
    std::string metrics;
    for (const MetricSpec &spec : specs) {
        if (!metrics.empty())
            metrics += ", ";
        metrics += jsonString(spec.name) + ": {\"value\": " +
                   jsonNumber(get(spec.name)) +
                   ", \"unit\": " + jsonString(spec.unit) + "}";
    }
    return std::string("{\"correct\": ") + (correct() ? "true" : "false") +
           ", \"attempted\": " + std::to_string(attempted_) +
           ", \"failed\": " + std::to_string(failed_) +
           ", \"metrics\": {" + metrics + "}}";
}

void
Report::emit(std::FILE *out, const std::vector<MetricSpec> &specs,
             const std::string &workload)
{
    for (const MetricSpec &spec : specs) {
        const bool measured = has(spec.name);
        if (spec.measuredOn(workload)) {
            if (!measured)
                fail(std::string("metric ") + spec.name +
                     " was not measured");
        } else if (measured) {
            fail(std::string("metric ") + spec.name + " is listed for " +
                 spec.on + " but was measured on " + workload);
        } else {
            values_[spec.name] = Value{0.0, "idle: layer not used here"};
        }
    }
    for (const MetricSpec &spec : specs) {
        const Value &v = values_[spec.name];
        std::fprintf(out, "  %-34s %16.6g %-8s %s\n", spec.name, v.value,
                     spec.unit, v.note.c_str());
    }
    for (const auto &[name, v] : values_) {
        bool listed = false;
        for (const MetricSpec &spec : specs)
            listed = listed || name == spec.name;
        if (!listed)
            std::fprintf(out, "  (not in this record) %-20s %16.6g %s\n",
                         name.c_str(), v.value, v.note.c_str());
    }
    for (const std::string &why : reasons_)
        std::fprintf(out, "FAIL: %s\n", why.c_str());
    std::fprintf(out, "attempted %llu, failed %llu\n",
                 (unsigned long long)attempted_,
                 (unsigned long long)failed_);
    std::fprintf(out, "%s\n", resultJson(specs).c_str());
    std::fflush(out);
}

} // namespace perfbench
