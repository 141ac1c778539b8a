/**
 * @file
 * Tests of the benchmark's own logic: percentile selection, self-time
 * arithmetic, span recording, seeded inputs, and the metric catalogue
 * against BENCHMARK.json.
 *
 *   perfbench_test <path to BENCHMARK.json>
 *
 * (run.py --test builds and runs it). Exits 0 when every check
 * passes; prints each failed check.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bhive/corpus.hh"
#include "bhive/dataset.hh"
#include "lab/trace.hh"
#include "lib/report.hh"
#include "lib/stats.hh"
#include "lib/trace.hh"
#include "lib/workloads.hh"

namespace
{

using namespace perfbench;

int failures = 0;
int checks = 0;

#define CHECK(cond)                                                         \
    do {                                                                    \
        ++checks;                                                           \
        if (!(cond)) {                                                      \
            ++failures;                                                     \
            std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond);     \
        }                                                                   \
    } while (0)

std::vector<double>
iota(size_t n)
{
    std::vector<double> v(n);
    for (size_t i = 0; i < n; ++i)
        v[i] = double(i + 1); // 1..n
    return v;
}

void
testPercentiles()
{
    // Nearest rank: rank ceil(p n), 1-based.
    const std::vector<double> ten = iota(10);
    CHECK(nearestRank(ten, 0.5) == 5.0);
    CHECK(nearestRank(ten, 0.9) == 9.0);
    CHECK(nearestRank(ten, 1.0) == 10.0);
    CHECK(nearestRank(ten, 0.0) == 1.0);
    CHECK(median({3.0, 1.0, 2.0}) == 2.0);
    // An even count: the mean of the two middle samples, so neither
    // half of a two-sample run is hidden.
    CHECK(median({4.0, 1.0}) == 2.5);
    CHECK(median({4.0, 1.0, 3.0, 2.0}) == 2.5);
    CHECK(median({}) == 0.0);

    CHECK(samplesBeyond(1000, 0.99) == 10);
    CHECK(samplesBeyond(999, 0.99) == 9);
    CHECK(samplesBeyond(100, 0.9) == 10);
    CHECK(samplesBeyond(0, 0.5) == 0);

    // p99 needs >= 10 samples beyond it: n = 1000 is the first size.
    Percentile p = tailPercentile(iota(1000));
    CHECK(p.supported && p.p == 0.99 && p.value == 990.0 && p.n == 1000);
    p = tailPercentile(iota(999));
    CHECK(p.supported && p.p == 0.9 && p.value == 900.0);
    p = tailPercentile(iota(100));
    CHECK(p.supported && p.p == 0.9 && p.value == 90.0);
    p = tailPercentile(iota(99));
    CHECK(p.supported && p.p == 0.5 && p.value == 50.0);
    p = tailPercentile(iota(20));
    CHECK(p.supported && p.p == 0.5);
    // Too few samples for any rung: the maximum, flagged.
    p = tailPercentile(iota(19));
    CHECK(!p.supported && p.value == 19.0 && p.n == 19);
    p = tailPercentile({7.0});
    CHECK(!p.supported && p.value == 7.0);
    // Order of the input does not matter.
    std::vector<double> shuffled = iota(1000);
    std::swap(shuffled[0], shuffled[999]);
    CHECK(tailPercentile(shuffled).value == 990.0);
    // The sample count is always printed.
    CHECK(tailPercentile(iota(1000)).describe() == "p99 (n=1000)");
    CHECK(tailPercentile(iota(3)).describe().find("n=3") !=
          std::string::npos);
}

void
testSelfTime()
{
    // No children: the whole interval.
    CHECK(selfTimeNs(0, 100, {}) == 100);
    // Disjoint children.
    CHECK(selfTimeNs(0, 100, {{10, 20}, {30, 50}}) == 70);
    // Overlapping children count once: [10,50) and [60,70).
    CHECK(selfTimeNs(0, 100, {{20, 50}, {10, 30}, {60, 70}}) == 50);
    // Children reaching outside the parent are clipped.
    CHECK(selfTimeNs(10, 100, {{0, 20}, {90, 150}}) == 70);
    // Fully covered; a child nested inside another adds nothing.
    CHECK(selfTimeNs(0, 100, {{0, 100}, {40, 60}}) == 0);
    // Empty or inverted interval.
    CHECK(selfTimeNs(50, 50, {{0, 100}}) == 0);

    // layerTimes: self time counts direct children only.
    std::vector<Span> spans;
    spans.push_back({1, 0, 7, "root", 0, 100});
    spans.push_back({2, 1, 7, "child", 10, 40});
    spans.push_back({3, 2, 7, "grandchild", 15, 25});
    spans.push_back({4, 1, 7, "child", 50, 60});
    const auto t = layerTimes(spans);
    CHECK(t.at("root").totalNs == 100 && t.at("root").selfNs == 60);
    CHECK(t.at("child").count == 2 && t.at("child").totalNs == 40 &&
          t.at("child").selfNs == 30);
    CHECK(t.at("grandchild").selfNs == 10);
}

void
testSpanRecording()
{
    Tracer::clear();
    {
        ScopedSpan off("not recorded"); // tracing is off by default
    }
    CHECK(Tracer::collect().empty());

    Tracer::setEnabled(true);
    {
        ScopedSpan root("root", 42);
        {
            ScopedSpan child("child");
        }
        ScopedSpan own("own request", 43);
    }
    Tracer::setEnabled(false);
    const std::vector<Span> spans = Tracer::collect();
    CHECK(spans.size() == 3);
    if (spans.size() == 3) {
        CHECK(std::string(spans[0].name) == "root" &&
              spans[0].parent == 0 && spans[0].request == 42);
        CHECK(spans[1].parent == spans[0].id && spans[1].request == 42);
        CHECK(spans[2].parent == spans[0].id && spans[2].request == 43);
        for (const Span &s : spans)
            CHECK(s.endNs >= s.startNs);
        CHECK(spans[1].startNs >= spans[0].startNs &&
              spans[1].endNs <= spans[0].endNs);
    }
    Tracer::clear();
    CHECK(Tracer::collect().empty());
}

std::vector<uint32_t>
testSplit(const difftune::bhive::Dataset &dataset)
{
    std::vector<uint32_t> out;
    for (const auto &e : dataset.test())
        out.push_back(e.blockIdx);
    return out;
}

void
testSeededInputs()
{
    using difftune::lab::TraceWorkload;
    // Serving traces: same seed, byte-identical trace; another seed,
    // another trace. Short traces keep this fast; the config is the
    // workload's own.
    const auto hot = [](uint64_t seed) {
        return TraceWorkload::generate(hotTraceConfig(seed, 2000))
            .serialize();
    };
    CHECK(hot(7) == hot(7));
    CHECK(hot(7) != hot(8));
    const auto miss = [](uint64_t seed) {
        return TraceWorkload::generate(missTraceConfig(seed, 2000))
            .serialize();
    };
    CHECK(miss(7) == miss(7));
    CHECK(miss(7) != miss(8));
    CHECK(hotTraceConfig(7, 10).zipfSkew == 1.1 &&
          missTraceConfig(7, 10).zipfSkew == 0.6 &&
          missTraceConfig(7, 10).respellProb == 0.0);

    // tune: the split of its fixed corpus.
    using difftune::bhive::Corpus;
    using difftune::bhive::Dataset;
    const Corpus corpus = Corpus::generate(200, 1);
    const auto uarch = difftune::hw::Uarch::Haswell;
    const Dataset da(corpus, uarch, tuneSplitSeed(7));
    const Dataset db(corpus, uarch, tuneSplitSeed(7));
    const Dataset dc(corpus, uarch, tuneSplitSeed(8));
    CHECK(testSplit(da) == testSplit(db));
    CHECK(testSplit(da) != testSplit(dc));
    CHECK(tuneSplitSeed(7) != tuneSplitSeed(8));
    CHECK(deriveSeed(7, 1) != deriveSeed(7, 2));
}

struct Declared
{
    std::string name, unit;
};

/** The entries of JSON array @p key in @p json: "name" (+ "unit"). */
std::vector<Declared>
declared(const std::string &json, const std::string &key)
{
    std::vector<Declared> out;
    const size_t at = json.find("\"" + key + "\"");
    if (at == std::string::npos)
        return out;
    const size_t open = json.find('[', at);
    const size_t close = json.find(']', open);
    const std::string body = json.substr(open, close - open);
    const std::regex entry("\\{[^}]*\\}");
    const std::regex name("\"name\"\\s*:\\s*\"([^\"]*)\"");
    const std::regex unit("\"unit\"\\s*:\\s*\"([^\"]*)\"");
    for (auto it = std::sregex_iterator(body.begin(), body.end(), entry);
         it != std::sregex_iterator(); ++it) {
        const std::string e = it->str();
        std::smatch m;
        Declared d;
        if (std::regex_search(e, m, name))
            d.name = m[1];
        if (std::regex_search(e, m, unit))
            d.unit = m[1];
        out.push_back(d);
    }
    return out;
}

/** Emit @p report for @p workload into a scratch file. */
void
emitQuietly(Report &report, const std::vector<MetricSpec> &specs,
            const std::string &workload)
{
    std::FILE *sink = std::tmpfile();
    report.emit(sink, specs, workload);
    std::fclose(sink);
}

/** A record of @p workload with every metric it must measure set. */
Report
fullRecord(const std::vector<MetricSpec> &specs, const std::string &workload,
           const char *skip = nullptr)
{
    Report report;
    report.attempt();
    for (const MetricSpec &spec : specs) {
        if (spec.measuredOn(workload) &&
            (skip == nullptr || std::string(spec.name) != skip))
            report.set(spec.name, 1.5);
    }
    return report;
}

void
checkCatalogue(const std::vector<MetricSpec> &specs,
               const std::vector<Declared> &listed)
{
    CHECK(!listed.empty());
    CHECK(listed.size() == specs.size());
    std::set<std::string> names;
    for (const MetricSpec &spec : specs) {
        CHECK(validMetricName(spec.name));
        CHECK(names.insert(spec.name).second); // no duplicates
        if (spec.on != nullptr) {
            bool known = false;
            for (const std::string &w : workloadNames())
                known = known || w == spec.on;
            CHECK(known);
        }
    }
    for (size_t i = 0; i < listed.size() && i < specs.size(); ++i) {
        CHECK(listed[i].name == specs[i].name);
        CHECK(listed[i].unit == specs[i].unit);
        if (listed[i].name != specs[i].name)
            std::printf("  BENCHMARK.json lists %s where the benchmark "
                        "emits %s\n",
                        listed[i].name.c_str(), specs[i].name);
    }

    for (const std::string &workload : workloadNames()) {
        // A record emits exactly the catalogue: every name once, none
        // else; the metrics of layers the workload does not use read 0.
        Report report = fullRecord(specs, workload);
        report.set("not.in.catalogue", 2.0);
        emitQuietly(report, specs, workload);
        CHECK(report.correct());
        const std::string json = report.resultJson(specs);
        for (const MetricSpec &spec : specs) {
            const std::string key = "\"" + std::string(spec.name) + "\":";
            const size_t first = json.find(key);
            CHECK(first != std::string::npos &&
                  json.find(key, first + 1) == std::string::npos);
            const std::string value =
                spec.measuredOn(workload) ? "1.5" : "0";
            CHECK(json.find(key + " {\"value\": " + value + ",") !=
                  std::string::npos);
        }
        CHECK(json.find("not.in.catalogue") == std::string::npos);

        // A metric the workload must measure, left unset, fails the
        // record; so does a value for a layer it is listed as idle on.
        for (const MetricSpec &spec : specs) {
            if (spec.measuredOn(workload)) {
                Report missing = fullRecord(specs, workload, spec.name);
                emitQuietly(missing, specs, workload);
                CHECK(!missing.correct() && missing.failed() == 1);
            } else {
                Report stray = fullRecord(specs, workload);
                stray.set(spec.name, 1.5);
                emitQuietly(stray, specs, workload);
                CHECK(!stray.correct() && stray.failed() == 1);
            }
        }
    }
}

void
testCatalogue(const std::string &benchmark_json)
{
    std::ifstream in(benchmark_json);
    CHECK(bool(in));
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string json = buffer.str();
    checkCatalogue(endToEndMetrics(), declared(json, "end_to_end"));
    checkCatalogue(perLayerMetrics(), declared(json, "per_layer"));
    bool has_setup = false;
    for (const MetricSpec &spec : endToEndMetrics()) {
        has_setup = has_setup || std::string(spec.name) == "setup_s";
        CHECK(spec.on == nullptr); // every workload reports each one
    }
    CHECK(has_setup);
    const auto workloads = declared(json, "workloads");
    CHECK(workloads.size() == workloadNames().size());
    for (size_t i = 0; i < workloads.size() && i < workloadNames().size();
         ++i)
        CHECK(workloads[i].name == workloadNames()[i]);

    // The result line's shape and full-precision numbers.
    Report report;
    report.attempt(3);
    report.set("setup_s", 1.25);
    const std::string line = report.resultJson({{"setup_s", "s"}});
    CHECK(line == "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
                  "\"metrics\": {\"setup_s\": {\"value\": 1.25, "
                  "\"unit\": \"s\"}}}");
    // Every digit survives: the printed value parses back exactly.
    CHECK(std::strtod(jsonNumber(0.1234567890123).c_str(), nullptr) ==
          0.1234567890123);
    report.set("setup_s", std::nan(""));
    CHECK(!report.correct());
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 2) {
        std::fprintf(stderr, "usage: perfbench_test <BENCHMARK.json>\n");
        return 2;
    }
    testPercentiles();
    testSelfTime();
    testSpanRecording();
    testSeededInputs();
    testCatalogue(argv[1]);
    std::printf("%d checks, %d failed\n", checks, failures);
    return failures == 0 ? 0 : 1;
}
