/**
 * @file
 * The repository benchmark's binary.
 *
 *   perfbench --workload <tune|serve_miss> --seed <n> --seconds <s>
 *             --trace <0|1> [--workdir <dir>] [--git-sha <sha>]
 *
 * Prints the environment stamp, a readable table and, as the last
 * line, the JSON result. Exits 0 only when every check passed.
 * run.py in this directory builds this binary and forwards to it.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "base/logging.hh"
#include "lib/env.hh"
#include "lib/report.hh"
#include "lib/workloads.hh"

namespace
{

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--workdir <dir>] "
                 "[--git-sha <sha>]\n",
                 why);
    return 2;
}

bool
parseDouble(const std::string &s, double &out)
{
    try {
        size_t used = 0;
        out = std::stod(s, &used);
        return used == s.size();
    } catch (const std::exception &) {
        return false;
    }
}

bool
parseUint(const std::string &s, uint64_t &out)
{
    if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos)
        return false;
    try {
        out = std::stoull(s);
        return true;
    } catch (const std::exception &) {
        return false;
    }
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::Options options;
    bool have_workload = false, have_seed = false, have_seconds = false,
         have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        double d = 0.0;
        uint64_t u = 0;
        if (flag == "--workload") {
            options.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            if (!parseUint(value, u))
                return usage("--seed takes a whole number");
            options.seed = u;
            have_seed = true;
        } else if (flag == "--seconds") {
            if (!parseDouble(value, d) || !(d > 0.0) || d > 3600.0)
                return usage("--seconds takes a number in (0, 3600]");
            options.seconds = d;
            have_seconds = true;
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                return usage("--trace takes 0 or 1");
            options.trace = value == "1";
            have_trace = true;
        } else if (flag == "--workdir") {
            options.workdir = value;
        } else if (flag == "--git-sha") {
            options.gitSha = value;
        } else {
            return usage(("unknown flag " + flag).c_str());
        }
    }
    if (!have_workload || !have_seed || !have_seconds || !have_trace)
        return usage("--workload, --seed, --seconds and --trace are "
                     "required");
    bool known = false;
    for (const std::string &name : perfbench::workloadNames())
        known = known || name == options.workload;
    if (!known)
        return usage(("unknown workload " + options.workload).c_str());

    // The tune workload runs at experiment scale 0.1 whatever the
    // caller's environment says. Must precede the first read, which
    // caches the value.
    setenv("DIFFTUNE_SCALE", "0.1", 1);
    difftune::setVerbose(false);

    std::error_code ec;
    std::filesystem::create_directories(options.workdir, ec);
    if (ec) {
        std::fprintf(stderr, "perfbench: cannot create %s: %s\n",
                     options.workdir.c_str(), ec.message().c_str());
        return 1;
    }

    std::printf("env %s\n",
                perfbench::envStamp(options.gitSha).json().c_str());
    std::printf("workload %s, seed %llu, %g s, trace %d\n",
                options.workload.c_str(),
                (unsigned long long)options.seed, options.seconds,
                options.trace ? 1 : 0);
    std::fflush(stdout);

    try {
        perfbench::Report report = perfbench::runWorkload(options);
        report.emit(stdout,
                    options.trace ? perfbench::perLayerMetrics()
                                  : perfbench::endToEndMetrics(),
                    options.workload);
        return report.correct() ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
