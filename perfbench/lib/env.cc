/**
 * @file
 * Environment stamp and resource readings (see env.hh).
 */

#include "lib/env.hh"

#include <sys/resource.h>

#include <chrono>
#include <cstdlib>
#include <ctime>
#include <thread>

#include "lib/report.hh"
#include "nn/matvec_dispatch.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench
{

namespace
{

std::string
envOrEmpty(const char *name)
{
    const char *v = std::getenv(name);
    return v ? v : "";
}

} // namespace

std::string
EnvStamp::json() const
{
    return "{\"nproc\": " + std::to_string(nproc) +
           ", \"matvec_kernel\": " + jsonString(matvecKernel) +
           ", \"DIFFTUNE_THREADS\": " + jsonString(threads) +
           ", \"DIFFTUNE_FORCE_SCALAR\": " + jsonString(forceScalar) +
           ", \"DIFFTUNE_OBS_OFF\": " + jsonString(obsOff) +
           ", \"build_type\": " + jsonString(buildType) +
           ", \"git_sha\": " + jsonString(gitSha) + "}";
}

EnvStamp
envStamp(const std::string &git_sha)
{
    EnvStamp s;
    s.nproc = hostCores();
    s.matvecKernel = difftune::nn::matvecPathName();
    s.threads = envOrEmpty("DIFFTUNE_THREADS");
    s.forceScalar = envOrEmpty("DIFFTUNE_FORCE_SCALAR");
    s.obsOff = envOrEmpty("DIFFTUNE_OBS_OFF");
    s.buildType = PERFBENCH_BUILD_TYPE;
    s.gitSha = git_sha;
    return s;
}

int
hostCores()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : int(n);
}

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + 1e-9 * double(ts.tv_nsec);
}

double
wallSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return double(usage.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

} // namespace perfbench
