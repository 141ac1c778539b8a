/**
 * @file
 * Process resource readings and the environment stamp every record
 * carries: speeds depend on the matvec kernel and the core count,
 * and the learned table's error depends on the worker count.
 */

#ifndef PERFBENCH_LIB_ENV_HH
#define PERFBENCH_LIB_ENV_HH

#include <string>

namespace perfbench
{

/** What a record was measured on. */
struct EnvStamp
{
    int nproc = 0;
    std::string matvecKernel;   ///< nn::matvecPathName()
    std::string threads;        ///< DIFFTUNE_THREADS ("" = unset)
    std::string forceScalar;    ///< DIFFTUNE_FORCE_SCALAR
    std::string obsOff;         ///< DIFFTUNE_OBS_OFF
    std::string buildType;
    std::string gitSha;

    /** One JSON object. */
    std::string json() const;
};

/** Stamp the current process; @p git_sha comes from the caller. */
EnvStamp envStamp(const std::string &git_sha);

/** Cores the host offers (at least 1). */
int hostCores();

/** Process CPU time (all threads), seconds. */
double processCpuSeconds();

/** Steady-clock seconds (arbitrary origin). */
double wallSeconds();

/** RSS high-water mark of this process, MB. */
double peakRssMb();

} // namespace perfbench

#endif // PERFBENCH_LIB_ENV_HH
