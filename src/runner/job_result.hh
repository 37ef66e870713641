/**
 * @file
 * The outcome of one sweep job.
 *
 * Lives in its own header (rather than sweep_engine.hh) because three
 * layers consume it: the engine that fills it in, the wire format
 * (runner/wire.hh) that ships it across the subprocess boundary and
 * into the resume journal, and the manifest writers.
 */

#ifndef SCSIM_RUNNER_JOB_RESULT_HH
#define SCSIM_RUNNER_JOB_RESULT_HH

#include <cstdint>
#include <string>

#include "stats/stats.hh"

namespace scsim::runner {

/** How one job ended. */
enum class JobStatus
{
    Skipped,  //!< never claimed (failFast / maxFailures tripped)
    Ok,       //!< simulated to completion
    Cached,   //!< served from the result cache
    Failed,   //!< threw (workload/config error at runtime)
    Hang,     //!< forward-progress watchdog or cycle budget fired
    Crashed,  //!< isolated worker died (signal, bad exit, or timeout)
};

/** Each status's name, indexed by its value. */
inline constexpr const char *kJobStatusNames[] = {
    "skipped", "ok", "cached", "failed", "hang", "crashed",
};

/** Debug name: "skipped"/"ok"/"cached"/"failed"/"hang"/"crashed". */
inline const char *
toString(JobStatus s)
{
    return kJobStatusNames[static_cast<int>(s)];
}

/**
 * Manifest form of a status.  Cached collapses to "ok": manifests
 * exclude execution-dependent facts, and cache hits are exactly that.
 */
const char *manifestStatus(JobStatus s);

/** Outcome of one job, in spec order. */
struct JobResult
{
    std::uint64_t key = 0;   //!< content hash (see jobKey)
    SimStats stats;          //!< zeros unless status is Ok/Cached
    JobStatus status = JobStatus::Skipped;
    std::string error;       //!< failure detail; empty when ok
    bool cached = false;     //!< served from the result cache
    double wallMs = 0.0;     //!< simulation time; 0 when cached

    // Process-isolation detail (zero unless status is Crashed).
    int exitCode = 0;        //!< worker exit code when it exited
    int termSignal = 0;      //!< signal that killed the worker
    int attempts = 0;        //!< spawn attempts consumed (isolated runs)

    bool ok() const
    {
        return status == JobStatus::Ok || status == JobStatus::Cached;
    }
};

} // namespace scsim::runner

#endif // SCSIM_RUNNER_JOB_RESULT_HH
