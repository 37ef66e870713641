/**
 * @file
 * One crash-isolated job execution, shared by every dispatcher.
 *
 * runJobIsolated() is the single place that knows how to turn a
 * SimJob into a `scsim_cli run-job` child and a decoded JobResult:
 * serialize the job over stdin, enforce the wall-clock deadline
 * (SIGTERM, grace, SIGKILL — see runner/subprocess.hh), decode the
 * result record from stdout, and respawn with doubling backoff when
 * the child crashes, times out, or breaches the protocol.  The
 * job-execution core (runner/dispatcher.hh) calls it for both
 * `sweep --isolate` and `serve`, so a job crashes, retries, and is
 * recorded identically whether it ran locally or on a daemon.
 */

#ifndef SCSIM_RUNNER_ISOLATED_RUN_HH
#define SCSIM_RUNNER_ISOLATED_RUN_HH

#include <string>

#include "runner/job_result.hh"
#include "runner/sweep_spec.hh"

namespace scsim::runner {

/** How to spawn and police one isolated job. */
struct IsolatedRunOptions
{
    /** Binary to exec; empty = the running executable. */
    std::string selfExe;

    /** Per-job wall-clock limit; 0 = none. */
    double timeoutSec = 0.0;

    /** Spawn attempts before a crash is final (>= 1). */
    int attempts = 3;

    /**
     * Snapshot period in simulated cycles; 0 = checkpointing off.
     * When set (with @ref snapshotDir), the worker writes a snapshot
     * at this cadence and a respawned attempt resumes from the newest
     * valid one instead of cycle 0 — the snapshot file outlives the
     * killed process, so the resume needs no parent-side bookkeeping.
     */
    std::uint64_t checkpointCycles = 0;

    /** Directory for `<job-key>.snap` files (created if missing). */
    std::string snapshotDir;
};

/**
 * Run @p job in its own `run-job` subprocess and fill @p r.  Never
 * throws for child-side outcomes: a crash, timeout, or garbled result
 * record becomes JobStatus::Crashed with the fatal signal / exit code
 * and the attempt count.  @p r.key must be set by the caller (the
 * parent-computed identity wins over whatever the child reports).
 */
void runJobIsolated(const SimJob &job, const IsolatedRunOptions &opts,
                    JobResult &r);

} // namespace scsim::runner

#endif // SCSIM_RUNNER_ISOLATED_RUN_HH
