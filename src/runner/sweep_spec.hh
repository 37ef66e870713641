/**
 * @file
 * Sweep descriptions: what to simulate, not how.
 *
 * A SimJob is one independent simulation point — a configuration, a
 * synthetic workload spec, and a salt — identified by a caller-chosen
 * tag that keys its row in the merged results.  A SweepSpec is an
 * ordered set of jobs; SweepOptions say how to execute them (thread
 * count, cache directory, progress reporting).  All types are plain
 * data so figure harnesses can build sweeps declaratively.
 */

#ifndef SCSIM_RUNNER_SWEEP_SPEC_HH
#define SCSIM_RUNNER_SWEEP_SPEC_HH

#include <string>
#include <vector>

#include "config/gpu_config.hh"
#include "workloads/suite.hh"

namespace scsim::runner {

/** One simulation point of a sweep. */
struct SimJob
{
    /** Unique key for this job's row in the merged results. */
    std::string tag;

    GpuConfig cfg;
    AppSpec app;

    /** Extra workload-synthesis seed salt (forwarded to buildApp). */
    std::uint64_t salt = 0;

    /** Run the app's kernels concurrently instead of back-to-back. */
    bool concurrent = false;

    /**
     * Relative wall-clock estimate used for longest-expected-job-first
     * ordering: dynamic warp instructions across the grid, scaled by
     * the divergence pattern's mean slot length.
     */
    double expectedCost() const;
};

/** An ordered set of jobs; tags must be unique across the sweep. */
struct SweepSpec
{
    std::vector<SimJob> jobs;

    /** Append a job; returns it for field tweaks. */
    SimJob &
    add(std::string tag, GpuConfig cfg, AppSpec app)
    {
        jobs.push_back(SimJob{ std::move(tag), std::move(cfg),
                               std::move(app), 0, false });
        return jobs.back();
    }
};

/** Execution knobs for a sweep.  Every member has an initializer, so
 *  a designated initializer may name just the knobs it sets. */
struct SweepOptions
{
    /** Worker threads; 0 = one per hardware thread. */
    int jobs = 0;

    /** On-disk result cache directory; empty = in-memory only. */
    std::string cacheDir{};

    /**
     * Disk-footprint cap for the result cache; 0 = unbounded.  When
     * set, the cache trims itself back under the cap after every
     * store, least-recently-used entries first (see ResultCache).
     */
    std::uint64_t cacheMaxBytes = 0;

    /** Stream one line per completed job to stderr (never the
     *  manifest). */
    bool progress = false;

    /**
     * Stop claiming new jobs after the first failure.  In-flight jobs
     * finish; an unclaimed job is reported as a cache hit when its
     * result is cached and as skipped otherwise.
     */
    bool failFast = false;

    /** Stop claiming new jobs after this many failures; 0 = no limit. */
    std::uint64_t maxFailures = 0;

    /**
     * Run each job in its own `scsim_cli run-job` subprocess so a
     * crash (or injected fault) costs one job, not the sweep.
     */
    bool isolate = false;

    /**
     * Binary to spawn for isolated jobs; empty = the running
     * executable (/proc/self/exe).  Exists so tests can point the
     * engine at the CLI from a test binary.
     */
    std::string selfExe{};

    /** Per-job wall-clock limit for isolated jobs; 0 = none. */
    double jobTimeoutSec = 0.0;

    /**
     * Spawn attempts per isolated job before its crash is final.
     * Retries cover flaky infrastructure (OOM kills, fork pressure);
     * a deterministic crash just fails this many times quickly.
     */
    int crashAttempts = 3;

    /**
     * Snapshot period (simulated cycles) for isolated workers; 0 =
     * checkpointing off.  A crashed/timed-out attempt then resumes
     * from its last snapshot instead of cycle 0.  Needs
     * @ref snapshotDir.
     */
    std::uint64_t checkpointCycles = 0;

    /** Directory for worker snapshot files (created if missing). */
    std::string snapshotDir{};

    /**
     * Append every finished job to this journal (see runner/journal.hh)
     * so an interrupted sweep can resume.  Empty = no journal.
     */
    std::string journalPath{};

    /**
     * Resume from this journal: jobs it holds are adopted instead of
     * re-run.  Usually the same file as @ref journalPath, which is
     * then rewritten complete (adopted records re-seeded, any damaged
     * tail scrubbed).  Empty = fresh sweep.
     */
    std::string resumePath{};
};

} // namespace scsim::runner

#endif // SCSIM_RUNNER_SWEEP_SPEC_HH
