/**
 * @file
 * The sweep engine: executes a SweepSpec locally.
 *
 * A thin client of the job-execution core (runner/dispatcher.hh):
 * run() validates the whole spec first (all problems reported at
 * once, before any job runs), adopts what a resume journal already
 * holds, and hands every other job to a Dispatcher built for this
 * run — in-process, or one `run-job` subprocess per job with
 * `SweepOptions::isolate`.  Claim order, cache lookup and store,
 * coalescing of duplicate keys and failure classification all happen
 * there, exactly as on the farm.  Results are reported in spec order
 * regardless of completion order, making the merged output — and any
 * manifest derived from it — byte-identical for every worker count,
 * with or without isolation, and through the farm.
 *
 * Failure containment: a job that throws, hangs or crashes is
 * recorded in its JobResult and the sweep carries on; `failFast` /
 * `maxFailures` drain the Dispatcher from the completion that reaches
 * the limit, before that worker claims again.  A job left unclaimed is
 * then served from the cache if it can be, and reported as skipped
 * otherwise.
 *
 * Checkpointing (`journalPath` / `resumePath`): finished jobs are
 * durably appended to a journal as they complete, and a resumed sweep
 * adopts them instead of re-running, producing a manifest
 * byte-identical to an uninterrupted run.
 */

#ifndef SCSIM_RUNNER_SWEEP_ENGINE_HH
#define SCSIM_RUNNER_SWEEP_ENGINE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "runner/job_result.hh"
#include "runner/result_cache.hh"
#include "runner/sweep_spec.hh"
#include "stats/stats.hh"

namespace scsim::runner {

/** Merged outcome of a sweep; results are parallel to spec.jobs. */
struct SweepResult
{
    std::vector<std::string> tags;
    std::vector<JobResult> results;

    double wallMs = 0.0;         //!< whole-sweep wall clock
    std::uint64_t cacheHits = 0;
    std::uint64_t executed = 0;  //!< claimed jobs, including failed
    std::uint64_t failed = 0;    //!< Failed + Hang + Crashed
    std::uint64_t skipped = 0;   //!< never claimed
    std::uint64_t resumed = 0;   //!< adopted from a resume journal

    bool allOk() const { return failed == 0 && skipped == 0; }

    /** Stats for @p tag; throws ConfigError if the sweep had no such job. */
    const SimStats &stats(const std::string &tag) const;

    /** Cycles for @p tag (the common figure-harness access). */
    Cycle cycles(const std::string &tag) const;
};

class SweepEngine
{
  public:
    explicit SweepEngine(SweepOptions opts = {});

    /**
     * Execute @p spec.  Throws ConfigError — before any job runs —
     * listing every duplicate tag and invalid config with the
     * offending job's tag and app.  Per-job runtime failures do not
     * throw; they are recorded in the returned results (see
     * JobStatus) and counted in SweepResult::failed.
     */
    SweepResult run(const SweepSpec &spec);

    ResultCache &cache() { return cache_; }

  private:
    SweepOptions opts_;
    ResultCache cache_;
};

} // namespace scsim::runner

#endif // SCSIM_RUNNER_SWEEP_ENGINE_HH
