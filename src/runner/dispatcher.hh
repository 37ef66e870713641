/**
 * @file
 * The job-execution core: the one piece of code that runs sweep jobs.
 *
 * `sweep`, `sweep --isolate` and `serve` are thin clients of a
 * Dispatcher: they validate a spec, adopt what a resume journal
 * already holds, enqueue the rest, and consume completions.  The
 * Dispatcher owns everything between enqueue and completion, once:
 *
 *  - Claim order.  N worker threads claim the job with the longest
 *    expected cost, ties broken by enqueue order, across every sweep
 *    enqueued so far.  One worker therefore runs a spec in exactly
 *    the order of a stable sort by descending cost, and the tail of a
 *    sweep is never serialized behind one giant simulation.
 *  - Cache.  A claimed job is looked up in the caller's ResultCache
 *    first; an ok run is stored after.  Both retry a transient
 *    CacheError with bounded backoff and degrade to a miss / unsaved
 *    result, never a failed job.
 *  - Coalescing.  A claimed job whose key is already being computed
 *    is parked instead of run; when the computation lands, every
 *    parked duplicate completes from it (as a cache-style hit when
 *    ok).  A key that already finished is a plain cache hit.
 *  - Execution and classification.  Options::isolate empty runs the
 *    job in-process through SimEngine::runApp; set, it runs through
 *    runJobIsolated, whose crash containment and respawn policy then
 *    apply.  Either way classifyRun turns an exception into a result,
 *    so nothing a job does can take down a worker.
 *
 * Threading: enqueue() and the completion callback may race with the
 * workers.  The callback runs on the worker thread that finished the
 * job, before that worker claims again, so a callback that calls
 * beginDrain() stops every later claim — which is how a client
 * enforces a failure limit exactly.  It must do its own locking.
 */

#ifndef SCSIM_RUNNER_DISPATCHER_HH
#define SCSIM_RUNNER_DISPATCHER_HH

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "runner/isolated_run.hh"
#include "runner/job_result.hh"
#include "runner/result_cache.hh"
#include "runner/sweep_spec.hh"

namespace scsim::runner {

/** Worker-thread count for `jobs` requested (0 = hardware threads). */
int resolveJobs(int jobs);

/**
 * Reject @p spec whole, before any job runs: one ConfigError lists
 * every duplicate tag and invalid config with the offending job's tag
 * and app, so a bad 400-point sweep is refused up front instead of
 * dying mid-flight on job 312.
 */
void validateSpec(const SweepSpec &spec);

/**
 * Run @p execute, which fills @p r, and classify what it throws — the
 * one place a job's failure is classified: HangError → Hang, with the
 * hang diagnostic written to stderr; any other std::exception →
 * Failed.  A failure zeroes the stats and sets the error.
 */
void classifyRun(JobResult &r, const std::function<void()> &execute);

/**
 * Look up @p r.key in @p cache with bounded transient retry; on a hit
 * fill @p r as Cached.  A lookup that keeps failing is a miss.
 */
bool lookupCached(ResultCache &cache, const std::string &tag,
                  JobResult &r);

class Dispatcher
{
  public:
    struct Options
    {
        int workers = 1;  //!< worker threads (>= 1)

        /** How a cache miss runs: empty = in-process; set = each job
         *  in its own `run-job` subprocess. */
        std::optional<IsolatedRunOptions> isolate;
    };

    /** Called (from a worker thread) exactly once per claimed job. */
    using Completion = std::function<void(
        std::uint64_t sweepId, std::size_t index, JobResult result)>;

    /** Starts the workers; @p cache must outlive the Dispatcher. */
    Dispatcher(Options opts, ResultCache &cache, Completion onComplete);
    ~Dispatcher();

    Dispatcher(const Dispatcher &) = delete;
    Dispatcher &operator=(const Dispatcher &) = delete;

    /**
     * Queue `spec.jobs[i]` for every i in @p indices, in that order,
     * all at once: no worker claims until the whole batch is queued,
     * so the claim order never depends on enqueue timing.
     */
    void enqueue(std::uint64_t sweepId, const SweepSpec &spec,
                 const std::vector<std::size_t> &indices);

    /**
     * Stop claiming without waiting: wakes every worker so each
     * finishes its in-flight job and exits.  Completions still fire.
     * Jobs never claimed get no completion; queueDepth() shows them
     * until the Dispatcher is destroyed.
     */
    void beginDrain();

    /** Run every queued job to completion (unless a drain cuts the
     *  queue short), then join the workers. */
    void close();

    /** Stop claiming; finish in-flight jobs; join the workers. */
    void stop();

    /**
     * After stop() or a drained close(): complete every job still
     * queued whose result the cache holds, as a cache hit, in enqueue
     * order.  The rest stay queued, unclaimed.  A drain thereby costs
     * only the jobs that would have had to run.
     */
    void serveQueuedFromCache();

    // ---- introspection (thread-safe) ----------------------------------
    int workers() const { return static_cast<int>(threads_.size()); }
    std::uint64_t queueDepth() const;  //!< ready + parked duplicates
    std::uint64_t inFlight() const;    //!< = workers running a job
    std::uint64_t completed() const;
    std::uint64_t failedJobs() const;   //!< Failed + Hang
    std::uint64_t crashedJobs() const;
    std::uint64_t coalesced() const;

  private:
    struct Queued
    {
        std::uint64_t sweepId;
        std::size_t index;
        SimJob job;
        std::uint64_t key;
        double cost;
        std::uint64_t seq;  //!< enqueue order: the cost tie-break
    };

    void workerLoop();
    bool claim(Queued &out);
    void execute(const SimJob &job, JobResult &r);
    void finish(Queued q, JobResult r);
    void join();

    Options opts_;
    ResultCache &cache_;
    Completion onComplete_;

    mutable std::mutex mutex_;
    std::condition_variable cv_;
    bool stopping_ = false;  //!< drain: claim nothing more
    bool closed_ = false;    //!< close(): exit once the queue is dry
    std::uint64_t nextSeq_ = 0;
    std::vector<Queued> ready_;  //!< max-heap by (cost, -seq)
    std::unordered_map<std::uint64_t, std::vector<Queued>> parked_;
    std::unordered_set<std::uint64_t> inFlightKeys_;
    std::uint64_t parkedCount_ = 0;
    std::uint64_t inFlight_ = 0;
    std::uint64_t completed_ = 0;
    std::uint64_t failed_ = 0;
    std::uint64_t crashed_ = 0;
    std::uint64_t coalesced_ = 0;

    std::vector<std::thread> threads_;
};

} // namespace scsim::runner

#endif // SCSIM_RUNNER_DISPATCHER_HH
