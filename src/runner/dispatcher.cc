#include "runner/dispatcher.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "common/logging.hh"
#include "runner/job_key.hh"
#include "sim/engine.hh"

namespace scsim::runner {

namespace {

/** Heap order: highest cost on top, earliest enqueued among equals. */
template <typename Q>
bool
claimsLater(const Q &a, const Q &b)
{
    return a.cost < b.cost || (a.cost == b.cost && a.seq > b.seq);
}

} // namespace

int
resolveJobs(int jobs)
{
    if (jobs < 0)
        scsim_throw(ConfigError, "worker count must be >= 0 (got %d)", jobs);
    if (jobs > 0)
        return jobs;
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? static_cast<int>(hw) : 1;
}

void
validateSpec(const SweepSpec &spec)
{
    std::string problems;
    std::unordered_set<std::string> seen;
    for (const SimJob &job : spec.jobs) {
        if (!seen.insert(job.tag).second)
            problems += detail::format(
                "  duplicate sweep tag '%s' (app '%s')\n",
                job.tag.c_str(), job.app.name.c_str());
        try {
            job.cfg.validate();
        } catch (const ConfigError &e) {
            problems += detail::format(
                "  job '%s' (app '%s'): %s\n", job.tag.c_str(),
                job.app.name.c_str(), e.what());
        }
    }
    if (!problems.empty())
        scsim_throw(ConfigError,
                    "invalid sweep spec; no jobs were run:\n%s",
                    problems.c_str());
}

void
classifyRun(JobResult &r, const std::function<void()> &execute)
{
    try {
        execute();
        return;
    } catch (const HangError &e) {
        r.status = JobStatus::Hang;
        r.error = e.what();
        std::fputs(e.diagnostic().c_str(), stderr);
        std::fflush(stderr);
    } catch (const std::exception &e) {
        r.status = JobStatus::Failed;
        r.error = e.what();
    }
    r.stats = SimStats{};
}

bool
lookupCached(ResultCache &cache, const std::string &tag, JobResult &r)
{
    bool hit = false;
    try {
        retryTransient("cache lookup",
                       [&] { hit = cache.lookup(r.key, r.stats); });
    } catch (const CacheError &e) {
        scsim_warn("cache lookup for '%s' gave up, treating as miss: %s",
                   tag.c_str(), e.what());
    }
    if (hit) {
        r.status = JobStatus::Cached;
        r.cached = true;
    }
    return hit;
}

Dispatcher::Dispatcher(Options opts, ResultCache &cache,
                       Completion onComplete)
    : opts_(std::move(opts)), cache_(cache),
      onComplete_(std::move(onComplete))
{
    int n = std::max(1, opts_.workers);
    threads_.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        threads_.emplace_back([this] { workerLoop(); });
}

Dispatcher::~Dispatcher()
{
    stop();
}

void
Dispatcher::beginDrain()
{
    {
        std::lock_guard lock(mutex_);
        stopping_ = true;
    }
    cv_.notify_all();
}

void
Dispatcher::close()
{
    {
        std::lock_guard lock(mutex_);
        closed_ = true;
    }
    cv_.notify_all();
    join();
}

void
Dispatcher::stop()
{
    beginDrain();
    join();
}

void
Dispatcher::serveQueuedFromCache()
{
    // The workers are joined, so nothing is in flight and nothing is
    // parked: every unclaimed job is in ready_.
    std::vector<Queued> queued;
    {
        std::lock_guard lock(mutex_);
        queued.swap(ready_);
    }
    std::sort(queued.begin(), queued.end(),
              [](const Queued &a, const Queued &b) { return a.seq < b.seq; });
    std::vector<Queued> missed;
    for (Queued &q : queued) {
        JobResult r;
        r.key = q.key;
        if (!lookupCached(cache_, q.job.tag, r)) {
            missed.push_back(std::move(q));
            continue;
        }
        {
            std::lock_guard lock(mutex_);
            ++completed_;
        }
        onComplete_(q.sweepId, q.index, std::move(r));
    }
    std::lock_guard lock(mutex_);
    ready_ = std::move(missed);
    std::make_heap(ready_.begin(), ready_.end(), claimsLater<Queued>);
}

void
Dispatcher::join()
{
    // Idempotent: join() is guarded, so a second stop() (or stop()
    // after close()) still waits for the workers instead of returning
    // while jobs are in flight.
    for (std::thread &t : threads_)
        if (t.joinable())
            t.join();
}

void
Dispatcher::enqueue(std::uint64_t sweepId, const SweepSpec &spec,
                    const std::vector<std::size_t> &indices)
{
    std::vector<Queued> batch;
    batch.reserve(indices.size());
    for (std::size_t i : indices) {
        const SimJob &job = spec.jobs[i];
        batch.push_back(
            Queued{ sweepId, i, job, jobKey(job), job.expectedCost(), 0 });
    }
    {
        std::lock_guard lock(mutex_);
        for (Queued &q : batch) {
            q.seq = nextSeq_++;
            ready_.push_back(std::move(q));
            std::push_heap(ready_.begin(), ready_.end(),
                           claimsLater<Queued>);
        }
    }
    cv_.notify_all();
}

bool
Dispatcher::claim(Queued &out)
{
    std::unique_lock lock(mutex_);
    for (;;) {
        // On a drain, unclaimed jobs are abandoned (the client's
        // journal has the finished ones; --resume picks up the rest),
        // so a shutdown waits only for in-flight work.
        if (stopping_)
            return false;
        while (!ready_.empty()) {
            std::pop_heap(ready_.begin(), ready_.end(),
                          claimsLater<Queued>);
            Queued q = std::move(ready_.back());
            ready_.pop_back();
            if (inFlightKeys_.count(q.key)) {
                parked_[q.key].push_back(std::move(q));
                ++parkedCount_;
                continue;
            }
            inFlightKeys_.insert(q.key);
            ++inFlight_;
            out = std::move(q);
            return true;
        }
        // Parked duplicates are completed by the worker computing
        // their key, so a dry ready queue lets this worker go.
        if (closed_)
            return false;
        cv_.wait(lock);
    }
}

void
Dispatcher::execute(const SimJob &job, JobResult &r)
{
    auto start = std::chrono::steady_clock::now();
    classifyRun(r, [&] {
        if (opts_.isolate) {
            runJobIsolated(job, *opts_.isolate, r);
            return;
        }
        sim::SimEngine engine(job.cfg);
        r.stats = engine.runApp(job.app, job.salt, job.concurrent);
        r.status = JobStatus::Ok;
    });
    r.wallMs = std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - start)
                   .count();
    if (!r.ok())
        return;
    // A store that keeps failing loses only the disk entry; the
    // computed result stands.
    try {
        retryTransient("cache store",
                       [&] { cache_.store(r.key, r.stats); });
    } catch (const CacheError &e) {
        scsim_warn("cache store for '%s' gave up, result not cached: %s",
                   job.tag.c_str(), e.what());
    }
}

void
Dispatcher::finish(Queued q, JobResult r)
{
    std::vector<Queued> waiters;
    {
        std::lock_guard lock(mutex_);
        inFlightKeys_.erase(q.key);
        --inFlight_;
        if (auto it = parked_.find(q.key); it != parked_.end()) {
            waiters = std::move(it->second);
            parked_.erase(it);
            parkedCount_ -= waiters.size();
            coalesced_ += waiters.size();
        }
        std::uint64_t n = 1 + waiters.size();
        completed_ += n;
        if (r.status == JobStatus::Failed || r.status == JobStatus::Hang)
            failed_ += n;
        else if (r.status == JobStatus::Crashed)
            crashed_ += n;
    }

    // A parked duplicate is served from the just-landed computation:
    // semantically a cache hit (same key, same bytes), so it is
    // recorded as one.
    for (Queued &w : waiters) {
        JobResult dup = r;
        if (dup.ok()) {
            dup.status = JobStatus::Cached;
            dup.cached = true;
            dup.wallMs = 0.0;
            dup.attempts = 0;
        }
        onComplete_(w.sweepId, w.index, std::move(dup));
    }
    onComplete_(q.sweepId, q.index, std::move(r));
}

void
Dispatcher::workerLoop()
{
    Queued q;
    while (claim(q)) {
        JobResult r;
        r.key = q.key;
        if (!lookupCached(cache_, q.job.tag, r))
            execute(q.job, r);
        finish(std::move(q), std::move(r));
    }
}

std::uint64_t
Dispatcher::queueDepth() const
{
    std::lock_guard lock(mutex_);
    return ready_.size() + parkedCount_;
}

std::uint64_t
Dispatcher::inFlight() const
{
    std::lock_guard lock(mutex_);
    return inFlight_;
}

std::uint64_t
Dispatcher::completed() const
{
    std::lock_guard lock(mutex_);
    return completed_;
}

std::uint64_t
Dispatcher::failedJobs() const
{
    std::lock_guard lock(mutex_);
    return failed_;
}

std::uint64_t
Dispatcher::crashedJobs() const
{
    std::lock_guard lock(mutex_);
    return crashed_;
}

std::uint64_t
Dispatcher::coalesced() const
{
    std::lock_guard lock(mutex_);
    return coalesced_;
}

} // namespace scsim::runner
