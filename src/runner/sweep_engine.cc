#include "runner/sweep_engine.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>

#include "common/logging.hh"
#include "runner/dispatcher.hh"
#include "runner/job_key.hh"
#include "runner/journal.hh"

namespace scsim::runner {

namespace {

/** First line of a (possibly multi-line) error message. */
std::string
firstLine(const std::string &s)
{
    auto nl = s.find('\n');
    return nl == std::string::npos ? s : s.substr(0, nl);
}

} // namespace

const SimStats &
SweepResult::stats(const std::string &tag) const
{
    for (std::size_t i = 0; i < tags.size(); ++i)
        if (tags[i] == tag)
            return results[i].stats;
    scsim_throw(ConfigError, "sweep has no job tagged '%s'", tag.c_str());
}

Cycle
SweepResult::cycles(const std::string &tag) const
{
    return stats(tag).cycles;
}

SweepEngine::SweepEngine(SweepOptions opts)
    : opts_(std::move(opts)),
      cache_(opts_.cacheDir, opts_.cacheMaxBytes)
{
}

SweepResult
SweepEngine::run(const SweepSpec &spec)
{
    auto sweepStart = std::chrono::steady_clock::now();
    validateSpec(spec);

    const std::size_t n = spec.jobs.size();
    SweepResult out;
    out.tags.reserve(n);
    for (const SimJob &job : spec.jobs)
        out.tags.push_back(job.tag);
    out.results.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        out.results[i].key = jobKey(spec.jobs[i]);

    const std::uint64_t specHash = sweepSpecHash(spec);

    // Resume: adopt every intact journal record whose identity (spec
    // hash, index, tag) still matches.  Adopted jobs are never re-run.
    std::vector<std::optional<JobResult>> adopted(n);
    if (!opts_.resumePath.empty()) {
        std::string foreign =
            adoptJournal(opts_.resumePath, spec, specHash, adopted);
        if (!foreign.empty())
            scsim_throw(ConfigError, "%s", foreign.c_str());
    }

    // Journal writer.  Always started fresh and re-seeded below with
    // the adopted records: rewriting scrubs the half-written record a
    // SIGKILL leaves at the tail, which appending would otherwise
    // strand in the middle of the file where it truncates every later
    // read.
    std::unique_ptr<JournalWriter> journal;
    if (!opts_.journalPath.empty())
        journal = std::make_unique<JournalWriter>(
            opts_.journalPath, specHash, n, /*fresh=*/true);

    // Record one final result: journal it (outside the lock, so no
    // fsync ever serializes the workers), then count and report it.
    // Returns whether fresh failures (not adopted ones, marked by
    // @p how) have reached failFast / maxFailures.
    std::mutex mutex;
    std::size_t done = 0;
    std::uint64_t failures = 0;
    auto record = [&](std::size_t i, JobResult r, const char *how) {
        if (journal)
            journal->tryAppend(i, spec.jobs[i].tag, r);
        std::lock_guard lock(mutex);
        if (r.status == JobStatus::Cached)
            ++out.cacheHits;
        else
            ++out.executed;
        if (!r.ok()) {
            ++out.failed;
            if (!how)
                ++failures;
        }
        if (opts_.progress) {
            ++done;
            if (r.ok())
                std::fprintf(
                    stderr,
                    "[%3zu/%zu] %-28s %12llu cycles  ipc %5.2f  %s\n",
                    done, n, spec.jobs[i].tag.c_str(),
                    static_cast<unsigned long long>(r.stats.cycles),
                    r.stats.ipc(),
                    how ? how
                        : r.cached
                              ? "(cache)"
                              : detail::format("(%.1fs)", r.wallMs / 1e3)
                                    .c_str());
            else
                std::fprintf(stderr, "[%3zu/%zu] %-28s %s%s: %s\n", done,
                             n, spec.jobs[i].tag.c_str(),
                             toString(r.status), how ? " (journal)" : "",
                             firstLine(r.error).c_str());
            std::fflush(stderr);
        }
        out.results[i] = std::move(r);
        return (opts_.failFast && failures > 0)
            || (opts_.maxFailures && failures >= opts_.maxFailures);
    };

    std::vector<std::size_t> pending;
    for (std::size_t i = 0; i < n; ++i) {
        if (adopted[i]) {
            ++out.resumed;
            record(i, std::move(*adopted[i]), "(journal)");
        } else {
            pending.push_back(i);
        }
    }

    if (!pending.empty()) {
        Dispatcher::Options d;
        d.workers = std::min(resolveJobs(opts_.jobs),
                             static_cast<int>(pending.size()));
        if (opts_.isolate)
            d.isolate = IsolatedRunOptions{
                opts_.selfExe, opts_.jobTimeoutSec, opts_.crashAttempts,
                opts_.checkpointCycles, opts_.snapshotDir };
        // The completion runs on the worker before it claims again, so
        // draining here bounds the damage exactly, even at one worker.
        std::unique_ptr<Dispatcher> dispatcher;
        dispatcher = std::make_unique<Dispatcher>(
            std::move(d), cache_,
            [&](std::uint64_t, std::size_t i, JobResult r) {
                if (record(i, std::move(r), nullptr))
                    dispatcher->beginDrain();
            });
        dispatcher->enqueue(0, spec, pending);
        dispatcher->close();
        // Only a failure limit leaves jobs unclaimed.  One whose
        // result is cached still counts as a cache hit, never as
        // skipped.
        dispatcher->serveQueuedFromCache();
    }

    // A completion never reports Skipped, so what is left was never
    // claimed.
    for (std::size_t i : pending) {
        JobResult &r = out.results[i];
        if (r.status != JobStatus::Skipped)
            continue;
        r.error = "skipped: failure limit reached";
        ++out.skipped;
    }

    out.wallMs = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - sweepStart)
                     .count();
    return out;
}

} // namespace scsim::runner
