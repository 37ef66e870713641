/**
 * @file
 * Append-only sweep journal: the checkpoint behind `--resume`.
 *
 * One record per finished job (in completion order, not spec order),
 * each an fsync'd append of a framed `scsim-jobres` wire record plus
 * the job's spec index and tag.  The header pins the spec hash and
 * job count, so a journal can never be replayed against a different
 * sweep.  Reads are tolerant of a truncated or corrupt *tail* — the
 * expected wreckage of a SIGKILL mid-append — by keeping every intact
 * record before the damage and dropping the rest; any dropped job
 * simply re-runs.
 *
 * Because every record round-trips to the byte and the engine reports
 * results in spec order, a killed-and-resumed sweep writes a manifest
 * byte-identical to an uninterrupted run at any worker count.
 */

#ifndef SCSIM_RUNNER_JOURNAL_HH
#define SCSIM_RUNNER_JOURNAL_HH

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "runner/job_result.hh"
#include "runner/sweep_spec.hh"

namespace scsim::runner {

/** Spec identity a journal is pinned to: hash of every job's tag and
 *  canonical text.  Any job edit, reorder, insertion or removal
 *  changes it. */
std::uint64_t sweepSpecHash(const SweepSpec &spec);

/** One journal entry, as read back. */
struct JournalRecord
{
    std::size_t index = 0;  //!< position in spec.jobs
    std::string tag;
    JobResult result;
};

/** Everything readJournal() recovered. */
struct JournalContents
{
    std::uint64_t specHash = 0;
    std::uint64_t jobCount = 0;
    std::vector<JournalRecord> records;
    std::uint64_t dropped = 0;  //!< damaged tail records discarded
};

/**
 * Parse a journal file.  Throws CacheError when the file cannot be
 * opened or its header is unusable; a damaged tail is recovered from
 * (see @ref JournalContents::dropped).
 */
JournalContents readJournal(const std::string &path);

/**
 * Resume adoption, shared by every client of the job-execution core:
 * read @p path and move each intact record whose index and tag still
 * match @p spec into @p adopted (parallel to spec.jobs; an engaged
 * slot is a finished job).  Records for jobs the spec does not have
 * are ignored with a warning.  When the journal pins another spec
 * (hash @p specHash or job count differ) nothing is adopted and the
 * mismatch is returned as a message; the caller decides whether that
 * is fatal.  Returns "" otherwise.  Throws CacheError like
 * readJournal().
 */
std::string adoptJournal(const std::string &path, const SweepSpec &spec,
                         std::uint64_t specHash,
                         std::vector<std::optional<JobResult>> &adopted);

/**
 * Appender.  Construction writes (and fsyncs) the header when the
 * file is empty or @p fresh asked for truncation; append() fsyncs
 * every record, so anything this class returned from is on disk.
 * Construction throws CacheError on I/O faults.
 *
 * A full disk (ENOSPC/EDQUOT) mid-sweep must not take the sweep down
 * with it: append() then warns once, stops journaling, and every
 * later append is a silent no-op — the sweep finishes, it just is not
 * resumable past the last durable record.  Other I/O faults still
 * throw CacheError.
 */
class JournalWriter
{
  public:
    JournalWriter(const std::string &path, std::uint64_t specHash,
                  std::uint64_t jobCount, bool fresh);
    ~JournalWriter();

    JournalWriter(const JournalWriter &) = delete;
    JournalWriter &operator=(const JournalWriter &) = delete;

    /** Durably append one finished job (no-op after disk-full). */
    void append(std::size_t index, const std::string &tag,
                const JobResult &result);

    /**
     * append() with bounded transient retry; a fault that persists
     * only warns (a resume would re-run the job), never throws.
     */
    void tryAppend(std::size_t index, const std::string &tag,
                   const JobResult &result);

    /** Has a full disk turned appends into no-ops? */
    bool degraded() const { return dead_; }

  private:
    /** Write all of @p text; returns 0 or the failing errno. */
    int writeAll(const std::string &text);

    std::string path_;
    int fd_ = -1;
    bool dead_ = false;  //!< disk filled up; appends are no-ops now
    std::mutex mutex_;
};

} // namespace scsim::runner

#endif // SCSIM_RUNNER_JOURNAL_HH
