#include "runner/journal.hh"

#include <cerrno>
#include <cinttypes>
#include <cstring>
#include <fstream>
#include <sstream>

#include <fcntl.h>
#include <unistd.h>

#include "common/fault_inject.hh"
#include "common/io_util.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/state_io.hh"
#include "runner/job_key.hh"
#include "runner/result_cache.hh"
#include "runner/wire.hh"

namespace scsim::runner {

namespace {

constexpr const char *kJournalMagic = "scsim-journal";
inline constexpr std::uint32_t kJournalVersion = 1;

/** Each record is a `record <index> <bytes> <tag>` line, then <bytes>
 *  of scsim-jobres record and a newline. */
constexpr const char *kRecordKey = "record";

std::string
versionWord()
{
    return detail::format("v%u", kJournalVersion);
}

/** The header line's fields. */
struct Header
{
    std::string version;
    std::uint64_t specHash = 0;
    std::uint64_t jobCount = 0;
};

/** `scsim-journal v<version> spec <hash> jobs <count>`. */
template <class H, class V>
void
visitHeader(H &h, V &v)
{
    v.words(kJournalMagic, h.version, Keyword{ "spec" }, asHex(h.specHash),
            Keyword{ "jobs" }, h.jobCount);
}

} // namespace

std::uint64_t
sweepSpecHash(const SweepSpec &spec)
{
    std::string text;
    for (const SimJob &job : spec.jobs) {
        text += job.tag;
        text += '\n';
        text += canonicalText(job);
    }
    return hashString(text);
}

JournalContents
readJournal(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        scsim_throw(CacheError, "cannot open journal '%s'",
                    path.c_str());
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string text = buf.str();

    JournalContents out;

    FieldReader r(text);
    Header h;
    if (!r.next())
        scsim_throw(CacheError, "journal '%s' has no header",
                    path.c_str());
    visitHeader(h, r);
    if (!r.claimed() || r.bad())
        scsim_throw(CacheError, "journal '%s' has a malformed header",
                    path.c_str());
    if (h.version != versionWord())
        scsim_throw(CacheError, "journal '%s' is format %s; this "
                    "build writes v%u", path.c_str(), h.version.c_str(),
                    kJournalVersion);
    out.specHash = h.specHash;
    out.jobCount = h.jobCount;

    // Records.  Any damage from here on is a truncated tail (the
    // SIGKILL-mid-append case): keep what is intact, drop the rest.
    // A half-written record line is not a record yet.
    while (r.next()) {
        JournalRecord rec;
        std::size_t nbytes = 0;
        std::string_view payload, newline;
        if (!r.words(kRecordKey, rec.index, nbytes, rec.tag)
            || !r.block(nbytes, payload) || !r.block(1, newline)
            || newline != "\n"
            || decodeJobResult(std::string(payload), rec.result)
                   != WireDecode::Ok) {
            ++out.dropped;
            break;
        }
        out.records.push_back(std::move(rec));
    }
    if (out.dropped)
        scsim_warn("journal '%s': dropped damaged tail record; the "
                   "affected job will re-run", path.c_str());
    return out;
}

std::string
adoptJournal(const std::string &path, const SweepSpec &spec,
             std::uint64_t specHash,
             std::vector<std::optional<JobResult>> &adopted)
{
    JournalContents j = readJournal(path);
    if (j.specHash != specHash || j.jobCount != spec.jobs.size())
        return detail::format(
            "journal '%s' was written for a different sweep (spec %s "
            "with %" PRIu64 " jobs; this spec is %s with %zu jobs)",
            path.c_str(), keyToHex(j.specHash).c_str(), j.jobCount,
            keyToHex(specHash).c_str(), spec.jobs.size());
    adopted.resize(spec.jobs.size());
    for (JournalRecord &rec : j.records) {
        if (rec.index >= spec.jobs.size()
            || rec.tag != spec.jobs[rec.index].tag) {
            scsim_warn("journal '%s': record for unknown job '%s' "
                       "ignored", path.c_str(), rec.tag.c_str());
            continue;
        }
        adopted[rec.index] = std::move(rec.result);
    }
    return {};
}

JournalWriter::JournalWriter(const std::string &path,
                             std::uint64_t specHash,
                             std::uint64_t jobCount, bool fresh)
    : path_(path)
{
    int flags = O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC
        | (fresh ? O_TRUNC : 0);
    fd_ = ::open(path.c_str(), flags, 0644);
    if (fd_ < 0)
        scsim_throw(CacheError, "cannot open journal '%s': %s",
                    path.c_str(), std::strerror(errno));
    off_t size = ::lseek(fd_, 0, SEEK_END);
    if (size == 0) {
        const Header h{ versionWord(), specHash, jobCount };
        StateWriter w;
        visitHeader(h, w);
        if (int err = writeAll(w.payload()))
            scsim_throw(CacheError, "write to journal '%s' failed: %s",
                        path.c_str(), std::strerror(err));
        if (::fsync(fd_) != 0)
            scsim_throw(CacheError, "fsync of journal '%s' failed: %s",
                        path.c_str(), std::strerror(errno));
    }
}

JournalWriter::~JournalWriter()
{
    if (fd_ >= 0)
        ::close(fd_);
}

int
JournalWriter::writeAll(const std::string &text)
{
    if (!writeFull(fd_, text.data(), text.size()))
        return errno;
    return 0;
}

void
JournalWriter::append(std::size_t index, const std::string &tag,
                      const JobResult &result)
{
    std::string payload = serializeJobResult(result);
    StateWriter w;
    w.words(kRecordKey, index, payload.size(), tag);
    w.block(payload);
    w.block("\n");
    const std::string &record = w.payload();

    std::lock_guard lock(mutex_);
    if (dead_)
        return;
    int err = FaultInjector::instance().shouldFailJournalWrite()
        ? ENOSPC
        : writeAll(record);
    if (err == 0 && ::fsync(fd_) != 0)
        err = errno;
    if (err == 0)
        return;
    if (isDiskFull(err)) {
        // Persistence is best-effort once the disk fills: warn once,
        // then run the rest of the sweep without a journal rather
        // than poisoning every remaining job with CacheError.
        dead_ = true;
        scsim_warn("journal '%s': %s; continuing without journaling "
                   "(this sweep will not resume past the last durable "
                   "record)", path_.c_str(), std::strerror(err));
        return;
    }
    scsim_throw(CacheError, "write to journal '%s' failed: %s",
                path_.c_str(), std::strerror(err));
}

void
JournalWriter::tryAppend(std::size_t index, const std::string &tag,
                         const JobResult &result)
{
    try {
        retryTransient("journal append",
                       [&] { append(index, tag, result); });
    } catch (const CacheError &e) {
        scsim_warn("journal append for '%s' gave up; a resume would "
                   "re-run it: %s", tag.c_str(), e.what());
    }
}

} // namespace scsim::runner
