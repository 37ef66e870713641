#include "runner/journal.hh"

#include <cerrno>
#include <cinttypes>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include <fcntl.h>
#include <unistd.h>

#include "common/fault_inject.hh"
#include "common/io_util.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/text_escape.hh"
#include "runner/job_key.hh"
#include "runner/result_cache.hh"
#include "runner/wire.hh"

namespace scsim::runner {

namespace {

constexpr const char *kJournalMagic = "scsim-journal";
inline constexpr std::uint32_t kJournalVersion = 1;

std::string
headerLine(std::uint64_t specHash, std::uint64_t jobCount)
{
    return detail::format("%s v%u spec %s jobs %" PRIu64 "\n",
                          kJournalMagic, kJournalVersion,
                          keyToHex(specHash).c_str(), jobCount);
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

    auto nl = text.find('\n');
    if (nl == std::string::npos)
        scsim_throw(CacheError, "journal '%s' has no header",
                    path.c_str());
    {
        std::istringstream hs(text.substr(0, nl));
        std::string magic, version, specKw, specHex, jobsKw;
        if (!(hs >> magic >> version >> specKw >> specHex >> jobsKw
                 >> out.jobCount)
            || magic != kJournalMagic || specKw != "spec"
            || jobsKw != "jobs")
            scsim_throw(CacheError, "journal '%s' has a malformed "
                        "header", path.c_str());
        if (version != detail::format("v%u", kJournalVersion))
            scsim_throw(CacheError, "journal '%s' is format %s; this "
                        "build writes v%u", path.c_str(),
                        version.c_str(), kJournalVersion);
        char *end = nullptr;
        out.specHash = std::strtoull(specHex.c_str(), &end, 16);
        if (!end || *end != '\0')
            scsim_throw(CacheError, "journal '%s' has an unparsable "
                        "spec hash", path.c_str());
    }

    // Records.  Any damage from here on is a truncated tail (the
    // SIGKILL-mid-append case): keep what is intact, drop the rest.
    std::size_t pos = nl + 1;
    while (pos < text.size()) {
        auto lineEnd = text.find('\n', pos);
        if (lineEnd == std::string::npos)
            break;  // half-written record line
        std::istringstream ls(text.substr(pos, lineEnd - pos));
        std::string kw;
        std::size_t index = 0, nbytes = 0;
        if (!(ls >> kw >> index >> nbytes) || kw != "record") {
            ++out.dropped;
            break;
        }
        std::string tag;
        std::getline(ls, tag);
        if (!tag.empty() && tag.front() == ' ')
            tag.erase(0, 1);

        std::size_t payloadStart = lineEnd + 1;
        if (payloadStart + nbytes + 1 > text.size()) {
            ++out.dropped;
            break;  // payload (or its trailing newline) cut short
        }
        JournalRecord rec;
        rec.index = index;
        rec.tag = unescapeLine(tag);
        if (decodeJobResult(text.substr(payloadStart, nbytes),
                            rec.result) != WireDecode::Ok) {
            ++out.dropped;
            break;
        }
        out.records.push_back(std::move(rec));
        pos = payloadStart + nbytes + 1;
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
        if (int err = writeAll(headerLine(specHash, jobCount)))
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
    std::string record = detail::format("record %zu %zu ", index,
                                        payload.size())
        + escapeLine(tag) + "\n" + payload + "\n";

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
