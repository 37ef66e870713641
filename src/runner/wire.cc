#include "runner/wire.hh"

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <type_traits>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/text_escape.hh"
#include "runner/job_key.hh"
#include "stats/stats_io.hh"

namespace scsim::runner {

namespace {

constexpr const char *kStatsMagic = "scsim-result";
constexpr const char *kJobMagic = "scsim-job";
constexpr const char *kJobResMagic = "scsim-jobres";
constexpr const char *kSnapshotMagic = "scsim-snapshot";

void
putLine(std::string &out, const char *key, const std::string &value)
{
    out += key;
    out += ' ';
    out += value;
    out += '\n';
}

/** Rest-of-line value after @p ls's current position, sans one
 *  leading separator space. */
std::string
restOfLine(std::istringstream &ls)
{
    std::string rest;
    std::getline(ls, rest);
    if (!rest.empty() && rest.front() == ' ')
        rest.erase(0, 1);
    return rest;
}

/** Every GpuConfig field as a `cfg <key> <value>` line. */
void
putConfig(std::string &out, const GpuConfig &cfg)
{
    forEachField(cfg, [&out](const char *name, const auto &value) {
        out += "cfg ";
        putLine(out, name, fieldText(value));
    });
}

/** Every AppSpec field as an `app.<key> ...` line: names escaped onto
 *  one line, the division pattern as one ` %.17g` per slot. */
void
putApp(std::string &out, const AppSpec &app)
{
    forEachField(app, [&out](const char *name, const auto &value) {
        using T = std::decay_t<decltype(value)>;
        out += "app.";
        out += name;
        if constexpr (std::is_same_v<T, std::string>) {
            out += ' ' + escapeLine(value);
        } else if constexpr (std::is_same_v<T, std::vector<double>>) {
            for (double d : value)
                out += ' ' + fieldText(d);
        } else {
            out += ' ' + fieldText(value);
        }
        out += '\n';
    });
}

/** Parse one `app.<field> ...` line; Corrupt on a bad value. */
StatsLine
parseAppLine(const std::string &key, std::istringstream &ls, AppSpec &app)
{
    if (key.rfind("app.", 0) != 0)
        return StatsLine::Unknown;
    StatsLine res = StatsLine::Unknown;
    forEachField(app, [&](const char *name, auto &field) {
        if (res != StatsLine::Unknown || key.compare(4, key.npos, name) != 0)
            return;
        using T = std::remove_reference_t<decltype(field)>;
        res = StatsLine::Consumed;
        if constexpr (std::is_same_v<T, std::string>) {
            field = unescapeLine(restOfLine(ls));
        } else if constexpr (std::is_same_v<T, std::vector<double>>) {
            field.clear();
            double d;
            while (ls >> d)
                field.push_back(d);
        } else {
            std::string text;
            ls >> text;
            if (!parseFieldText(text, field))
                res = StatsLine::Corrupt;
        }
    });
    return res;
}

} // namespace

const char *
toString(JobStatus s)
{
    switch (s) {
      case JobStatus::Skipped: return "skipped";
      case JobStatus::Ok:      return "ok";
      case JobStatus::Cached:  return "cached";
      case JobStatus::Failed:  return "failed";
      case JobStatus::Hang:    return "hang";
      case JobStatus::Crashed: return "crashed";
    }
    return "?";
}

const char *
manifestStatus(JobStatus s)
{
    return s == JobStatus::Cached ? "ok" : toString(s);
}

bool
parseJobStatus(const std::string &name, JobStatus &out)
{
    for (JobStatus s : { JobStatus::Skipped, JobStatus::Ok,
                         JobStatus::Cached, JobStatus::Failed,
                         JobStatus::Hang, JobStatus::Crashed })
        if (name == toString(s)) {
            out = s;
            return true;
        }
    return false;
}

std::string
frameRecord(const char *magic, std::uint32_t version,
            const std::string &payload)
{
    char header[96];
    std::snprintf(header, sizeof header, "%s v%u fnv1a %s\n", magic,
                  version, keyToHex(hashString(payload)).c_str());
    return header + payload;
}

WireDecode
unframeRecord(const char *magic, std::uint32_t version,
              const std::string &text, std::string &payload)
{
    auto nl = text.find('\n');
    if (nl == std::string::npos)
        return WireDecode::Corrupt;
    std::istringstream hs(text.substr(0, nl));
    std::string gotMagic, gotVersion, algo, sum;
    if (!(hs >> gotMagic >> gotVersion) || gotMagic != magic)
        return WireDecode::Corrupt;
    if (gotVersion != detail::format("v%u", version))
        return WireDecode::VersionSkew;
    if (!(hs >> algo >> sum) || algo != "fnv1a")
        return WireDecode::Corrupt;

    std::string body = text.substr(nl + 1);
    if (keyToHex(hashString(body)) != sum)
        return WireDecode::Corrupt;
    payload = std::move(body);
    return WireDecode::Ok;
}

bool
peekFrameHeader(const std::string &text, FrameHeader &out)
{
    auto nl = text.find('\n');
    std::istringstream hs(text.substr(
        0, nl == std::string::npos ? text.size() : nl));
    std::string magic, version;
    if (!(hs >> magic >> version))
        return false;
    if (version.size() < 2 || version.front() != 'v')
        return false;
    char *end = nullptr;
    unsigned long v = std::strtoul(version.c_str() + 1, &end, 10);
    if (!end || *end != '\0')
        return false;
    out.magic = std::move(magic);
    out.version = static_cast<std::uint32_t>(v);
    return true;
}

std::string
envelopeFrame(const std::string &frame)
{
    return detail::format("frame %zu\n", frame.size()) + frame;
}

void
FrameAssembler::feed(const char *data, std::size_t n)
{
    if (!corrupt_)
        buf_.append(data, n);
}

void
FrameAssembler::poison()
{
    // A poisoned stream never yields another frame, so whatever is
    // buffered is garbage a hostile peer made us hold — free it now
    // rather than when the connection object dies.
    corrupt_ = true;
    buf_.clear();
    buf_.shrink_to_fit();
}

bool
FrameAssembler::next(std::string &frame)
{
    if (corrupt_)
        return false;

    // Envelope line: `frame <byte-count>\n`.  Longest legal line is
    // "frame " + 20 digits; anything longer without a newline is
    // already garbage — don't wait for one that may never come.
    auto nl = buf_.find('\n');
    if (nl == std::string::npos) {
        if (buf_.size() > 32)
            poison();
        return false;
    }

    std::istringstream hs(buf_.substr(0, nl));
    std::string kw;
    std::uint64_t nbytes = 0;
    std::string trailing;
    if (!(hs >> kw >> nbytes) || kw != "frame" || (hs >> trailing)
        || nbytes > maxFrameBytes_) {
        poison();
        return false;
    }

    if (buf_.size() - (nl + 1) < nbytes)
        return false;  // body still in flight

    frame = buf_.substr(nl + 1, nbytes);
    buf_.erase(0, nl + 1 + nbytes);
    return true;
}

std::string
serializeStats(const SimStats &stats)
{
    return frameRecord(kStatsMagic, kResultFormatVersion,
                       serializeStatsPayload(stats));
}

WireDecode
decodeStats(const std::string &text, SimStats &out)
{
    std::string payload;
    WireDecode d = unframeRecord(kStatsMagic, kResultFormatVersion,
                                 text, payload);
    if (d != WireDecode::Ok)
        return d;
    return parseStatsPayload(payload, out) ? WireDecode::Ok
                                           : WireDecode::Corrupt;
}

bool
deserializeStats(const std::string &text, SimStats &out)
{
    return decodeStats(text, out) == WireDecode::Ok;
}

std::string
serializeJob(const SimJob &job)
{
    std::string payload;
    putLine(payload, "tag", escapeLine(job.tag));
    putLine(payload, "salt", fieldText(job.salt));
    putLine(payload, "concurrent", fieldText(job.concurrent));
    putConfig(payload, job.cfg);
    putApp(payload, job.app);
    return frameRecord(kJobMagic, kJobWireVersion, payload);
}

WireDecode
parseJob(const std::string &text, SimJob &out)
{
    std::string payload;
    WireDecode d = unframeRecord(kJobMagic, kJobWireVersion, text,
                                 payload);
    if (d != WireDecode::Ok)
        return d;

    SimJob job;
    std::istringstream in(payload);
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream ls(line);
        std::string key;
        if (!(ls >> key))
            continue;
        if (key == "tag") {
            job.tag = unescapeLine(restOfLine(ls));
        } else if (key == "salt") {
            if (!(ls >> job.salt))
                return WireDecode::Corrupt;
        } else if (key == "concurrent") {
            int b;
            if (!(ls >> b))
                return WireDecode::Corrupt;
            job.concurrent = b != 0;
        } else if (key == "cfg") {
            std::string cfgKey, cfgValue;
            if (!(ls >> cfgKey >> cfgValue))
                return WireDecode::Corrupt;
            job.cfg.set(cfgKey, cfgValue);  // may throw ConfigError
        } else if (parseAppLine(key, ls, job.app)
                   == StatsLine::Corrupt) {
            return WireDecode::Corrupt;
        }
        // Unknown keys are skipped: forward-compatible within a
        // format version bump.
    }
    out = std::move(job);
    return WireDecode::Ok;
}

std::string
serializeJobResult(const JobResult &r)
{
    std::string payload;
    putLine(payload, "key", keyToHex(r.key));
    putLine(payload, "status", toString(r.status));
    putLine(payload, "error", escapeLine(r.error));
    putLine(payload, "wallMs", fieldText(r.wallMs));
    putLine(payload, "cached", fieldText(r.cached));
    putLine(payload, "exitCode", fieldText(r.exitCode));
    putLine(payload, "termSignal", fieldText(r.termSignal));
    putLine(payload, "attempts", fieldText(r.attempts));
    payload += serializeStatsPayload(r.stats);
    return frameRecord(kJobResMagic, kJobWireVersion, payload);
}

WireDecode
decodeJobResult(const std::string &text, JobResult &out)
{
    std::string payload;
    WireDecode d = unframeRecord(kJobResMagic, kJobWireVersion, text,
                                 payload);
    if (d != WireDecode::Ok)
        return d;

    JobResult r;
    std::istringstream in(payload);
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream ls(line);
        std::string key;
        if (!(ls >> key))
            continue;
        if (key == "key") {
            std::string hex;
            if (!(ls >> hex))
                return WireDecode::Corrupt;
            char *end = nullptr;
            r.key = std::strtoull(hex.c_str(), &end, 16);
            if (!end || *end != '\0')
                return WireDecode::Corrupt;
        } else if (key == "status") {
            std::string name;
            if (!(ls >> name) || !parseJobStatus(name, r.status))
                return WireDecode::Corrupt;
        } else if (key == "error") {
            r.error = unescapeLine(restOfLine(ls));
        } else if (key == "wallMs") {
            if (!(ls >> r.wallMs))
                return WireDecode::Corrupt;
        } else if (key == "cached") {
            int b;
            if (!(ls >> b))
                return WireDecode::Corrupt;
            r.cached = b != 0;
        } else if (key == "exitCode") {
            if (!(ls >> r.exitCode))
                return WireDecode::Corrupt;
        } else if (key == "termSignal") {
            if (!(ls >> r.termSignal))
                return WireDecode::Corrupt;
        } else if (key == "attempts") {
            if (!(ls >> r.attempts))
                return WireDecode::Corrupt;
        } else if (parseStatsLine(line, r.stats) == StatsLine::Corrupt) {
            return WireDecode::Corrupt;
        }
    }
    out = std::move(r);
    return WireDecode::Ok;
}

std::string
serializeSnapshot(std::uint64_t jobKey, const std::string &simState)
{
    // First payload line pins the job key; the simulator state (its
    // own line-oriented `key value` text) follows verbatim, so the
    // record round-trips to the byte.
    std::string payload;
    putLine(payload, "key", keyToHex(jobKey));
    payload += simState;
    return frameRecord(kSnapshotMagic, kSnapshotVersion, payload);
}

WireDecode
decodeSnapshot(const std::string &text, std::uint64_t &jobKey,
               std::string &simState)
{
    std::string payload;
    WireDecode d = unframeRecord(kSnapshotMagic, kSnapshotVersion, text,
                                 payload);
    if (d != WireDecode::Ok)
        return d;

    auto nl = payload.find('\n');
    if (nl == std::string::npos)
        return WireDecode::Corrupt;
    std::istringstream ls(payload.substr(0, nl));
    std::string kw, hex;
    std::string trailing;
    if (!(ls >> kw >> hex) || kw != "key" || (ls >> trailing))
        return WireDecode::Corrupt;
    char *end = nullptr;
    std::uint64_t key = std::strtoull(hex.c_str(), &end, 16);
    if (!end || *end != '\0')
        return WireDecode::Corrupt;

    jobKey = key;
    simState = payload.substr(nl + 1);
    return WireDecode::Ok;
}

} // namespace scsim::runner
