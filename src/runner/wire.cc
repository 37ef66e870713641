#include "runner/wire.hh"

#include <climits>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/state_io.hh"
#include "runner/job_key.hh"
#include "stats/stats_io.hh"

namespace scsim::runner {

namespace {

constexpr const char *kStatsMagic = "scsim-result";
constexpr const char *kJobMagic = "scsim-job";
constexpr const char *kJobResMagic = "scsim-jobres";
constexpr const char *kSnapshotMagic = "scsim-snapshot";

/** A frame header is `<magic> v<version> <algorithm> <checksum>`. */
constexpr const char *kChecksumAlgo = "fnv1a";
/** A stream envelope line is `frame <bytes>`. */
constexpr const char *kEnvelopeKey = "frame";
/** A snapshot payload opens with `key <job key>`. */
constexpr const char *kSnapshotKey = "key";
/** A job record's config lines are `cfg <field> <value>`. */
constexpr const char *kConfigKey = "cfg";

std::string
versionWord(std::uint32_t version)
{
    return detail::format("v%u", version);
}

/** `app.<name>` for every AppSpec field, in forEachField order. */
const std::vector<std::string> &
appKeys()
{
    static const std::vector<std::string> keys = [] {
        std::vector<std::string> k;
        AppSpec app;
        forEachField(app, [&k](const char *name, const auto &) {
            k.push_back(std::string("app.") + name);
        });
        return k;
    }();
    return keys;
}

/** A job's config, one `cfg <field> <value>` line per GpuConfig
 *  field, in GpuConfig's own field list and spelling (fieldText). */
void
visitConfig(const GpuConfig &cfg, StateWriter &w)
{
    forEachField(cfg, [&w](const char *name, const auto &value) {
        w.words(kConfigKey, Keyword{ name }, fieldText(value));
    });
}

/** Reader side: GpuConfig::set decodes the line, so a key this build
 *  does not know throws ConfigError (a version-skewed peer).  The value
 *  must also be the writer's spelling, which `--set` parsing is not
 *  held to (it takes `+7` for 7). */
void
visitConfig(GpuConfig &cfg, FieldReader &r)
{
    std::string key, value;
    if (!r.words(kConfigKey, key, value))
        return;
    cfg.set(key, value);
    forEachField(cfg, [&](const char *name, const auto &field) {
        if (key == name && fieldText(field) != value)
            r.refuse();
    });
}

/** The scsim-job record: its own fields, the config, then every
 *  AppSpec field as `app.<name>`. */
template <class J, class V>
void
visitJob(J &job, V &v)
{
    v.field("tag", job.tag);
    v.field("salt", job.salt);
    v.field("concurrent", job.concurrent);
    visitConfig(job.cfg, v);
    std::size_t i = 0;
    forEachField(job.app, [&](const char *, auto &field) {
        v.field(appKeys()[i++], field);
    });
}

/** The scsim-jobres header fields; the stats payload follows. */
template <class R, class V>
void
visitJobResult(R &r, V &v)
{
    v.field("key", asHex(r.key));
    v.field("status", byName(r.status, kJobStatusNames));
    v.field("error", r.error);
    v.field("wallMs", r.wallMs);
    v.field("cached", r.cached);
    // -1 when the worker did not exit on its own.
    v.field("exitCode", r.exitCode, inRange(-1, 255, "exit code"));
    v.field("termSignal", r.termSignal, inRange(0, 127, "signal"));
    v.field("attempts", r.attempts, inRange(0, INT_MAX, "count"));
}

} // namespace

const char *
manifestStatus(JobStatus s)
{
    return s == JobStatus::Cached ? "ok" : toString(s);
}

std::string
frameRecord(const char *magic, std::uint32_t version,
            const std::string &payload)
{
    const std::string ver = versionWord(version);
    std::uint64_t sum = hashString(payload);
    StateWriter w;
    w.words(magic, Keyword{ ver }, Keyword{ kChecksumAlgo }, asHex(sum));
    w.block(payload);
    return w.take();
}

WireDecode
unframeRecord(const char *magic, std::uint32_t version,
              const std::string &text, std::string &payload)
{
    // The version is checked before the rest of the header, so a record
    // of another version is skew even if its header changed shape.
    FrameHeader hdr;
    if (!peekFrameHeader(text, hdr) || hdr.magic != magic)
        return WireDecode::Corrupt;
    if (hdr.version != version)
        return WireDecode::VersionSkew;
    const std::string ver = versionWord(version);
    std::uint64_t sum = 0;
    FieldReader r(text);
    if (!r.next()
        || !r.words(magic, Keyword{ ver }, Keyword{ kChecksumAlgo },
                    asHex(sum))
        || hashString(r.rest()) != sum)
        return WireDecode::Corrupt;
    payload = std::string(r.rest());
    return WireDecode::Ok;
}

bool
peekFrameHeader(const std::string &text, FrameHeader &out)
{
    std::string_view line(text);
    line = line.substr(0, line.find('\n'));
    std::size_t sp = line.find(' ');
    if (sp == 0 || sp == std::string_view::npos)
        return false;
    std::string_view version = line.substr(sp + 1);
    version = version.substr(0, version.find(' '));
    std::uint32_t v = 0;
    if (version.empty() || version.front() != 'v'
        || decodeValue(version.substr(1), v) != Decoded::Ok)
        return false;
    out.magic = std::string(line.substr(0, sp));
    out.version = v;
    return true;
}

std::string
envelopeFrame(const std::string &frame)
{
    StateWriter w;
    w.field(kEnvelopeKey, frame.size());
    w.block(frame);
    return w.take();
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

    // Longest legal envelope line is "frame " + 20 digits; anything
    // longer without a newline is already garbage — don't wait for one
    // that may never come.
    FieldReader r(buf_);
    if (!r.next()) {
        if (buf_.size() > 32)
            poison();
        return false;
    }
    std::uint64_t nbytes = 0;
    if (!r.field(kEnvelopeKey, nbytes,
                 inRange(0, static_cast<std::int64_t>(maxFrameBytes_),
                         "frame size"))) {
        poison();
        return false;
    }
    std::string_view body;
    if (!r.block(nbytes, body))
        return false;  // body still in flight

    frame.assign(body);
    buf_.erase(0, buf_.size() - r.rest().size());
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
    StateWriter w;
    visitJob(job, w);
    return frameRecord(kJobMagic, kJobWireVersion, w.payload());
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
    if (!readFields(payload, [&job](FieldReader &r) { visitJob(job, r); }))
        return WireDecode::Corrupt;
    out = std::move(job);
    return WireDecode::Ok;
}

std::string
serializeJobResult(const JobResult &r)
{
    StateWriter w;
    visitJobResult(r, w);
    w.block(serializeStatsPayload(r.stats));
    return frameRecord(kJobResMagic, kJobWireVersion, w.payload());
}

WireDecode
decodeJobResult(const std::string &text, JobResult &out)
{
    std::string payload;
    WireDecode d = unframeRecord(kJobResMagic, kJobWireVersion, text,
                                 payload);
    if (d != WireDecode::Ok)
        return d;
    JobResult res;
    if (!readFields(
            payload, [&res](FieldReader &r) { visitJobResult(res, r); },
            [&res](FieldReader &r) { readStatsLine(r, res.stats); }))
        return WireDecode::Corrupt;
    out = std::move(res);
    return WireDecode::Ok;
}

std::string
serializeSnapshot(std::uint64_t jobKey, const std::string &simState)
{
    // The first payload line pins the job key; the simulator state
    // (its own line-oriented `key value` text) follows verbatim, so the
    // record round-trips to the byte.
    StateWriter w;
    w.field(kSnapshotKey, asHex(jobKey));
    w.block(simState);
    return frameRecord(kSnapshotMagic, kSnapshotVersion, w.payload());
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
    FieldReader r(payload);
    std::uint64_t key = 0;
    if (!r.next() || !r.field(kSnapshotKey, asHex(key)))
        return WireDecode::Corrupt;
    jobKey = key;
    simState = std::string(r.rest());
    return WireDecode::Ok;
}

} // namespace scsim::runner
