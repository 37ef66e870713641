#include "farm/protocol.hh"

#include <cctype>
#include <climits>
#include <concepts>
#include <type_traits>

#include "common/logging.hh"
#include "common/state_io.hh"
#include "common/text_escape.hh"
#include "runner/job_key.hh"

#ifndef SCSIM_VERSION
#define SCSIM_VERSION "dev"
#endif

namespace scsim::farm {

using runner::WireDecode;

namespace {

/** @p M is the record @p T, const (to write) or not (to read). */
template <class M, class T>
concept Is = std::same_as<std::remove_const_t<M>, T>;

/** A count kept in an int: never negative on the wire. */
const FieldRange kIntCount = inRange(0, INT_MAX, "count");

// One field list per fixed-shape message: `visitFields(msg, v)` names
// every field once with its wire key.  Over a StateWriter it writes the
// payload, over a FieldReader it decodes one (see common/state_io.hh).

template <Is<HelloMsg> M, class V>
void
visitFields(M &m, V &v)
{
    v.field("role", m.role);
    v.field("build", m.build);
    v.field("jobwire", m.jobWire);
    v.field("resultformat", m.resultFormat);
}

template <Is<AcceptMsg> M, class V>
void
visitFields(M &m, V &v)
{
    v.field("sweep", m.sweepId);
    v.field("spec", asHex(m.specHash));
    v.field("njobs", m.jobCount);
    v.field("adopted", m.adopted);
}

template <Is<SweepDoneMsg> M, class V>
void
visitFields(M &m, V &v)
{
    v.field("executed", m.executed);
    v.field("cachehits", m.cacheHits);
    v.field("failed", m.failed);
    v.field("resumed", m.resumed);
}

template <Is<BusyMsg> M, class V>
void
visitFields(M &m, V &v)
{
    v.field("reason", m.reason);
    v.field("retryafterms", m.retryAfterMs);
    v.field("queuedepth", m.queueDepth);
}

template <Is<DrainAckMsg> M, class V>
void
visitFields(M &m, V &v)
{
    v.field("inflight", m.inFlight);
    v.field("abandoned", m.abandoned);
    v.field("sweepsactive", m.sweepsActive);
}

template <Is<ErrorMsg> M, class V>
void
visitFields(M &m, V &v)
{
    v.field("message", m.message);
}

/**
 * Every FarmStatus field as f(name, field[, range]), by its
 * `status --json` name: the one list the status record (under the
 * lower-cased name) and statusToJson iterate.
 */
template <Is<FarmStatus> S, class F>
void
forEachField(S &s, F &&f)
{
    f("build", s.build);
    f("protocol", s.protocol);
    f("uptimeMs", s.uptimeMs);
    f("workers", s.workers, kIntCount);
    f("busyWorkers", s.busyWorkers, kIntCount);
    f("queueDepth", s.queueDepth);
    f("inFlight", s.inFlight);
    f("sessions", s.sessions);
    f("sweepsActive", s.sweepsActive);
    f("sweepsCompleted", s.sweepsCompleted);
    f("jobsCompleted", s.jobsCompleted);
    f("jobsFailed", s.jobsFailed);
    f("jobsCrashed", s.jobsCrashed);
    f("jobsCoalesced", s.jobsCoalesced);
    f("cacheHits", s.cacheHits);
    f("cacheMisses", s.cacheMisses);
    f("cacheQuarantined", s.cacheQuarantined);
    f("cacheEvicted", s.cacheEvicted);
    f("cacheDiskBytes", s.cacheDiskBytes);
    f("cacheMaxBytes", s.cacheMaxBytes);
    f("draining", s.draining);
    f("maxQueuedJobs", s.maxQueuedJobs);
    f("maxSweepsPerClient", s.maxSweepsPerClient);
    f("submitsRejected", s.submitsRejected);
    f("idleDisconnects", s.idleDisconnects);
    f("slowReaderDisconnects", s.slowReaderDisconnects);
    f("connectionsShed", s.connectionsShed);
    f("acceptFailures", s.acceptFailures);
    f("staleCompletions", s.staleCompletions);
}

template <Is<FarmStatus> S, class V>
void
visitFields(S &s, V &v)
{
    forEachField(s, [&v](const char *name, auto &field, auto... range) {
        std::string key = name;
        for (char &c : key)
            c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
        v.field(key, field, range...);
    });
}

template <class M>
std::string
encode(const char *magic, const M &m)
{
    StateWriter w;
    visitFields(m, w);
    return runner::frameRecord(magic, kFarmProtocolVersion, w.payload());
}

/** Unframe a @p magic record and decode its payload (see
 *  readFields). */
template <class Fields, class Other>
WireDecode
decodePayload(const char *magic, const std::string &frame, Fields &&fields,
              Other &&other)
{
    std::string payload;
    WireDecode d = runner::unframeRecord(magic, kFarmProtocolVersion,
                                         frame, payload);
    if (d != WireDecode::Ok)
        return d;
    return readFields(payload, fields, other) ? WireDecode::Ok
                                              : WireDecode::Corrupt;
}

/** Decode a fixed-shape message into @p out (untouched unless Ok). */
template <class M>
WireDecode
decode(const char *magic, const std::string &frame, M &out)
{
    M m;
    WireDecode d = decodePayload(
        magic, frame, [&m](FieldReader &r) { visitFields(m, r); },
        [](FieldReader &) {});
    if (d == WireDecode::Ok)
        out = std::move(m);
    return d;
}

// Submit and jobdone carry sized blocks after their scalar fields: a
// `job <index> <bytes>` / `result <bytes>` line, then that many bytes
// of an embedded scsim-job / scsim-jobres record.
constexpr const char *kJobBlock = "job";
constexpr const char *kResultBlock = "result";

/** Submit's scalar fields; @p njobs is the count of `job` blocks. */
template <Is<SubmitMsg> M, class N, class V>
void
visitFields(M &m, N &njobs, V &v)
{
    v.field("name", m.name);
    v.field("detach", m.detach);
    v.field("resume", m.resume);
    v.field("njobs", njobs);
}

template <Is<JobDoneMsg> M, class V>
void
visitFields(M &m, V &v)
{
    v.field("index", m.index);
    v.field("adopted", m.adopted);
}

} // namespace

const char *
buildVersion()
{
    return SCSIM_VERSION;
}

// ---- hello ------------------------------------------------------------

HelloMsg
localHello(const char *role)
{
    HelloMsg m;
    m.role = role;
    m.build = SCSIM_VERSION;
    m.jobWire = runner::kJobWireVersion;
    m.resultFormat = runner::kResultFormatVersion;
    return m;
}

std::string
serializeHello(const HelloMsg &m)
{
    return encode(kHelloMagic, m);
}

WireDecode
parseHello(const std::string &frame, HelloMsg &out)
{
    return decode(kHelloMagic, frame, out);
}

void
requireCompatibleHello(const HelloMsg &peer)
{
    if (peer.jobWire != runner::kJobWireVersion)
        scsim_throw(ConfigError,
                    "wire version mismatch: peer (%s, build %s) sends "
                    "job records v%u, this build (%s) speaks v%u — "
                    "run 'scsim_cli version' on both ends",
                    peer.role.c_str(), peer.build.c_str(),
                    peer.jobWire, SCSIM_VERSION,
                    runner::kJobWireVersion);
    if (peer.resultFormat != runner::kResultFormatVersion)
        scsim_throw(ConfigError,
                    "result format mismatch: peer (%s, build %s) uses "
                    "v%u, this build (%s) uses v%u — run 'scsim_cli "
                    "version' on both ends",
                    peer.role.c_str(), peer.build.c_str(),
                    peer.resultFormat, SCSIM_VERSION,
                    runner::kResultFormatVersion);
}

// ---- submit -----------------------------------------------------------

std::string
serializeSubmit(const SubmitMsg &m)
{
    StateWriter w;
    const std::size_t njobs = m.spec.jobs.size();
    visitFields(m, njobs, w);
    for (std::size_t i = 0; i < njobs; ++i) {
        std::string job = runner::serializeJob(m.spec.jobs[i]);
        w.words(kJobBlock, i, job.size());
        w.block(job);
    }
    return runner::frameRecord(kSubmitMagic, kFarmProtocolVersion,
                               w.payload());
}

WireDecode
parseSubmit(const std::string &frame, SubmitMsg &out)
{
    SubmitMsg m;
    std::uint64_t njobs = 0;
    WireDecode d = decodePayload(
        kSubmitMagic, frame,
        [&](FieldReader &r) { visitFields(m, njobs, r); },
        [&](FieldReader &r) {
            std::size_t index = 0, nbytes = 0;
            std::string_view block;
            if (!r.words(kJobBlock, index, nbytes))
                return;
            runner::SimJob job;
            // parseJob may throw ConfigError for a config key the peer
            // knows and we don't — let it propagate; the caller
            // reports it as a rejection, not silent corruption.
            if (index != m.spec.jobs.size() || !r.block(nbytes, block)
                || runner::parseJob(std::string(block), job)
                       != WireDecode::Ok)
                return r.refuse();
            m.spec.jobs.push_back(std::move(job));
        });
    if (d == WireDecode::Ok && m.spec.jobs.size() != njobs)
        d = WireDecode::Corrupt;
    if (d == WireDecode::Ok)
        out = std::move(m);
    return d;
}

// ---- accept -----------------------------------------------------------

std::string
serializeAccept(const AcceptMsg &m)
{
    return encode(kAcceptMagic, m);
}

WireDecode
parseAccept(const std::string &frame, AcceptMsg &out)
{
    return decode(kAcceptMagic, frame, out);
}

// ---- jobdone ----------------------------------------------------------

std::string
serializeJobDone(const JobDoneMsg &m)
{
    StateWriter w;
    visitFields(m, w);
    std::string res = runner::serializeJobResult(m.result);
    w.words(kResultBlock, res.size());
    w.block(res);
    return runner::frameRecord(kJobDoneMagic, kFarmProtocolVersion,
                               w.payload());
}

WireDecode
parseJobDone(const std::string &frame, JobDoneMsg &out)
{
    JobDoneMsg m;
    bool haveResult = false;
    WireDecode d = decodePayload(
        kJobDoneMagic, frame, [&](FieldReader &r) { visitFields(m, r); },
        [&](FieldReader &r) {
            std::size_t nbytes = 0;
            std::string_view block;
            if (!r.words(kResultBlock, nbytes))
                return;
            if (!r.block(nbytes, block)
                || runner::decodeJobResult(std::string(block), m.result)
                       != WireDecode::Ok)
                return r.refuse();
            haveResult = true;
        });
    if (d == WireDecode::Ok && !haveResult)
        d = WireDecode::Corrupt;
    if (d == WireDecode::Ok)
        out = std::move(m);
    return d;
}

// ---- sweepdone --------------------------------------------------------

std::string
serializeSweepDone(const SweepDoneMsg &m)
{
    return encode(kSweepDoneMagic, m);
}

WireDecode
parseSweepDone(const std::string &frame, SweepDoneMsg &out)
{
    return decode(kSweepDoneMagic, frame, out);
}

// ---- admission control ------------------------------------------------

std::string
serializeBusy(const BusyMsg &m)
{
    return encode(kBusyMagic, m);
}

WireDecode
parseBusy(const std::string &frame, BusyMsg &out)
{
    return decode(kBusyMagic, frame, out);
}

// ---- drain ------------------------------------------------------------

std::string
serializeDrainReq()
{
    return runner::frameRecord(kDrainReqMagic, kFarmProtocolVersion,
                               "");
}

WireDecode
parseDrainReq(const std::string &frame)
{
    std::string payload;
    return runner::unframeRecord(kDrainReqMagic, kFarmProtocolVersion,
                                 frame, payload);
}

std::string
serializeDrainAck(const DrainAckMsg &m)
{
    return encode(kDrainAckMagic, m);
}

WireDecode
parseDrainAck(const std::string &frame, DrainAckMsg &out)
{
    return decode(kDrainAckMagic, frame, out);
}

// ---- status -----------------------------------------------------------

double
FarmStatus::cacheHitRate() const
{
    std::uint64_t total = cacheHits + cacheMisses;
    return total ? static_cast<double>(cacheHits)
                       / static_cast<double>(total)
                 : 0.0;
}

std::string
serializeStatusReq()
{
    return runner::frameRecord(kStatusReqMagic, kFarmProtocolVersion,
                               "");
}

WireDecode
parseStatusReq(const std::string &frame)
{
    std::string payload;
    return runner::unframeRecord(kStatusReqMagic, kFarmProtocolVersion,
                                 frame, payload);
}

std::string
serializeStatus(const FarmStatus &s)
{
    return encode(kStatusMagic, s);
}

WireDecode
parseStatus(const std::string &frame, FarmStatus &out)
{
    return decode(kStatusMagic, frame, out);
}

std::string
statusToJson(const FarmStatus &s)
{
    std::string out = "{\n";
    const char *sep = "";
    auto entry = [&](const char *name, const std::string &value) {
        out += sep;
        out += "  \"";
        out += name;
        out += "\": ";
        out += value;
        sep = ",\n";
    };
    forEachField(s, [&](const char *name, const auto &field, auto...) {
        using T = std::remove_cvref_t<decltype(field)>;
        if constexpr (std::is_same_v<T, std::string>)
            entry(name, "\"" + jsonEscape(field) + "\"");
        else if constexpr (std::is_same_v<T, bool>)
            entry(name, field ? "true" : "false");
        else
            entry(name, std::to_string(field));
        // The derived hit rate follows the counts it is made of.
        if (std::string_view(name) == "cacheMisses")
            entry("cacheHitRate",
                  detail::format("%.4f", s.cacheHitRate()));
    });
    out += "\n}\n";
    return out;
}

// ---- errors -----------------------------------------------------------

std::string
serializeError(const std::string &message)
{
    return encode(kErrorMagic, ErrorMsg{ message });
}

WireDecode
parseError(const std::string &frame, ErrorMsg &out)
{
    return decode(kErrorMagic, frame, out);
}

// ---- decode policy ----------------------------------------------------

void
requireRecord(runner::WireDecode d, const std::string &frame,
              const char *context)
{
    if (d == WireDecode::Ok)
        return;
    runner::FrameHeader hdr;
    if (d == WireDecode::VersionSkew
        && runner::peekFrameHeader(frame, hdr))
        scsim_throw(ConfigError,
                    "farm protocol version mismatch at %s: peer sent "
                    "%s v%u, this build (%s) speaks v%u — run "
                    "'scsim_cli version' on both ends",
                    context, hdr.magic.c_str(), hdr.version,
                    SCSIM_VERSION, kFarmProtocolVersion);
    scsim_throw(ConfigError,
                "corrupt or unexpected farm record at %s (%zu bytes)",
                context, frame.size());
}

} // namespace scsim::farm
