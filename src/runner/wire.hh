/**
 * @file
 * Versioned, checksummed wire records for the sweep subsystem.
 *
 * One framing convention — a header line `<magic> v<version> fnv1a
 * <16-hex checksum>` followed by a line-oriented payload — carries
 * three record kinds:
 *
 *  - `scsim-result`: a SimStats record.  This is the result cache's
 *    on-disk entry format (byte-compatible with pre-wire caches) and
 *    the stats section of the two records below.
 *  - `scsim-job`: a complete SimJob (tag, every config field, every
 *    workload-spec field, salt, mode), sent on stdin to an isolated
 *    `scsim_cli run-job` worker.
 *  - `scsim-jobres`: a complete JobResult (status, error, crash
 *    detail, stats), returned on the worker's stdout and appended to
 *    the sweep resume journal.
 *
 * Every record is round-trippable to the byte: serialize(parse(x))
 * == x, which is what makes a resumed sweep's manifest identical to
 * an uninterrupted run's.  A checksum or parse failure decodes as
 * Corrupt; a well-formed record of another version as VersionSkew —
 * callers decide whether that means quarantine (cache), re-run
 * (journal), or a crashed worker (IPC).
 */

#ifndef SCSIM_RUNNER_WIRE_HH
#define SCSIM_RUNNER_WIRE_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "runner/job_result.hh"
#include "runner/sweep_spec.hh"
#include "stats/stats.hh"

namespace scsim::runner {

/** Outcome of decoding a framed wire record. */
enum class WireDecode
{
    Ok,           //!< checksum verified, payload parsed
    VersionSkew,  //!< well-formed but another format version
    Corrupt,      //!< bad header, checksum mismatch, or parse failure
};

/** Version of the job / job-result wire records (IPC + journal). */
inline constexpr std::uint32_t kJobWireVersion = 1;

/** Version of the mid-run snapshot record (`scsim-snapshot`). */
inline constexpr std::uint32_t kSnapshotVersion = 1;

/** `<magic> v<version> fnv1a <checksum>\n` + payload. */
std::string frameRecord(const char *magic, std::uint32_t version,
                        const std::string &payload);

/**
 * Undo frameRecord: verify magic, version and checksum, leaving the
 * payload in @p payload (untouched unless Ok is returned).
 */
WireDecode unframeRecord(const char *magic, std::uint32_t version,
                         const std::string &text, std::string &payload);

/** The magic and version of a frame, without verifying its body. */
struct FrameHeader
{
    std::string magic;
    std::uint32_t version = 0;
};

/**
 * Read just the `<magic> v<version>` prefix of a framed record.
 * False when even that much is unparsable.  This is how a peer that
 * rejects a record as VersionSkew finds out *which* version the other
 * side speaks, so it can say so instead of reporting a bad checksum.
 */
bool peekFrameHeader(const std::string &text, FrameHeader &out);

// ---- stream transport: incremental frame reassembly -------------------

/**
 * Wrap @p frame for a byte-stream transport (socket, pipe): a
 * `frame <byte-count>\n` envelope line, then the frame verbatim.
 * Framed records are self-checking but not self-delimiting — on a
 * pipe the record ends at EOF, but a socket carries many records, and
 * read() hands them back in arbitrary chunks.
 */
std::string envelopeFrame(const std::string &frame);

/**
 * Reassembles enveloped frames from arbitrary read() chunks: feed()
 * bytes as they arrive — one at a time, split anywhere, including
 * mid-envelope-line or mid-checksum — and next() yields each complete
 * frame exactly once, in order.  A malformed envelope line or a frame
 * larger than the cap poisons the stream (corrupt() stays true and
 * next() yields nothing further): on a byte stream there is no way to
 * resynchronise past unframed garbage.
 */
/** Default FrameAssembler frame-size cap (64 MiB): any peer claiming
 *  a larger frame is poisoning the stream, not speaking the protocol. */
inline constexpr std::size_t kMaxFrameBytes = 64u << 20;

class FrameAssembler
{
  public:
    explicit FrameAssembler(std::size_t maxFrameBytes = kMaxFrameBytes)
        : maxFrameBytes_(maxFrameBytes)
    {
    }

    /** Absorb @p n more transport bytes. */
    void feed(const char *data, std::size_t n);
    void feed(const std::string &chunk) { feed(chunk.data(), chunk.size()); }

    /** Pop the next complete frame into @p frame; false when none. */
    bool next(std::string &frame);

    /** True once the stream is unrecoverably damaged. */
    bool corrupt() const { return corrupt_; }

    /** Bytes buffered awaiting a complete frame. */
    std::size_t buffered() const { return buf_.size(); }

    /** The frame-size cap this assembler enforces. */
    std::size_t maxFrameBytes() const { return maxFrameBytes_; }

  private:
    void poison();

    std::string buf_;
    std::size_t maxFrameBytes_;
    bool corrupt_ = false;
};

// ---- SimStats records (the result-cache entry format) -----------------

/**
 * Deterministic text form of a SimStats record: a header line with
 * format version and payload checksum, then `key value` lines.
 * Kernel names are backslash-escaped so embedded newlines cannot
 * corrupt the line-oriented format.
 */
std::string serializeStats(const SimStats &stats);

/** Decode @p text into @p out; see WireDecode. */
WireDecode decodeStats(const std::string &text, SimStats &out);

/** Convenience: decodeStats(...) == Ok. */
bool deserializeStats(const std::string &text, SimStats &out);

// ---- SimJob records (parent -> isolated worker) -----------------------

/** Framed record holding everything a worker needs to run @p job. */
std::string serializeJob(const SimJob &job);

/** Decode a serializeJob record.  May throw ConfigError when a
 *  config key/value pair inside an otherwise valid record is
 *  rejected by GpuConfig::set (version-skewed peers). */
WireDecode parseJob(const std::string &text, SimJob &out);

// ---- JobResult records (worker -> parent, and the journal) ------------

/** Framed record holding @p r, including its full stats. */
std::string serializeJobResult(const JobResult &r);

/** Decode a serializeJobResult record into @p out. */
WireDecode decodeJobResult(const std::string &text, JobResult &out);

// ---- Snapshot records (mid-run checkpoint files) ----------------------

/**
 * Framed record holding a mid-run simulator snapshot: the key of the
 * job it belongs to (a resume refuses a snapshot for any other job)
 * plus GpuSim's serialized run state, verbatim.  Like every other
 * record, damage decodes as Corrupt and an older/newer format as
 * VersionSkew — both of which the resume path treats as "no snapshot:
 * start cold", never as a job failure.
 */
std::string serializeSnapshot(std::uint64_t jobKey,
                              const std::string &simState);

/** Decode a serializeSnapshot record; outputs touched only on Ok. */
WireDecode decodeSnapshot(const std::string &text, std::uint64_t &jobKey,
                          std::string &simState);

} // namespace scsim::runner

#endif // SCSIM_RUNNER_WIRE_HH
