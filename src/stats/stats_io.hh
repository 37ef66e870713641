/**
 * @file
 * Wire serialization of SimStats (and its embedded TimeSeries).
 *
 * The payload is a deterministic, line-oriented `key value` text:
 * every counter, the per-scheduler issue matrix, the kernel spans
 * (names backslash-escaped so embedded newlines cannot split a
 * record), and the RF read trace with its window.  Numbers are
 * emitted locale-independently (`%.17g` for doubles) so a
 * serialize→parse→serialize round trip is byte-identical across
 * hosts — the property the result cache, the sweep journal, and the
 * subprocess IPC all rely on for byte-identical manifests.
 *
 * Framing (magic, format version, checksum) is deliberately *not*
 * here: callers wrap the payload with runner/wire.hh's record frame.
 * Unknown keys are skipped on parse, so adding a field is
 * forward-compatible within one format version.
 */

#ifndef SCSIM_STATS_STATS_IO_HH
#define SCSIM_STATS_STATS_IO_HH

#include <string>

#include "stats/stats.hh"

namespace scsim {

/** Deterministic `key value` text of every SimStats field. */
std::string serializeStatsPayload(const SimStats &stats);

/** Outcome of feeding one line to parseStatsLine. */
enum class StatsLine
{
    Consumed,  //!< recognized key, value parsed into the record
    Unknown,   //!< not a stats key (caller may handle it itself)
    Corrupt,   //!< recognized key with an unparsable value
};

/** Parse one payload line into @p s; see StatsLine. */
StatsLine parseStatsLine(const std::string &line, SimStats &s);

class FieldReader;

/** Decode @p r's current line into @p s when it is a stats line (see
 *  FieldReader::claimed); a refused value marks @p r bad. */
void readStatsLine(FieldReader &r, SimStats &s);

/**
 * Parse a whole payload into @p out.  Unknown keys are skipped
 * (forward compatibility); a malformed value for a known key fails
 * the parse.  @p out is untouched on failure.
 */
bool parseStatsPayload(const std::string &payload, SimStats &out);

} // namespace scsim

#endif // SCSIM_STATS_STATS_IO_HH
