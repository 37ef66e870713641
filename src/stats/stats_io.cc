#include "stats/stats_io.hh"

#include "common/state_io.hh"

namespace scsim {

std::string
serializeStatsPayload(const SimStats &stats)
{
    StateWriter w;
    for (const auto &[name, member] : kStatsCounters)
        w.field(name, stats.*member);
    for (const auto &row : stats.issuePerScheduler)
        w.field("issueRow", row);
    // The name runs to the end of the line; it may contain spaces.
    for (const auto &[name, span] : stats.kernelSpans)
        w.words("kernelSpan", span, name);
    w.field("rfTraceWindow", stats.rfReadTrace.window());
    w.field("rfTraceSamples", stats.rfReadTrace.samples());
    return w.take();
}

void
readStatsLine(FieldReader &r, SimStats &s)
{
    for (const auto &[name, member] : kStatsCounters)
        r.field(name, s.*member);
    std::vector<std::uint64_t> row;
    if (r.field("issueRow", row))
        s.issuePerScheduler.push_back(std::move(row));
    std::uint64_t span = 0;
    std::string name;
    if (r.words("kernelSpan", span, name))
        s.kernelSpans.emplace_back(std::move(name), span);
    Cycle window = 0;
    if (r.field("rfTraceWindow", window))
        s.rfReadTrace = TimeSeries{ window };
    std::vector<double> samples;
    if (r.field("rfTraceSamples", samples))
        s.rfReadTrace.restoreSamples(std::move(samples));
}

StatsLine
parseStatsLine(const std::string &line, SimStats &s)
{
    const std::string text = line + '\n';
    FieldReader r(text);
    r.next();
    readStatsLine(r, s);
    return r.bad()       ? StatsLine::Corrupt
           : r.claimed() ? StatsLine::Consumed
                         : StatsLine::Unknown;
}

bool
parseStatsPayload(const std::string &payload, SimStats &out)
{
    SimStats s;
    if (!readFields(payload, [&s](FieldReader &r) { readStatsLine(r, s); }))
        return false;
    out = std::move(s);
    return true;
}

} // namespace scsim
