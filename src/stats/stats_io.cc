#include "stats/stats_io.hh"

#include <cinttypes>
#include <cstdio>
#include <sstream>

#include "common/parse_number.hh"
#include "common/text_escape.hh"

namespace scsim {

namespace {

void
putU64(std::string &out, const char *key, std::uint64_t v)
{
    char buf[96];
    std::snprintf(buf, sizeof buf, "%s %" PRIu64 "\n", key, v);
    out += buf;
}

/** The next token of @p ls as a count; false if there is none or it
 *  is not an unsigned number (a sign included). */
bool
readCount(std::istream &ls, std::uint64_t &v)
{
    std::string tok;
    return ls >> tok && parseNumber(tok, v);
}

} // namespace

std::string
serializeStatsPayload(const SimStats &stats)
{
    std::string out;
    for (const auto &[name, member] : kStatsCounters)
        putU64(out, name, stats.*member);

    for (const auto &row : stats.issuePerScheduler) {
        out += "issueRow";
        for (std::uint64_t v : row) {
            char buf[32];
            std::snprintf(buf, sizeof buf, " %" PRIu64, v);
            out += buf;
        }
        out += '\n';
    }
    for (const auto &[name, span] : stats.kernelSpans) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%" PRIu64, span);
        out += "kernelSpan ";
        out += buf;
        out += ' ';
        out += escapeLine(name);  // to end of line; may contain spaces
        out += '\n';
    }
    {
        putU64(out, "rfTraceWindow", stats.rfReadTrace.window());
        out += "rfTraceSamples";
        for (double s : stats.rfReadTrace.samples()) {
            char buf[64];
            std::snprintf(buf, sizeof buf, " %.17g", s);
            out += buf;
        }
        out += '\n';
    }
    return out;
}

StatsLine
parseStatsLine(const std::string &line, SimStats &s)
{
    std::istringstream ls(line);
    std::string key;
    if (!(ls >> key))
        return StatsLine::Unknown;

    for (const auto &[name, member] : kStatsCounters)
        if (key == name)
            return readCount(ls, s.*member) ? StatsLine::Consumed
                                            : StatsLine::Corrupt;

    if (key == "issueRow") {
        std::vector<std::uint64_t> row;
        std::string tok;
        std::uint64_t v;
        while (ls >> tok) {
            if (!parseNumber(tok, v))
                return StatsLine::Corrupt;
            row.push_back(v);
        }
        s.issuePerScheduler.push_back(std::move(row));
        return StatsLine::Consumed;
    }
    if (key == "kernelSpan") {
        std::uint64_t span;
        if (!readCount(ls, span))
            return StatsLine::Corrupt;
        std::string name;
        std::getline(ls, name);
        if (!name.empty() && name.front() == ' ')
            name.erase(0, 1);
        s.kernelSpans.emplace_back(unescapeLine(name), span);
        return StatsLine::Consumed;
    }
    if (key == "rfTraceWindow") {
        std::uint64_t w;
        if (!readCount(ls, w))
            return StatsLine::Corrupt;
        s.rfReadTrace = TimeSeries{ w };
        return StatsLine::Consumed;
    }
    if (key == "rfTraceSamples") {
        std::vector<double> samples;
        double v;
        while (ls >> v)
            samples.push_back(v);
        s.rfReadTrace.restoreSamples(std::move(samples));
        return StatsLine::Consumed;
    }
    return StatsLine::Unknown;
}

bool
parseStatsPayload(const std::string &payload, SimStats &out)
{
    std::istringstream in(payload);
    SimStats s;
    std::string line;
    while (std::getline(in, line))
        if (parseStatsLine(line, s) == StatsLine::Corrupt)
            return false;
    out = std::move(s);
    return true;
}

} // namespace scsim
