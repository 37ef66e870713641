#include "runner/job_key.hh"

#include <cinttypes>
#include <cstdio>
#include <type_traits>

#include "common/rng.hh"

namespace scsim::runner {

namespace {

/** Appends one `key=value;` item; values use fieldText()'s
 *  locale-independent, round-trippable formatting, so the canonical
 *  text is stable across hosts. */
void
put(std::string &out, const char *key, const std::string &value)
{
    out += key;
    out += '=';
    out += value;
    out += ';';
}

} // namespace

std::string
canonicalText(const GpuConfig &cfg)
{
    std::string out;
    forEachField(cfg, [&out](const char *name, const auto &value) {
        put(out, name, fieldText(value));
    });
    return out;
}

std::string
canonicalText(const AppSpec &app)
{
    // Names go in raw; the division pattern is one "%.17g," per slot.
    std::string out;
    forEachField(app, [&out](const char *name, const auto &value) {
        using T = std::decay_t<decltype(value)>;
        if constexpr (std::is_same_v<T, std::string>) {
            put(out, name, value);
        } else if constexpr (std::is_same_v<T, std::vector<double>>) {
            std::string pattern;
            for (double d : value)
                pattern += fieldText(d) + ',';
            put(out, name, pattern);
        } else {
            put(out, name, fieldText(value));
        }
    });
    return out;
}

std::string
canonicalText(const SimJob &job)
{
    std::string out;
    put(out, "format", fieldText(kResultFormatVersion));
    put(out, "config", canonicalText(job.cfg));
    put(out, "app", canonicalText(job.app));
    put(out, "salt", fieldText(job.salt));
    put(out, "concurrent", fieldText(job.concurrent));
    return out;
}

std::uint64_t
jobKey(const SimJob &job)
{
    return hashString(canonicalText(job));
}

std::string
keyToHex(std::uint64_t key)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, key);
    return buf;
}

double
SimJob::expectedCost() const
{
    double slotMean = 0.0;
    for (double d : app.divPattern)
        slotMean += d;
    if (!app.divPattern.empty())
        slotMean /= static_cast<double>(app.divPattern.size());
    else
        slotMean = 1.0;
    double insts = static_cast<double>(app.numBlocks)
        * app.warpsPerBlock * app.baseInsts * app.numKernels * slotMean;
    // A fully-connected SM simulates the same work noticeably slower
    // (one big cluster, more contention modeling per cycle).
    if (cfg.subCores == 1)
        insts *= 1.3;
    return insts;
}

} // namespace scsim::runner
