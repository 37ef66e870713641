#include "config/gpu_config.hh"

#include <cinttypes>
#include <fstream>

#include "common/logging.hh"
#include "common/parse_number.hh"

namespace scsim {

namespace {

template <class P, std::size_t N>
const char *
policyName(const PolicyInfo<P> (&table)[N], P p)
{
    auto i = static_cast<std::size_t>(p);
    return i < N ? table[i].name : "?";
}

/** The row of @p table named @p name; ConfigError listing the valid
 *  names if there is none. */
template <class P, std::size_t N>
P
policyNamed(const PolicyInfo<P> (&table)[N], const char *kind,
            const std::string &name)
{
    for (const PolicyInfo<P> &row : table)
        if (name == row.name)
            return row.policy;
    std::string valid;
    for (const PolicyInfo<P> &row : table) {
        if (!valid.empty())
            valid += ", ";
        valid += row.name;
    }
    scsim_throw(ConfigError, "unknown %s '%s' (valid: %s)", kind,
                name.c_str(), valid.c_str());
}

/** Exactly as many names as GpuConfig has members: a member added to
 *  the struct without a row in forEachField() fails to compile here
 *  or at the row count below. */
[[maybe_unused]] void
bindEveryMember(const GpuConfig &c)
{
    [[maybe_unused]] const auto &[f01, f02, f03, f04, f05, f06, f07, f08,
                                  f09, f10, f11, f12, f13, f14, f15, f16,
                                  f17, f18, f19, f20, f21, f22, f23, f24,
                                  f25, f26, f27, f28, f29, f30, f31, f32,
                                  f33, f34, f35, f36, f37, f38, f39, f40,
                                  f41, f42, f43, f44, f45, f46, f47] = c;
}

constexpr int
fieldRows()
{
    GpuConfig c;
    int rows = 0;
    forEachField(c, [&rows](const char *, auto &) { ++rows; });
    return rows;
}
static_assert(fieldRows() == 47, "forEachField(GpuConfig) rows");

} // namespace

const char *
toString(SchedulerPolicy p)
{
    return policyName(kSchedulerPolicies, p);
}

const char *
toString(AssignPolicy p)
{
    return policyName(kAssignPolicies, p);
}

std::string fieldText(int v) { return detail::format("%d", v); }
std::string fieldText(std::uint32_t v) { return detail::format("%u", v); }

std::string
fieldText(std::uint64_t v)
{
    return detail::format("%" PRIu64, v);
}

std::string fieldText(double v) { return detail::format("%.17g", v); }
std::string fieldText(bool v) { return v ? "1" : "0"; }
std::string fieldText(SchedulerPolicy v) { return toString(v); }
std::string fieldText(AssignPolicy v) { return toString(v); }

bool
parseFieldText(const std::string &text, int &out)
{
    return parseNumber(text, out);
}

bool
parseFieldText(const std::string &text, std::uint32_t &out)
{
    return parseNumber(text, out);
}

bool
parseFieldText(const std::string &text, std::uint64_t &out)
{
    return parseNumber(text, out);
}

bool
parseFieldText(const std::string &text, double &out)
{
    return parseNumber(text, out);
}

bool
parseFieldText(const std::string &text, bool &out)
{
    if (text == "1" || text == "true" || text == "on")
        out = true;
    else if (text == "0" || text == "false" || text == "off")
        out = false;
    else
        return false;
    return true;
}

void
GpuConfig::validate() const
{
    if (numSms < 1)
        scsim_throw(ConfigError, "numSms must be >= 1 (got %d)", numSms);
    if (subCores < 1)
        scsim_throw(ConfigError, "subCores must be >= 1 (got %d)", subCores);
    if (schedulersPerSm % subCores != 0)
        scsim_throw(ConfigError, "schedulersPerSm (%d) not divisible by subCores (%d)",
                    schedulersPerSm, subCores);
    if (rfBanksPerSm % subCores != 0)
        scsim_throw(ConfigError, "rfBanksPerSm (%d) not divisible by subCores (%d)",
                    rfBanksPerSm, subCores);
    if (collectorUnitsPerSm % subCores != 0)
        scsim_throw(ConfigError, "collectorUnitsPerSm (%d) not divisible by "
                    "subCores (%d)", collectorUnitsPerSm, subCores);
    if (banksPerCluster() < 1)
        scsim_throw(ConfigError, "need at least one register bank per sub-core");
    if (cusPerCluster() < 1)
        scsim_throw(ConfigError, "need at least one collector unit per sub-core");
    // A sub-core's ready collector units are one 64-bit mask word.
    if (cusPerCluster() > 64)
        scsim_throw(ConfigError, "at most 64 collector units per sub-core "
                    "(got %d)", cusPerCluster());
    if (sharedWarpPool && subCores != 1)
        scsim_throw(ConfigError, "sharedWarpPool requires a monolithic SM");
    // Warp state is kept in one 64-bit mask word per SM (warp.hh).
    if (maxWarpsPerSm < 1 || maxWarpsPerSm > 64)
        scsim_throw(ConfigError, "maxWarpsPerSm must be in [1,64] (got %d)",
                    maxWarpsPerSm);
    if (maxWarpsPerScheduler * schedulersPerSm < maxWarpsPerSm)
        scsim_throw(ConfigError, "scheduler tables (%d x %d) cannot hold "
                    "maxWarpsPerSm (%d)", schedulersPerSm,
                    maxWarpsPerScheduler, maxWarpsPerSm);
    if (hashTableEntries != 4 && hashTableEntries != 16)
        scsim_throw(ConfigError, "hashTableEntries must be 4 or 16 (got %d)",
                    hashTableEntries);
    if (rbaScoreLatency < 0 || rbaScoreLatency > 64)
        scsim_throw(ConfigError, "rbaScoreLatency out of range [0,64]: %d",
                    rbaScoreLatency);
    if (l1LineBytes <= 0 || (l1LineBytes & (l1LineBytes - 1)) != 0)
        scsim_throw(ConfigError, "l1LineBytes must be a power of two");
}

void
GpuConfig::set(const std::string &key, const std::string &value)
{
    bool found = false;
    forEachField(*this, [&](const char *name, auto &field) {
        if (found || key != name)
            return;
        found = true;
        using T = std::remove_reference_t<decltype(field)>;
        if constexpr (std::is_same_v<T, SchedulerPolicy>) {
            field = policyNamed(kSchedulerPolicies, "scheduler", value);
        } else if constexpr (std::is_same_v<T, AssignPolicy>) {
            field = policyNamed(kAssignPolicies, "assignment policy", value);
        } else if (!parseFieldText(value, field)) {
            if constexpr (std::is_same_v<T, bool>)
                scsim_throw(ConfigError, "cannot parse bool '%s' for key '%s'",
                            value.c_str(), name);
            scsim_throw(ConfigError, "cannot parse value '%s' for key '%s'",
                        value.c_str(), name);
        }
    });
    if (!found)
        scsim_throw(ConfigError, "unknown configuration key '%s'", key.c_str());
}

void
GpuConfig::loadFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        scsim_throw(ConfigError, "cannot open config file '%s'", path.c_str());
    std::string line;
    int lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        auto hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        // trim
        auto first = line.find_first_not_of(" \t\r");
        if (first == std::string::npos)
            continue;
        auto last = line.find_last_not_of(" \t\r");
        line = line.substr(first, last - first + 1);
        auto eq = line.find('=');
        if (eq == std::string::npos)
            scsim_throw(ConfigError, "%s:%d: expected key=value", path.c_str(), lineNo);
        auto strip = [](std::string s) {
            auto b = s.find_first_not_of(" \t");
            auto e = s.find_last_not_of(" \t");
            return b == std::string::npos ? std::string()
                                          : s.substr(b, e - b + 1);
        };
        set(strip(line.substr(0, eq)), strip(line.substr(eq + 1)));
    }
}

GpuConfig
GpuConfig::volta()
{
    return GpuConfig{};
}

GpuConfig
GpuConfig::voltaFullyConnected()
{
    GpuConfig c;
    c.subCores = 1;
    return c;
}

GpuConfig
GpuConfig::keplerLike()
{
    GpuConfig c;
    c.subCores = 1;
    // Pre-partitioned architectures kept four-plus banks per
    // scheduler (Sec. III-A) over a 256 KB register file, fully
    // shared, with a correspondingly larger operand collector.
    c.rfBanksPerSm = 32;
    c.collectorUnitsPerSm = 16;
    c.regFileBytesPerSm = 256 * 1024;
    // SMX: 192 FP32 lanes shared by 4 schedulers -> 6 full-width pipes.
    c.spPipesPerScheduler = 1;   // x4 schedulers in the single cluster
    c.spInitiation = 1;          // 32-wide units
    c.spLatency = 9;
    c.issueWidthPerScheduler = 2;   // Kepler dual-issue
    c.sharedWarpPool = true;
    c.numSms = 8;
    return c;
}

GpuConfig
GpuConfig::a100Like()
{
    GpuConfig c;
    c.numSms = 108;
    c.l2Bytes = 40 * 1024 * 1024;
    c.l2Ways = 40;
    return c;
}

} // namespace scsim
