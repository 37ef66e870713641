#include "config/gpu_config.hh"

#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>

#include "common/logging.hh"

namespace scsim {

const char *
toString(SchedulerPolicy p)
{
    switch (p) {
      case SchedulerPolicy::LRR: return "LRR";
      case SchedulerPolicy::GTO: return "GTO";
      case SchedulerPolicy::RBA: return "RBA";
    }
    return "?";
}

const char *
toString(AssignPolicy p)
{
    switch (p) {
      case AssignPolicy::RoundRobin:  return "RR";
      case AssignPolicy::SRR:         return "SRR";
      case AssignPolicy::Shuffle:     return "Shuffle";
      case AssignPolicy::HashSRR:     return "HashSRR";
      case AssignPolicy::HashShuffle: return "HashShuffle";
    }
    return "?";
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

namespace {

template <typename T>
T
parseNumber(const std::string &key, const std::string &value)
{
    std::istringstream iss(value);
    T out{};
    iss >> out;
    if (iss.fail() || !iss.eof())
        scsim_throw(ConfigError, "cannot parse value '%s' for key '%s'",
                    value.c_str(), key.c_str());
    return out;
}

bool
parseBool(const std::string &key, const std::string &value)
{
    if (value == "1" || value == "true" || value == "on")
        return true;
    if (value == "0" || value == "false" || value == "off")
        return false;
    scsim_throw(ConfigError, "cannot parse bool '%s' for key '%s'",
                value.c_str(), key.c_str());
}

SchedulerPolicy
parseScheduler(const std::string &value)
{
    if (value == "LRR") return SchedulerPolicy::LRR;
    if (value == "GTO") return SchedulerPolicy::GTO;
    if (value == "RBA") return SchedulerPolicy::RBA;
    scsim_throw(ConfigError, "unknown scheduler policy '%s'", value.c_str());
}

AssignPolicy
parseAssign(const std::string &value)
{
    if (value == "RR")          return AssignPolicy::RoundRobin;
    if (value == "SRR")         return AssignPolicy::SRR;
    if (value == "Shuffle")     return AssignPolicy::Shuffle;
    if (value == "HashSRR")     return AssignPolicy::HashSRR;
    if (value == "HashShuffle") return AssignPolicy::HashShuffle;
    scsim_throw(ConfigError, "unknown assignment policy '%s'", value.c_str());
}

} // namespace

void
GpuConfig::set(const std::string &key, const std::string &value)
{
    using Setter = std::function<void(GpuConfig &, const std::string &)>;
    #define SCSIM_NUM(field) \
        { #field, [](GpuConfig &c, const std::string &v) { \
              c.field = parseNumber<decltype(c.field)>(#field, v); } }
    #define SCSIM_BOOL(field) \
        { #field, [](GpuConfig &c, const std::string &v) { \
              c.field = parseBool(#field, v); } }
    static const std::map<std::string, Setter> setters = {
        SCSIM_NUM(numSms), SCSIM_NUM(schedulersPerSm), SCSIM_NUM(subCores),
        SCSIM_NUM(rfBanksPerSm), SCSIM_NUM(collectorUnitsPerSm),
        SCSIM_NUM(maxWarpsPerSm), SCSIM_NUM(maxWarpsPerScheduler),
        SCSIM_NUM(maxBlocksPerSm), SCSIM_NUM(regFileBytesPerSm),
        SCSIM_NUM(smemBytesPerSm), SCSIM_NUM(hashTableEntries),
        SCSIM_NUM(rbaScoreLatency),
        SCSIM_NUM(issueWidthPerScheduler),
        SCSIM_NUM(spPipesPerScheduler), SCSIM_NUM(spInitiation),
        SCSIM_NUM(spLatency), SCSIM_NUM(sfuPipesPerScheduler),
        SCSIM_NUM(sfuInitiation), SCSIM_NUM(sfuLatency),
        SCSIM_NUM(tensorPipesPerScheduler), SCSIM_NUM(tensorInitiation),
        SCSIM_NUM(tensorLatency), SCSIM_NUM(ldstPipesPerScheduler),
        SCSIM_NUM(ldstInitiation),
        SCSIM_NUM(l1Bytes), SCSIM_NUM(l1Ways), SCSIM_NUM(l1LineBytes),
        SCSIM_NUM(l1HitLatency), SCSIM_NUM(l1PortsPerSm),
        SCSIM_NUM(l2Bytes), SCSIM_NUM(l2Ways), SCSIM_NUM(l2HitLatency),
        SCSIM_NUM(dramLatency), SCSIM_NUM(l2SectorsPerCyclePerSm),
        SCSIM_NUM(dramSectorsPerCyclePerSm), SCSIM_NUM(smemLatency),
        SCSIM_NUM(maxCycles), SCSIM_NUM(hangWindowCycles),
        SCSIM_NUM(seed), SCSIM_NUM(rfTraceWindow),
        SCSIM_BOOL(bankStealing), SCSIM_BOOL(enableIdleSkip),
        SCSIM_BOOL(sharedWarpPool), SCSIM_BOOL(idealWarpMigration),
        SCSIM_BOOL(rfTraceEnable),
        { "scheduler", [](GpuConfig &c, const std::string &v) {
              c.scheduler = parseScheduler(v); } },
        { "assign", [](GpuConfig &c, const std::string &v) {
              c.assign = parseAssign(v); } },
    };
    #undef SCSIM_NUM
    #undef SCSIM_BOOL

    auto it = setters.find(key);
    if (it == setters.end())
        scsim_throw(ConfigError, "unknown configuration key '%s'", key.c_str());
    it->second(*this, value);
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
