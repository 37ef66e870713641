#include "runner/design.hh"

#include <cstring>
#include <sstream>

#include "common/logging.hh"

namespace scsim::runner {

namespace {

DesignOverlay
overlay(std::optional<SchedulerPolicy> scheduler,
        std::optional<AssignPolicy> assign,
        std::optional<int> subCores = std::nullopt,
        std::optional<bool> bankStealing = std::nullopt,
        std::optional<int> cusPerSubcore = std::nullopt)
{
    return DesignOverlay{ scheduler, assign, subCores, bankStealing,
                          cusPerSubcore };
}

/** True when @p name appears in the space-separated @p aliases. */
bool
matchesAlias(const char *aliases, const std::string &name)
{
    const char *p = aliases;
    while (*p != '\0') {
        const char *end = std::strchr(p, ' ');
        std::size_t len = end ? static_cast<std::size_t>(end - p)
                              : std::strlen(p);
        if (name.size() == len && name.compare(0, len, p, len) == 0)
            return true;
        p += len + (end ? 1 : 0);
    }
    return false;
}

} // namespace

const std::vector<DesignInfo> &
designCatalog()
{
    static const std::vector<DesignInfo> table = {
        { "Baseline", "",
          "GTO + RR on the partitioned SM",
          overlay(std::nullopt, std::nullopt) },
        { "RBA", "",
          "register-bank-aware warp scheduler",
          overlay(SchedulerPolicy::RBA, std::nullopt) },
        { "SRR", "",
          "skewed-round-robin warp-to-subcore assignment",
          overlay(std::nullopt, AssignPolicy::SRR) },
        { "Shuffle", "",
          "shuffled warp-to-subcore assignment",
          overlay(std::nullopt, AssignPolicy::Shuffle) },
        { "Shuffle+RBA", "ShuffleRBA",
          "shuffled assignment + RBA scheduler (the paper's proposal)",
          overlay(SchedulerPolicy::RBA, AssignPolicy::Shuffle) },
        { "Fully-Connected", "FullyConnected FC",
          "unpartitioned SM: one sub-core spans the register file",
          overlay(std::nullopt, std::nullopt, 1) },
        { "FC+RBA", "FullyConnectedRBA FCRBA",
          "unpartitioned SM + RBA scheduler",
          overlay(SchedulerPolicy::RBA, std::nullopt, 1) },
        { "BankStealing", "",
          "operand collectors may steal idle remote bank ports",
          overlay(std::nullopt, std::nullopt, std::nullopt, true) },
        { "4 CUs", "Cus4",
          "4 collector units per sub-core",
          overlay(std::nullopt, std::nullopt, std::nullopt,
                  std::nullopt, 4) },
        { "8 CUs", "Cus8",
          "8 collector units per sub-core",
          overlay(std::nullopt, std::nullopt, std::nullopt,
                  std::nullopt, 8) },
        { "16 CUs", "Cus16",
          "16 collector units per sub-core",
          overlay(std::nullopt, std::nullopt, std::nullopt,
                  std::nullopt, 16) },
    };
    return table;
}

const DesignInfo &
findDesign(const std::string &name)
{
    for (const DesignInfo &info : designCatalog())
        if (name == info.name || matchesAlias(info.aliases, name))
            return info;
    std::ostringstream valid;
    const char *sep = "";
    for (const DesignInfo &info : designCatalog()) {
        valid << sep << info.name;
        sep = ", ";
    }
    scsim_throw(ConfigError, "unknown design '%s' (valid: %s)",
                name.c_str(), valid.str().c_str());
}

GpuConfig
designConfig(GpuConfig cfg, const std::string &name)
{
    const DesignOverlay &o = findDesign(name).overlay;
    if (o.scheduler)
        cfg.scheduler = *o.scheduler;
    if (o.assign)
        cfg.assign = *o.assign;
    if (o.cusPerSubcore)
        cfg.collectorUnitsPerSm = *o.cusPerSubcore * cfg.subCores;
    if (o.subCores)
        cfg.subCores = *o.subCores;
    if (o.bankStealing)
        cfg.bankStealing = *o.bankStealing;
    return cfg;
}

} // namespace scsim::runner
