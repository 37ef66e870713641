/**
 * @file
 * Named design points evaluated across the paper's figures.
 *
 * A design is a delta on top of a baseline GpuConfig: the scheduler /
 * assignment policy combinations of Section IV plus the
 * fully-connected SM and the collector-unit / bank-stealing
 * comparison points.  Lives in the library so the sweep engine, the
 * CLI and the figure catalog all agree on what "Shuffle+RBA" means.
 *
 * The catalogue is a data table (designCatalog()): one row holds the
 * display name, the command-line aliases, a one-line description, and
 * the config overlay — adding a design point is adding a row, visible
 * at once to `scsim_cli list-designs`, the sweep engine, and every
 * figure.  Designs are named, never numbered: findDesign() is the one
 * resolver.
 */

#ifndef SCSIM_RUNNER_DESIGN_HH
#define SCSIM_RUNNER_DESIGN_HH

#include <optional>
#include <string>
#include <vector>

#include "config/gpu_config.hh"

namespace scsim::runner {

/**
 * The config delta a design point applies to a baseline.  Absent
 * fields leave the baseline untouched, so one overlay composes with
 * any base configuration.
 */
struct DesignOverlay
{
    std::optional<SchedulerPolicy> scheduler;
    std::optional<AssignPolicy> assign;
    std::optional<int> subCores;
    std::optional<bool> bankStealing;
    /** collectorUnitsPerSm = cusPerSubcore * base.subCores. */
    std::optional<int> cusPerSubcore;
};

/** One catalogue row: naming, documentation, overlay. */
struct DesignInfo
{
    const char *name;         //!< display form ("Shuffle+RBA")
    /** Identifier aliases usable on a command line (no '+', ' ', '-'),
     *  space-separated; empty when the display form needs none. */
    const char *aliases;
    const char *description;
    DesignOverlay overlay;
};

/** The full design table (Baseline first). */
const std::vector<DesignInfo> &designCatalog();

/**
 * Resolve a design name; accepts both the display form ("Shuffle+RBA")
 * and the identifier aliases ("ShuffleRBA", "FC", ...).  Throws
 * ConfigError listing the valid names on unknown input.
 */
const DesignInfo &findDesign(const std::string &name);

/**
 * Resolve @p name through findDesign() and apply its overlay to
 * @p base.
 */
GpuConfig designConfig(GpuConfig base, const std::string &name);

} // namespace scsim::runner

#endif // SCSIM_RUNNER_DESIGN_HH
