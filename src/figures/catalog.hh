/**
 * @file
 * The figure catalog: every table, figure and sensitivity study of
 * the paper reproduction as one data row, run by one path
 * (`scsim_cli figure <name>...|--all`).
 *
 * A row is data — its name, title, paper reference line and default
 * scale — plus a spec builder and a reducer.  The spec builder turns
 * a scale into the SweepSpec of every suite-application simulation
 * the figure needs; those jobs run on one SweepEngine, so every
 * figure gets `--jobs`, the result cache and `--isolate`, and its
 * output is byte-identical whichever of them is used.  The reducer
 * prints the figure from the SweepResult.  Simulations that are not
 * suite applications (the microbenchmarks, the analytical cost model,
 * re-allocated register code) run in-process inside the reducer.
 *
 * Speedups are normalized the way the paper normalizes: GTO warp
 * scheduler + round-robin sub-core assignment on the partitioned SM.
 */

#ifndef SCSIM_FIGURES_CATALOG_HH
#define SCSIM_FIGURES_CATALOG_HH

#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "runner/sweep_engine.hh"
#include "runner/sweep_spec.hh"

namespace scsim::figures {

/** One catalog row. */
struct Figure
{
    const char *name;   //!< key, e.g. "fig10_sensitive_apps"
    const char *title;  //!< first output line
    const char *paper;  //!< paper reference line; nullptr = none
    /** Workload scale used when the caller gives none; 0 = the figure
     *  has no scale (micro or analytical). */
    double defaultScale;
    std::function<runner::SweepSpec(double scale)> spec;
    std::function<void(const runner::SweepResult &, double scale,
                       std::ostream &)>
        reduce;
};

/** Every figure, in presentation order.  Built on first use. */
const std::vector<Figure> &catalog();

/** The row named @p name; ConfigError listing the names if unknown. */
const Figure &findFigure(const std::string &name);

/**
 * Run @p fig at @p scale (<= 0: its default) with @p opts and print
 * it to @p os.  Throws SimError if any job fails, before printing a
 * table from incomplete results.
 */
runner::SweepResult runFigure(const Figure &fig, double scale,
                              const runner::SweepOptions &opts,
                              std::ostream &os);

} // namespace scsim::figures

#endif // SCSIM_FIGURES_CATALOG_HH
