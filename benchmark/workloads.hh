/**
 * @file
 * The benchmark's workloads and the pass that runs one of them.
 *
 * A pass runs one workload once, in the calling process, and reports
 * what it measured as one JSON line (the pass record).  scsim_bench
 * runs every pass in a fresh process so that CPU time and peak RSS
 * belong to that pass alone.
 *
 * An untraced pass goes through the public entry points a user calls
 * (SweepEngine::run, FarmServer/FarmClient, SimEngine::run).  A traced
 * pass drives the same jobs through the layer calls one at a time —
 * buildApp, the SimEngine constructor, run, serializeStatsPayload,
 * ResultCache, JournalWriter, runJobIsolated — with a span around
 * each, and reports per-layer metrics from those spans.  Both report a
 * stats digest over every job's statsFingerprint in spec order, so
 * scsim_bench can check that tracing did not change the simulation.
 */

#ifndef SCSIM_BENCH_WORKLOADS_HH
#define SCSIM_BENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace scsim::bench {

/** How much work one pass does. */
enum class Size
{
    Smoke,  //!< seconds for all workloads together (ctest)
    Bench,  //!< what the recorded benchmark runs: ~2-4 s per pass
    Paper,  //!< the sizes the paper figures use (fig10 = EXPERIMENTS.md)
};

const char *toString(Size s);
bool parseSize(const std::string &name, Size &out);

/** The five workloads, in the order a set runs them. */
const std::vector<std::string> &workloadNames();

bool isWorkload(const std::string &name);

/** One per-layer metric a traced pass reports. */
struct LayerMetric
{
    const char *name;
    const char *unit;
    /** A count that repeats exactly for one seed and size. */
    bool exact;
};

/** Every per-layer metric, in report order.  runner.job_p50_ms,
 *  runner.job_p95_ms and trace_overhead_frac are computed across
 *  passes by scsim_bench; a traced pass reports them as 0. */
const std::vector<LayerMetric> &layerMetrics();

struct PassOptions
{
    std::string workload;
    std::uint64_t seed = 0;
    Size size = Size::Bench;
    bool traced = false;
    std::string outDir;   //!< trace files and scratch work directories
    std::string cliPath;  //!< the `scsim_cli` binary run-job spawns
    int workers = 4;      //!< pool size for sweep and farm workloads
};

/**
 * Run one pass of @p opts.workload and return its record: a one-line
 * JSON object with `digest`, `attempted`, `failed`, `errors`,
 * `wall_s`, `cpu_s`, `setup_s`, `sim_warp_insts`, `job_p50_ms`, `job_p95_ms`,
 * `jobs_timed`, and `layers` when traced (fig10 adds `fig10_row`).
 * Job failures and cross-check mismatches are counted in `failed`,
 * never thrown.
 */
std::string runPass(const PassOptions &opts);

/**
 * Run one small spec in-process, isolated and through the farm, and
 * return the three stats digests separated by spaces ("failed" for a
 * path whose jobs did not all succeed).  The smoke test requires them
 * to be equal.
 */
std::string pathDigests(const PassOptions &opts);

/** Linear-interpolated percentile, @p p in [0,1]; 0 for no samples. */
double percentile(std::vector<double> v, double p);

} // namespace scsim::bench

#endif // SCSIM_BENCH_WORKLOADS_HH
