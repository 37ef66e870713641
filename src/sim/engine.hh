/**
 * @file
 * SimEngine: the library facade every driver builds a simulation
 * through.
 *
 * The CLI, the sweep engine, and the figure binaries used to each
 * carry their own copy of the same four lines — synthesize the
 * workload, construct a GpuSim, pick run vs runConcurrent, collect
 * stats.  SimEngine is that wiring, once: build from a (validated)
 * config, run a workload, and optionally observe the run from hook
 * points.  Policies underneath are built by makeScheduler() and
 * makeAssigner(), switches on the config's policy enums.
 *
 * The facade also owns the *stats fingerprint*: a 64-bit FNV-1a hash
 * of the canonical stats payload (stats/stats_io.hh).  Two runs are
 * behaviorally identical iff their fingerprints match — the golden
 * equivalence tests (ctest label `engine`) pin the fingerprints of
 * all design points against seed behavior, which is what lets the
 * wiring refactor prove it changed nothing.
 */

#ifndef SCSIM_SIM_ENGINE_HH
#define SCSIM_SIM_ENGINE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "config/gpu_config.hh"
#include "gpu/gpu_sim.hh"
#include "workloads/suite.hh"

namespace scsim::sim {

/**
 * Observer hook points around one workload run.  Every callback is
 * optional; observers fire in registration order.  Used for progress
 * reporting and instrumentation without threading callbacks through
 * the simulator core.
 */
struct EngineObserver
{
    /** Before the simulation starts. */
    std::function<void(const GpuConfig &, const Application &)> onRunStart;
    /** After the simulation finished, with its stats. */
    std::function<void(const Application &, const SimStats &)> onRunEnd;
    /**
     * Mid-run checkpoint: a serialized GpuSim run-state payload,
     * fired every setCheckpointInterval() simulated cycles.  Only
     * observes — the simulation is bit-identical with or without it.
     */
    std::function<void(const std::string &payload, Cycle now)> onCheckpoint;
};

class SimEngine
{
  public:
    /**
     * Build a simulator from @p cfg.  Validates the configuration
     * (throws ConfigError) and constructs the GpuSim, policies
     * included, so an inconsistent config fails here, not mid-run.
     */
    explicit SimEngine(const GpuConfig &cfg);
    ~SimEngine();

    SimEngine(SimEngine &&) noexcept;
    SimEngine &operator=(SimEngine &&) noexcept;

    const GpuConfig &config() const;

    /** The underlying simulator (tests, state dumps). */
    GpuSim &sim() { return *sim_; }
    const GpuSim &sim() const { return *sim_; }

    void addObserver(EngineObserver obs);

    /** Run @p app's kernels back-to-back. */
    SimStats run(const Application &app);

    /** Run a single kernel. */
    SimStats run(const KernelDesc &kernel);

    /** Run @p app's kernels concurrently (multi-kernel setting). */
    SimStats runConcurrent(const Application &app);

    /**
     * Synthesize @p spec (with @p salt) and run it; @p concurrent
     * selects the multi-kernel mode.  The one call the sweep engine
     * and the `run-job` worker both reduce to.
     */
    SimStats runApp(const AppSpec &spec, std::uint64_t salt = 0,
                    bool concurrent = false);

    /**
     * Snapshot period in simulated cycles; 0 (the default) disables
     * checkpointing.  When set, every run invokes each observer's
     * onCheckpoint with the serialized run state at that cadence.
     */
    void setCheckpointInterval(Cycle everyCycles);

    /**
     * Resume an interrupted runApp() from a checkpoint payload:
     * synthesizes the same workload, restores the simulator, and
     * finishes the run.  The payload's own `concurrent` flag governs
     * the mode; final stats are identical to an uninterrupted run.
     * Throws CacheError on any damaged or mismatched payload.
     */
    SimStats resumeApp(const AppSpec &spec, std::uint64_t salt,
                       const std::string &payload);

  private:
    SimStats dispatch(const Application &app, bool concurrent);

    std::unique_ptr<GpuSim> sim_;
    std::vector<EngineObserver> observers_;
};

/**
 * 64-bit FNV-1a hash of the canonical stats payload: the behavioral
 * identity of a run.  Byte-identical stats <=> equal fingerprints.
 */
std::uint64_t statsFingerprint(const SimStats &stats);

/** Fixed-width lowercase hex form of statsFingerprint. */
std::string statsFingerprintHex(const SimStats &stats);

} // namespace scsim::sim

#endif // SCSIM_SIM_ENGINE_HH
