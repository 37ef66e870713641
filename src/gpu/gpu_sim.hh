/**
 * @file
 * Top-level simulation driver.
 *
 * Owns the memory system, the SMs, and the block scheduler; runs
 * applications (kernel sequences) to completion and returns the
 * aggregated statistics.  Supports idle-cycle skipping: when no SM has
 * immediately actionable work, time jumps to the next writeback
 * event, which is exact because all state changes in between would
 * have been no-ops.
 *
 * A two-part watchdog contains runaway simulations: exceeding the
 * cfg.maxCycles budget, or retiring nothing for cfg.hangWindowCycles
 * consecutive cycles (a livelock, e.g. a barrier that can never be
 * satisfied), throws HangError carrying a per-sub-core machine-state
 * diagnostic instead of spinning forever.  Either check can be
 * disabled by setting its knob to 0.
 */

#ifndef SCSIM_GPU_GPU_SIM_HH
#define SCSIM_GPU_GPU_SIM_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "gpu/block_scheduler.hh"
#include "mem/mem_system.hh"
#include "stats/stats.hh"
#include "trace/kernel.hh"

namespace scsim {

class GpuSim
{
  public:
    explicit GpuSim(const GpuConfig &cfg);

    /** Run all kernels of @p app back-to-back; returns run stats. */
    SimStats run(const Application &app);

    /** Convenience: run a single kernel. */
    SimStats run(const KernelDesc &kernel);

    /**
     * Run all kernels of @p app *concurrently*: every kernel's grid
     * is live from cycle 0 and the block scheduler interleaves their
     * blocks (the multi-kernel setting behind the paper's
     * register-capacity-diversity effect).
     */
    SimStats runConcurrent(const Application &app);

    const GpuConfig &config() const { return cfg_; }

    /** SM inspection (tests). */
    const SmCore &
    sm(int i) const
    {
        return *sms_[static_cast<std::size_t>(i)];
    }

    /**
     * Multi-line machine-state snapshot used by the hang watchdog:
     * block-scheduler backlog and, per SM and sub-core, scheduler
     * warp counts, schedulable warps, scoreboard occupancy, and
     * collector-unit status.
     */
    std::string dumpState(Cycle now) const;

    /**
     * Checkpointing.  When an interval is set, the sink is invoked at
     * the top of the run loop every @p everyCycles simulated cycles
     * with a serialized mid-run state payload.  Saving is strictly
     * read-only: simulation results are bit-identical whether or not
     * a sink is installed.
     */
    using CheckpointSink =
        std::function<void(const std::string &payload, Cycle now)>;
    void setCheckpoint(Cycle everyCycles, CheckpointSink sink);

    /**
     * Resume a run from a payload produced by a checkpoint sink.
     * @p app must be the same application (same config, same kernel
     * list) that produced the snapshot; any structural mismatch or
     * damaged field throws CacheError, which callers treat as "start
     * cold".  Completes the interrupted run and returns final stats
     * identical to an uninterrupted run(app)/runConcurrent(app).
     */
    SimStats resume(const Application &app, const std::string &payload);

  private:
    void resetState();
    Cycle simulateKernel(const KernelDesc &kernel, Cycle now);
    Cycle runLoop(Cycle now, const char *what);
    std::string saveRunState(Cycle now) const;
    /** The snapshot (common/state_io.hh): the run cursor at @p now,
     *  the stats, then memory, block scheduler and SMs. */
    template <class Self, class V>
    static void visitRunState(Self &self, V &v, Cycle &now);
    SimStats finishRun(Cycle now);

    GpuConfig cfg_;
    MemSystem mem_;
    SimStats stats_;
    std::vector<std::unique_ptr<SmCore>> sms_;
    BlockScheduler blockSched_;

    // Checkpoint policy + run cursor (members so a snapshot taken
    // inside runLoop can capture, and a resume can restore, the
    // position within the kernel sequence and the watchdog state).
    Cycle ckptEvery_ = 0;
    Cycle ckptNext_ = 0;
    CheckpointSink ckptSink_;
    const Application *app_ = nullptr;
    bool concurrent_ = false;
    std::size_t kernelIdx_ = 0;
    Cycle kernelStart_ = 0;
    Cycle lastProgress_ = 0;
};

/** One-shot helper used throughout the bench harness. */
SimStats simulate(const GpuConfig &cfg, const Application &app);
SimStats simulate(const GpuConfig &cfg, const KernelDesc &kernel);

} // namespace scsim

#endif // SCSIM_GPU_GPU_SIM_HH
