/**
 * @file
 * Streaming multiprocessor model.
 *
 * Owns the warp table, the thread-block table (with block-granularity
 * resource release — the root cause of sub-core issue imbalance), the
 * issue clusters, the warp -> scheduler assignment engine, and the
 * writeback event queue.
 */

#ifndef SCSIM_CORE_SM_CORE_HH
#define SCSIM_CORE_SM_CORE_HH

#include <memory>
#include <vector>

#include "config/gpu_config.hh"
#include "core/assign.hh"
#include "core/issue_cluster.hh"
#include "core/warp.hh"
#include "mem/mem_system.hh"
#include "stats/stats.hh"

namespace scsim {

struct Application;

class SmCore
{
  public:
    SmCore(const GpuConfig &cfg, int smId, MemSystem &mem,
           SimStats &stats);

    int smId() const { return smId_; }

    /** Could one more block of @p kernel be resident right now? */
    bool canAccept(const KernelDesc &kernel) const;

    /** A kernel's block must fit in an *empty* SM, or it never runs. */
    static void checkKernelFits(const GpuConfig &cfg,
                                const KernelDesc &kernel);

    /** Place block @p blockId of @p kernel (caller checked canAccept). */
    void acceptBlock(const KernelDesc &kernel, int blockId, Cycle now);

    void cycle(Cycle now);

    /** Any resident block or in-flight event? */
    bool busy() const;

    /**
     * Earliest future cycle at which this SM can make progress, given
     * the current cycle just executed; kNoCycle when idle.
     */
    Cycle nextWake(Cycle now) const;

    /** Idle skip notification (collapses RBA queue history). */
    void onIdleSkip();

    void reset();

    /**
     * Checkpointing (common/state_io.hh) at the top of cycle @p now.
     * Kernel pointers (block table, warp programs) are serialized as
     * indices into @p app and re-resolved on load, so a snapshot is
     * only valid against the identical application — the surrounding
     * frame pins the job key to enforce that.
     */
    template <class Self, class V>
    static void visitState(Self &self, V &v, const Application &app,
                           Cycle now);

    // ---- callbacks used by IssueCluster -------------------------------
    WarpContext *warpTable() { return warps_.data(); }
    const WarpContext *warpTable() const { return warps_.data(); }
    WarpMasks &masks() { return masks_; }
    const WarpMasks &masks() const { return masks_; }

    bool tryConsumeL1Port();
    Cycle issueMemory(WarpContext &warp, const Instruction &inst,
                      Cycle now);
    void scheduleRegWrite(Cycle when, WarpSlot warp, RegIndex reg);
    void completeRegWrite(WarpSlot warp, RegIndex reg);
    void warpBarrier(WarpSlot slot);
    void warpExit(WarpSlot slot, Cycle now);
    void noteIssue(int cluster, int schedInCluster);
    void noteRfReads(Cycle now, int grants);
    SimStats &stats() { return stats_; }

    // ---- introspection -------------------------------------------------
    int activeBlocks() const { return activeBlocks_; }
    int residentWarps() const;
    const IssueCluster &
    cluster(int i) const
    {
        return *clusters_[static_cast<std::size_t>(i)];
    }
    int numClusters() const { return static_cast<int>(clusters_.size()); }

  private:
    struct BlockState
    {
        bool live = false;
        int blockId = -1;
        const KernelDesc *kernel = nullptr;
        int warpsTotal = 0;
        int warpsExited = 0;
        int barrierArrived = 0;
        std::vector<WarpSlot> slots;
    };

    struct RegWriteEvent
    {
        Cycle when;
        WarpSlot warp;
        RegIndex reg;
        bool
        operator>(const RegWriteEvent &o) const
        {
            return when > o.when;
        }
    };

    void processEvents(Cycle now);
    /** Ideal-migration oracle: rebalance runnable warps (Sec. VII). */
    void migrateForBalance();
    void releaseBarrier(BlockState &block);
    void completeBlock(BlockState &block);
    int pickSpillScheduler(std::uint32_t regBytes) const;
    /** Re-derive @p slot's parked bit after a schedulability change. */
    void refreshParked(WarpSlot slot);
    /** Sanitizer builds: recompute every mask from the scheduler lists
     *  and WarpContext and panic on any disagreement. */
    void auditMasks() const;
    /** After a load at cycle @p now: the cross-field checks (throwing
     *  CacheError) that keep every state the simulator asserts on
     *  reachable, warp programs re-resolved through the block table,
     *  and the derived masks. */
    void finishLoad(Cycle now);

    const GpuConfig &cfg_;
    int smId_;
    MemSystem &mem_;
    SimStats &stats_;

    std::vector<WarpContext> warps_;
    WarpMasks masks_;
    std::vector<WarpSlot> freeSlots_;
    std::vector<BlockState> blocks_;
    std::vector<std::unique_ptr<IssueCluster>> clusters_;
    std::unique_ptr<SubcoreAssigner> assigner_;

    /** Register bytes in use, per cluster. */
    std::vector<std::uint32_t> regBytesUsed_;
    std::uint32_t smemUsed_ = 0;
    int activeBlocks_ = 0;

    /**
     * Pending writeback events as an explicit min-heap on `when`
     * (push_heap/pop_heap with std::greater, i.e. exactly the
     * std::priority_queue discipline).  Keeping the backing vector
     * visible makes the heap — including its tie-order-determining
     * array layout — serializable verbatim, so a restored run pops
     * equal-cycle events in the same order as the original.
     */
    std::vector<RegWriteEvent> events_;

    int l1PortsLeft_ = 0;
    bool rfTrace_ = false;
    /** Did the last executed cycle leave immediately actionable work?
     *  (Set by cycle(); also forced by block arrival and barrier
     *  release, which create readiness without a writeback event.) */
    bool hadWork_ = false;
};

} // namespace scsim

#endif // SCSIM_CORE_SM_CORE_HH
