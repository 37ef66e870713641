/**
 * @file
 * Issue cluster: the unit of SM partitioning.
 *
 * A cluster owns warp schedulers, a banked register file with its
 * arbiter, an operand collector, and execution pipes.  A partitioned
 * Volta SM instantiates four clusters of {1 scheduler, 2 banks, 2
 * CUs}; the hypothetical fully-connected SM instantiates one cluster
 * holding all four schedulers and the pooled banks/CUs/pipes.
 *
 * Per-cycle sequence (driven by SmCore): dispatch ready collector
 * units to pipes -> issue from each scheduler (snapshotting the
 * bank-queue lengths for the RBA staleness model at its start, when
 * the policy reads them) -> arbitrate register banks, handing each
 * grant straight to its collector unit or scoreboard.
 *
 * Each scheduler table keeps its warps both as a list (binding order,
 * which is the candidate order schedulers see) and as a slot mask; an
 * issue scan combines the mask with SmCore's WarpMasks, so it runs the
 * scoreboard test only on warps whose next instruction it has not yet
 * seen hazard-free (DESIGN.md §4.1).
 *
 * A cycle with nothing to do (no issue, no grant, no queued bank
 * request, no busy CU) leaves the cluster frozen until something
 * outside it changes its warps or queues.  With idle skipping on, the
 * cluster then sleeps: each later cycle() replays the frozen cycle's
 * accounting in O(1) until SmCore calls wake() (DESIGN.md §4.1).
 */

#ifndef SCSIM_CORE_ISSUE_CLUSTER_HH
#define SCSIM_CORE_ISSUE_CLUSTER_HH

#include <memory>
#include <vector>

#include "config/gpu_config.hh"
#include "core/exec_unit.hh"
#include "core/operand_collector.hh"
#include "core/reg_file.hh"
#include "core/scheduler.hh"

namespace scsim {

class SmCore;

class IssueCluster
{
  public:
    IssueCluster(const GpuConfig &cfg, int clusterId);

    int id() const { return id_; }
    int numSchedulers() const { return static_cast<int>(scheds_.size()); }

    RegFileArbiter &arbiter() { return arbiter_; }
    const RegFileArbiter &arbiter() const { return arbiter_; }
    OperandCollector &collector() { return collector_; }
    const OperandCollector &collector() const { return collector_; }

    /** Warps currently bound to scheduler @p sched of this cluster. */
    const std::vector<WarpSlot> &
    warpsOf(int sched) const
    {
        return tables_[static_cast<std::size_t>(sched)].slots;
    }

    /** The same warps as a slot mask. */
    std::uint64_t
    boundMask(int sched) const
    {
        return tables_[static_cast<std::size_t>(sched)].bound;
    }

    int warpCount(int sched) const;
    int totalWarpCount() const;

    /** Bind a warp to a scheduler table; returns its age rank.
     *  @p unchecked bypasses the table-capacity assert (used only by
     *  the ideal-migration oracle, which treats scheduler entries as
     *  free bookkeeping).  Wakes the cluster. */
    std::uint32_t addWarp(int sched, WarpSlot slot,
                          bool unchecked = false);

    /** Unbind (block completed, or migrated away).  Wakes the cluster. */
    void removeWarp(int sched, WarpSlot slot);

    /**
     * Advance one cycle.  @p sm provides warp state and callbacks.
     * @return true when the cluster did or could still do work this
     * cycle (issued, has queued bank requests, or holds busy CUs) —
     * used by the idle-skip logic.  A false return puts the cluster to
     * sleep when cfg.enableIdleSkip is set.
     */
    bool cycle(Cycle now, SmCore &sm);

    /** Something outside the cluster may have made one of its warps
     *  ready or queued a bank request: run full cycles again. */
    void wake() { asleep_ = false; }
    bool asleep() const { return asleep_; }

    /** Idle cycles were skipped; queue history collapses to empty. */
    void onIdleSkip();

    /** Anything in flight or issuable right now?  Sanitizer builds
     *  check that a sleeping cluster never has any.  Walks the lists
     *  and never reads the masks, so it stays an independent
     *  reference for them. */
    bool hasImmediateWork(const SmCore &sm) const;

    /**
     * Reference ready-to-issue test for one warp's next instruction,
     * from WarpContext alone (the audit, hasImmediateWork and the
     * snapshot load checks use it; the issue scans use the masks).
     * The collector-free test is hoisted out: within one candidate scan
     * no CU is allocated, so callers evaluate collector_.hasFree() once
     * instead of per warp.
     */
    bool candidateReadyWith(const WarpContext &warp, bool cuFree) const;

    /** Sanitizer builds: check this cluster's bound masks against its
     *  lists, every mask bit of its warps against WarpContext, and the
     *  collector's ready mask and free count and the arbiter's pending
     *  count against their units and queues; returns the union of the
     *  bound masks. */
    std::uint64_t auditMasks(const SmCore &sm) const;

    void reset();

    /** Checkpointing (common/state_io.hh): arbiter, collector, pipes,
     *  policies, tables and the queue ring.  A load rebuilds the bound
     *  masks and wakes the cluster; SmCore checks the bindings. */
    template <class Self, class V> static void visitState(Self &self, V &v);

  private:
    struct SchedTable;

    void dispatch(Cycle now, SmCore &sm);
    int issue(Cycle now, SmCore &sm);   //!< returns instructions issued
    /** Arbitrate the banks and apply the grants; true if any. */
    bool arbitrate(Cycle now, SmCore &sm);

    /** Memoise the frozen cycle's stall accounting and sleep. */
    void fallAsleep(const SmCore &sm);
    /** One cycle of a sleeping cluster: the frozen cycle's effects. */
    void sleepTick(SmCore &sm);

    /** Union of the scheduler tables' bound masks. */
    std::uint64_t boundAll() const;

    /** Append the warps of @p cand (a subset of @p slots) to
     *  candidates_ in list order. */
    void collectCandidates(const std::vector<WarpSlot> &slots,
                           std::uint64_t cand);

    /** @p policy's choice among @p cand (nonzero), drawn from
     *  @p table, or from every table (the shared pool) when it is
     *  null.  A lone candidate needs no policy; on the partitioned
     *  path a mask-capable policy picks from the mask; otherwise the
     *  candidate list is built in binding order. */
    WarpSlot choose(WarpScheduler &policy, std::uint64_t cand,
                    const SchedTable *table,
                    const PickContext &ctx);

    /** Queue lengths as seen by the scheduler (staleness applied). */
    const int *staleQueueView() const;

    void issueTo(Cycle now, SmCore &sm, int sched, WarpSlot slot);

    const GpuConfig &cfg_;
    int id_;
    /**
     * Sleep state (kept in the padding after id_ so the cluster stays
     * in the same allocator size class).  Not snapshotted: a restored
     * cluster starts awake, and its first full cycle puts it back to
     * sleep with the same memo, so resumed runs stay exact.
     */
    bool asleep_ = false;
    /** The policy picks from masks (WarpScheduler::picksFromMask). */
    bool maskPick_ = false;
    /** The policy reads bank-queue lengths; otherwise the snapshot
     *  ring stays all zero (WarpScheduler::readsBankQueues). */
    bool readsQueues_ = false;
    std::uint32_t sleepSbStalls_ = 0;     //!< stallScoreboard per tick
    std::uint32_t sleepNoWarpStalls_ = 0; //!< stallNoWarp per tick
    /**
     * Rotating scan starts, always now % size for the last awake cycle
     * lastAwake_: consecutive awake cycles advance them by a compare
     * and wrap, and only a cycle after a gap (sleep, idle skip, a new
     * kernel) divides.  Derived, so not snapshotted.
     */
    Cycle lastAwake_ = 0;
    int dispatchStart_ = 0;   //!< first collector unit dispatch scans
    int issueStart_ = 0;      //!< first scheduler issue serves
    RegFileArbiter arbiter_;
    OperandCollector collector_;
    PipeSet pipes_;
    std::vector<std::unique_ptr<WarpScheduler>> scheds_;

    /** One scheduler's warp table. */
    struct SchedTable
    {
        std::vector<WarpSlot> slots;   //!< bound warps, binding order
        std::uint64_t bound = 0;       //!< the same warps as a mask
        std::uint32_t nextAge = 0;     //!< age rank of the next binding
    };
    std::vector<SchedTable> tables_;

    /**
     * Ring of bank-queue-length snapshots, newest row at head_.  Flat
     * row-major storage (ringDepth_ rows of numBanks_ ints) so the
     * per-cycle snapshot write and the stale view read touch one
     * contiguous allocation instead of chasing per-row vectors.
     */
    std::vector<int> qlenRing_;
    std::size_t ringDepth_ = 1;
    std::size_t numBanks_ = 0;
    std::size_t head_ = 0;

    std::vector<WarpSlot> candidates_;   //!< scratch, reused per cycle
};

} // namespace scsim

#endif // SCSIM_CORE_ISSUE_CLUSTER_HH
