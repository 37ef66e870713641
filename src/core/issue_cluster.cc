#include "core/issue_cluster.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"
#include "common/state_io.hh"
#include "core/sm_core.hh"

namespace scsim {

namespace {

/**
 * Scoreboard test of each warp in @p unseen (bound, schedulable, next
 * instruction not yet seen hazard-free).  A pass is memoised in the
 * ready/needsCu masks; the warps that fail are returned, and the
 * caller decides whether that marks them blocked.
 */
std::uint64_t
testHazards(std::uint64_t unseen, const WarpContext *warps,
            WarpMasks &m)
{
    std::uint64_t failed = 0;
    for (; unseen != 0; unseen &= unseen - 1) {
        auto slot = static_cast<WarpSlot>(std::countr_zero(unseen));
        const WarpContext &w = warps[slot];
        const Instruction &inst = w.nextInst();
        // Drain in-flight writes before leaving the pipeline.
        bool drainOp = inst.op == Opcode::EXIT || inst.op == Opcode::BAR;
        if (drainOp ? w.scoreboard.anyPending()
                    : !w.scoreboard.ready(inst)) {
            failed |= slotBit(slot);
            continue;
        }
        m.ready |= slotBit(slot);
        if (inst.usesCollector())
            m.needsCu |= slotBit(slot);
    }
    return failed;
}

/** @p now % @p n, given @p pos == (now - 1) % @p n when @p stepped. */
int
rotate(int pos, int n, Cycle now, bool stepped)
{
    if (stepped)
        return pos + 1 == n ? 0 : pos + 1;
    return static_cast<int>(now % static_cast<Cycle>(n));
}

/** Does @p bound hold a warp worth a scoreboard stall (rather than a
 *  no-warp stall): a hazard-blocked or a schedulable one? */
bool
holdsWaitingWarp(std::uint64_t bound, const WarpMasks &m)
{
    return (bound & (m.blocked | ~m.parked)) != 0;
}

} // namespace

IssueCluster::IssueCluster(const GpuConfig &cfg, int clusterId)
    : cfg_(cfg),
      id_(clusterId),
      arbiter_(cfg.banksPerCluster()),
      collector_(cfg.cusPerCluster()),
      pipes_(cfg, cfg.schedulersPerCluster())
{
    int nsched = cfg.schedulersPerCluster();
    for (int s = 0; s < nsched; ++s)
        scheds_.push_back(makeScheduler(cfg));
    tables_.resize(static_cast<std::size_t>(nsched));
    // Every scheduler of a cluster runs the same policy.
    maskPick_ = scheds_[0]->picksFromMask();
    readsQueues_ = scheds_[0]->readsBankQueues();

    ringDepth_ = static_cast<std::size_t>(cfg.rbaScoreLatency) + 1;
    numBanks_ = static_cast<std::size_t>(cfg.banksPerCluster());
    qlenRing_.assign(ringDepth_ * numBanks_, 0);

    // Worst-case candidate count: every warp of every scheduler table
    // (the shared-pool path scans them all); reserving it up front
    // keeps the per-cycle scratch list allocation-free.
    candidates_.reserve(static_cast<std::size_t>(nsched)
                        * static_cast<std::size_t>(
                              cfg.maxWarpsPerScheduler));
}

int
IssueCluster::warpCount(int sched) const
{
    return static_cast<int>(warpsOf(sched).size());
}

int
IssueCluster::totalWarpCount() const
{
    return std::popcount(boundAll());
}

std::uint64_t
IssueCluster::boundAll() const
{
    std::uint64_t all = 0;
    for (const SchedTable &table : tables_)
        all |= table.bound;
    return all;
}

std::uint32_t
IssueCluster::addWarp(int sched, WarpSlot slot, bool unchecked)
{
    SchedTable &table = tables_[static_cast<std::size_t>(sched)];
    scsim_assert(unchecked
                     || static_cast<int>(table.slots.size())
                            < cfg_.maxWarpsPerScheduler,
                 "scheduler table overflow");
    table.slots.push_back(slot);
    table.bound |= slotBit(slot);
    wake();
    return table.nextAge++;
}

void
IssueCluster::removeWarp(int sched, WarpSlot slot)
{
    SchedTable &table = tables_[static_cast<std::size_t>(sched)];
    auto it = std::find(table.slots.begin(), table.slots.end(), slot);
    scsim_assert(it != table.slots.end(), "removing unbound warp");
    table.slots.erase(it);
    table.bound &= ~slotBit(slot);
    wake();
}

bool
IssueCluster::cycle(Cycle now, SmCore &sm)
{
    if (asleep_) {
        sleepTick(sm);
        return false;
    }
    const bool stepped = now == lastAwake_ + 1;
    lastAwake_ = now;
    dispatchStart_ = rotate(dispatchStart_, collector_.size(), now, stepped);
    issueStart_ = rotate(issueStart_, numSchedulers(), now, stepped);
    // Dispatch first (CUs filled by last cycle's grants), then issue
    // into the freed CUs; newly pushed reads may be granted in the
    // same cycle, giving a 2-cycle best-case collector turnaround.
    dispatch(now, sm);
    int issued = issue(now, sm);
    // Grants landing after the issue phase ready warps (writes) or
    // CUs (reads) for the *next* cycle, so they count as work even
    // when nothing issued this cycle.
    bool granted = arbitrate(now, sm);
    if (issued > 0 || granted || arbiter_.anyPending()
        || collector_.freeCount() != collector_.size())
        return true;
    // Nothing moves here until an outside event wakes the cluster.
    if (cfg_.enableIdleSkip)
        fallAsleep(sm);
    return false;
}

void
IssueCluster::fallAsleep(const SmCore &sm)
{
    // The frozen cycle's scan finds no candidate and every warp it
    // could block on is already blocked, so each scheduler's stall
    // reason is fixed: scoreboard when it holds a blocked or
    // schedulable warp, no-warp otherwise.  The shared pool records
    // no stall reason at all.
    sleepSbStalls_ = 0;
    sleepNoWarpStalls_ = 0;
    if (!cfg_.sharedWarpPool) {
        for (const SchedTable &table : tables_)
            ++(holdsWaitingWarp(table.bound, sm.masks())
                   ? sleepSbStalls_
                   : sleepNoWarpStalls_);
    }
    asleep_ = true;
}

void
IssueCluster::sleepTick(SmCore &sm)
{
#ifdef SCSIM_AUDIT
    scsim_assert(!hasImmediateWork(sm),
                 "cluster %d sleeps through a wake source", id_);
#endif
    SimStats &stats = sm.stats();
    stats.schedCycles += static_cast<std::uint64_t>(numSchedulers());
    stats.stallScoreboard += sleepSbStalls_;
    stats.stallNoWarp += sleepNoWarpStalls_;
    // The frozen issue phase snapshots empty bank queues.
    if (readsQueues_)
        std::fill_n(qlenRing_.begin()
                        + static_cast<std::ptrdiff_t>(head_ * numBanks_),
                    numBanks_, 0);
    if (++head_ == ringDepth_)
        head_ = 0;
}

void
IssueCluster::dispatch(Cycle now, SmCore &sm)
{
    const std::uint64_t ready = collector_.readyMask();
    if (ready == 0)
        return;
    WarpContext *warps = sm.warpTable();
    // Rotate the scan start so no CU is structurally favored: ready
    // CUs from dispatchStart_ up, then those below it.  Dispatching
    // one CU readies no other, so the mask read once stays exact.
    std::uint64_t upper = ready & (~std::uint64_t{ 0 } << dispatchStart_);
    std::uint64_t lower = ready & ~upper;
    while ((upper | lower) != 0) {
        std::uint64_t &order = upper != 0 ? upper : lower;
        int idx = std::countr_zero(order);
        order &= order - 1;
        const CollectorUnit &cu = collector_.unit(idx);
        UnitKind kind = unitOf(cu.inst.op);
        bool isGlobalMem = kind == UnitKind::LdSt
            && cu.inst.mem.space == MemSpace::Global;
        ExecPipe *pipe = pipes_.findFree(kind, now);
        if (!pipe) {
            ++sm.stats().execStructuralStalls;
            continue;
        }
        if (isGlobalMem && !sm.tryConsumeL1Port()) {
            ++sm.stats().execStructuralStalls;
            continue;
        }
        pipe->accept(now);
        sm.stats().cuTurnaroundSum += now + 1 - cu.allocCycle;
        ++sm.stats().cuDispatches;
        WarpContext &warp = warps[cu.warp];
        if (kind == UnitKind::LdSt) {
            Cycle done = sm.issueMemory(warp, cu.inst, now);
            if (isLoad(cu.inst.op))
                sm.scheduleRegWrite(done, cu.warp, cu.inst.dst);
        } else if (cu.inst.dst != kNoReg) {
            sm.scheduleRegWrite(now + static_cast<Cycle>(pipe->latency()),
                                cu.warp, cu.inst.dst);
        }
        collector_.release(idx);
    }
}

bool
IssueCluster::arbitrate(Cycle now, SmCore &sm)
{
    // Reads complete collector operands, writes retire scoreboard
    // entries; neither queues a new request.
    ArbTally t = arbiter_.arbitrate(
        [&](const ReadRequest &g) {
            collector_.operandArrived(g.cu, g.operandMask);
        },
        [&](const WriteRequest &g) { sm.completeRegWrite(g.warp, g.reg); });

    SimStats &stats = sm.stats();
    stats.rfReads += static_cast<std::uint64_t>(t.reads) * kWarpSize;
    stats.rfWrites += static_cast<std::uint64_t>(t.writes) * kWarpSize;
    stats.rfBankConflictCycles +=
        static_cast<std::uint64_t>(t.conflictCycles);
    if (t.reads != 0)
        sm.noteRfReads(now, t.reads);
    return t.reads + t.writes != 0;
}

bool
IssueCluster::candidateReadyWith(const WarpContext &warp,
                                 bool cuFree) const
{
    if (!warp.schedulable())
        return false;
    const Instruction &inst = warp.nextInst();
    if (inst.op == Opcode::EXIT || inst.op == Opcode::BAR) {
        // Drain in-flight writes before leaving the pipeline.
        return !warp.scoreboard.anyPending();
    }
    if (!warp.scoreboard.ready(inst))
        return false;
    if (inst.usesCollector() && !cuFree)
        return false;
    return true;
}

const int *
IssueCluster::staleQueueView() const
{
    // head_ holds the snapshot taken at the *start* of this issue
    // phase (latency 0); the ring holds rbaScoreLatency + 1 rows, so
    // the row that many cycles back is the one after head_.
    std::size_t idx = head_ + 1 == ringDepth_ ? 0 : head_ + 1;
    return qlenRing_.data() + idx * numBanks_;
}

void
IssueCluster::collectCandidates(const std::vector<WarpSlot> &slots,
                                std::uint64_t cand)
{
    if ((cand & (cand - 1)) == 0) {   // zero or one: no order to keep
        if (cand != 0)
            candidates_.push_back(std::countr_zero(cand));
        return;
    }
    for (WarpSlot slot : slots)
        if (cand & slotBit(slot))
            candidates_.push_back(slot);
}

WarpSlot
IssueCluster::choose(WarpScheduler &policy, std::uint64_t cand,
                     const SchedTable *table, const PickContext &ctx)
{
    if ((cand & (cand - 1)) == 0)
        return std::countr_zero(cand);
    if (table && maskPick_)
        return policy.pickMask(cand, ctx);
    candidates_.clear();
    if (table) {
        collectCandidates(table->slots, cand);
    } else {
        for (const SchedTable &t : tables_)
            collectCandidates(t.slots, cand & t.bound);
    }
    return policy.pick(candidates_, ctx);
}

int
IssueCluster::issue(Cycle now, SmCore &sm)
{
    int issued = 0;
    // Record the live queue lengths as this cycle's snapshot, then let
    // schedulers see the view rbaScoreLatency cycles behind it.
    if (readsQueues_) {
        int *snap = qlenRing_.data() + head_ * numBanks_;
        for (int b = 0; b < arbiter_.numBanks(); ++b)
            snap[b] = arbiter_.readQueueLen(b);
    }

    WarpContext *warps = sm.warpTable();
    WarpMasks &m = sm.masks();
    PickContext ctx;
    ctx.now = now;
    ctx.warps = warps;
    ctx.bankQueueLen = staleQueueView();
    ctx.numBanks = arbiter_.numBanks();

    int nsched = numSchedulers();
    if (cfg_.sharedWarpPool) {
        // Monolithic (pre-Maxwell) issue: every scheduler slot may
        // pick any ready warp in the cluster; a warp may issue more
        // than once per cycle (dual issue of independent instructions
        // from one warp).  This path never marks warps blocked; a warp
        // failing the scoreboard test stays failed for the rest of the
        // issue phase, since no write retires before the grants.
        auto &policy = *scheds_[0];
        sm.stats().schedCycles += static_cast<std::uint64_t>(nsched);
        int slots = nsched * cfg_.issueWidthPerScheduler;
        std::uint64_t hazard = 0;
        for (int k = 0; k < slots; ++k) {
            // No CU is allocated during the scan itself, so the
            // collector-free test is loop-invariant.
            const bool cuFree = collector_.hasFree();
            std::uint64_t live = boundAll() & ~m.parked & ~m.blocked;
            hazard |= testHazards(live & ~m.ready & ~hazard, warps, m);
            std::uint64_t cand = live & m.ready;
            if (!cuFree)
                cand &= ~m.needsCu;
            if (cand == 0)
                break;
            WarpSlot chosen = choose(policy, cand, nullptr, ctx);
            issueTo(now, sm, warps[chosen].schedInCluster, chosen);
            policy.notifyIssued(chosen, now);
            ++issued;
            ++sm.stats().issueSlotsUsed;
        }
        if (++head_ == ringDepth_)
            head_ = 0;
        return issued;
    }
    for (int k = 0, s = issueStart_; k < nsched;
         ++k, s = s + 1 == nsched ? 0 : s + 1) {
        auto &policy = *scheds_[static_cast<std::size_t>(s)];
        const SchedTable &table = tables_[static_cast<std::size_t>(s)];
        ++sm.stats().schedCycles;
        for (int slotIssue = 0; slotIssue < cfg_.issueWidthPerScheduler;
             ++slotIssue) {
            // Loop-invariant: issue happens after the scan, so CU
            // availability cannot change while collecting candidates.
            const bool cuFree = collector_.hasFree();
            std::uint64_t live = table.bound & ~m.parked;
            bool sawWarp = holdsWaitingWarp(table.bound, m);
            m.blocked |= testHazards(live & ~m.blocked & ~m.ready, warps,
                                     m);
            std::uint64_t ready = live & m.ready;
            std::uint64_t cand = cuFree ? ready : ready & ~m.needsCu;
            if (cand == 0) {
                if (slotIssue == 0) {
                    // Ready warps that all need a CU: no-CU stall.  A warp
                    // that just failed the hazard test was live, so
                    // sawWarp already counts it.
                    if (ready != 0) {
                        ++sm.stats().stallNoCu;
                        ++sm.stats().collectorFullStalls;
                    } else if (sawWarp) {
                        ++sm.stats().stallScoreboard;
                    } else {
                        ++sm.stats().stallNoWarp;
                    }
                }
                break;
            }
            ++sm.stats().issueSlotsUsed;
            WarpSlot chosen = choose(policy, cand, &table, ctx);
            issueTo(now, sm, s, chosen);
            policy.notifyIssued(chosen, now);
            ++issued;
        }
        if (cfg_.bankStealing && collector_.hasFree()) {
            // Bank stealing [36]: opportunistically place one extra
            // instruction whose source banks are all idle into a free
            // CU, ahead of normal issue order.  This scan marks no warp
            // blocked: the migration oracle reads that bit.
            std::uint64_t live = table.bound & ~m.parked & ~m.blocked;
            testHazards(live & ~m.ready, warps, m);
            std::uint64_t eligible = live & m.ready & m.needsCu;
            // Oldest eligible warp whose banks are idle steals them.
            WarpSlot chosen = kNoWarp;
            for (WarpSlot slot : table.slots)
                if ((eligible & slotBit(slot))
                    && collector_.banksIdle(slot, warps[slot].nextInst(),
                                            arbiter_)
                    && (chosen == kNoWarp
                        || warps[slot].ageRank < warps[chosen].ageRank))
                    chosen = slot;
            if (chosen != kNoWarp) {
                issueTo(now, sm, s, chosen);
                ++issued;
                ++sm.stats().issueSlotsUsed;
            }
        }
    }

    if (++head_ == ringDepth_)
        head_ = 0;
    return issued;
}

void
IssueCluster::issueTo(Cycle now, SmCore &sm, int sched, WarpSlot slot)
{
    WarpContext &warp = sm.warpTable()[slot];
    const Instruction &inst = warp.nextInst();
    warp.lastIssue = now;
    ++warp.pc;
    // The next instruction has not been seen yet.
    WarpMasks &m = sm.masks();
    m.ready &= ~slotBit(slot);
    m.needsCu &= ~slotBit(slot);
    sm.noteIssue(id_, sched);

    switch (inst.op) {
      case Opcode::BAR:
        sm.warpBarrier(slot);
        return;
      case Opcode::EXIT:
        sm.warpExit(slot, now);
        return;
      default:
        break;
    }

    int cu = collector_.allocate(slot, inst, arbiter_, now);
    scsim_assert(cu >= 0, "issue without a free collector unit");
    warp.scoreboard.markIssue(inst);
}

void
IssueCluster::onIdleSkip()
{
    std::fill(qlenRing_.begin(), qlenRing_.end(), 0);
}

bool
IssueCluster::hasImmediateWork(const SmCore &sm) const
{
    if (arbiter_.anyPending())
        return true;
    for (int i = 0; i < collector_.size(); ++i)
        if (collector_.unit(i).busy)
            return true;
    const WarpContext *warps = sm.warpTable();
    const bool cuFree = collector_.hasFree();
    for (const SchedTable &table : tables_)
        for (WarpSlot slot : table.slots)
            if (candidateReadyWith(warps[slot], cuFree))
                return true;
    return false;
}

std::uint64_t
IssueCluster::auditMasks(const SmCore &sm) const
{
    const WarpContext *warps = sm.warpTable();
    const WarpMasks &m = sm.masks();
    std::uint64_t all = 0;
    for (int s = 0; s < numSchedulers(); ++s) {
        std::uint64_t fromList = 0;
        for (WarpSlot slot : warpsOf(s)) {
            scsim_assert(slot >= 0 && slot < cfg_.maxWarpsPerSm
                             && !(fromList & slotBit(slot)),
                         "cluster %d sched %d: bad or repeated slot %d",
                         id_, s, slot);
            fromList |= slotBit(slot);
            const WarpContext &w = warps[slot];
            scsim_assert(w.cluster == id_ && w.schedInCluster == s,
                         "warp %d bound to %d/%d but says %d/%d", slot,
                         id_, s, w.cluster, w.schedInCluster);
            // Hazard-blocked: still schedulable and still not ready.
            if (m.blocked & slotBit(slot))
                scsim_assert(w.schedulable()
                                 && !candidateReadyWith(w, true),
                             "warp %d blocked without a hazard", slot);
            if (m.ready & slotBit(slot)) {
                scsim_assert(candidateReadyWith(w, true),
                             "warp %d marked ready but is not", slot);
                scsim_assert(static_cast<bool>(m.needsCu & slotBit(slot))
                                 == w.nextInst().usesCollector(),
                             "warp %d needsCu bit is stale", slot);
            }
        }
        scsim_assert(fromList == boundMask(s),
                     "cluster %d sched %d: bound mask %llx, list %llx",
                     id_, s, static_cast<unsigned long long>(boundMask(s)),
                     static_cast<unsigned long long>(fromList));
        scsim_assert(!(all & fromList), "cluster %d binds a warp twice",
                     id_);
        all |= fromList;
    }

    // The collector's and the arbiter's cached counts and masks
    // against the units and queues they summarise.
    std::uint64_t readyCus = 0;
    int idleCus = 0;
    for (int i = 0; i < collector_.size(); ++i) {
        const CollectorUnit &cu = collector_.unit(i);
        if (cu.ready())
            readyCus |= std::uint64_t{ 1 } << i;
        if (!cu.busy)
            ++idleCus;
    }
    scsim_assert(readyCus == collector_.readyMask(),
                 "cluster %d: collector ready mask %llx, units say %llx",
                 id_,
                 static_cast<unsigned long long>(collector_.readyMask()),
                 static_cast<unsigned long long>(readyCus));
    scsim_assert(idleCus == collector_.freeCount(),
                 "cluster %d: %d idle collector units, freeCount %d", id_,
                 idleCus, collector_.freeCount());
    scsim_assert(arbiter_.pendingOps() == arbiter_.queuedOps(),
                 "cluster %d: arbiter counts %llu pending, queues hold "
                 "%llu",
                 id_, static_cast<unsigned long long>(arbiter_.pendingOps()),
                 static_cast<unsigned long long>(arbiter_.queuedOps()));
    return all;
}

void
IssueCluster::reset()
{
    arbiter_.reset();
    collector_.reset();
    pipes_.reset();
    for (auto &sched : scheds_)
        sched->reset();
    for (SchedTable &table : tables_)
        table = SchedTable{};
    onIdleSkip();
    head_ = 0;
    asleep_ = false;
    lastAwake_ = 0;
    dispatchStart_ = 0;
    issueStart_ = 0;
}

template <class Self, class V>
void
IssueCluster::visitState(Self &self, V &v)
{
    // candidates_ is per-cycle scratch (cleared before every use) and
    // deliberately not part of the snapshot; nor are the sleep state (a
    // restored cluster starts awake) and the rotation starts (derived
    // from the cycle).
    const int maxWarps = self.cfg_.maxWarpsPerSm;
    RegFileArbiter::visitState(self.arbiter_, v, self.collector_.size(),
                               maxWarps);
    OperandCollector::visitState(self.collector_, v, maxWarps);
    PipeSet::visitState(self.pipes_, v);
    for (auto &sched : self.scheds_)
        sched->visitState(v);
    // Slots index the SM's warp table and shift into the masks.
    for (auto &table : self.tables_)
        v.list("ic.warps", table.slots, [&](auto &slot) {
            v.field("ic.slot", slot, below(maxWarps));
        });
    for (auto &table : self.tables_)
        v.field("ic.age", table.nextAge);
    // A bank queues at most one read per operand of each collector unit.
    for (auto &qlen : self.qlenRing_)
        v.field("ic.qlen", qlen, inRange(0, 3 * self.collector_.size()));
    v.field("ic.head", self.head_, below(self.ringDepth_));
    if constexpr (V::kReads) {
        // A granted read fills operand slots its collector unit still
        // waits on, and no two reads fill the same slot.
        std::vector<std::uint32_t> queued(
            static_cast<std::size_t>(self.collector_.size()), 0);
        for (int b = 0; b < self.arbiter_.numBanks(); ++b) {
            const auto &q = self.arbiter_.readQueue(b);
            for (std::size_t i = 0; i < q.size(); ++i) {
                std::uint32_t &mask =
                    queued[static_cast<std::size_t>(q[i].cu)];
                const CollectorUnit &cu = self.collector_.unit(q[i].cu);
                if (!cu.busy || (mask & q[i].operandMask)
                    || (cu.pendingOperands & q[i].operandMask)
                           != q[i].operandMask)
                    scsim_throw(CacheError,
                                "snapshot: register read for operands "
                                "collector unit %d does not wait on",
                                q[i].cu);
                mask |= q[i].operandMask;
            }
        }
        for (SchedTable &table : self.tables_) {
            table.bound = 0;
            for (WarpSlot slot : table.slots)
                table.bound |= slotBit(slot);
        }
        // A policy that never reads the ring keeps it zero, whatever
        // an older snapshot recorded there.
        if (!self.readsQueues_)
            std::fill(self.qlenRing_.begin(), self.qlenRing_.end(), 0);
        self.asleep_ = false;
    }
}

template void IssueCluster::visitState(const IssueCluster &, StateWriter &);
template void IssueCluster::visitState(IssueCluster &, StateReader &);

} // namespace scsim
