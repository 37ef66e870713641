#include "core/sm_core.hh"

#include <algorithm>
#include <bit>
#include <bitset>
#include <functional>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/state_io.hh"
#include "trace/kernel.hh"

namespace scsim {

namespace {

int
ceilShare(int warps, int schedulers)
{
    return (warps + schedulers - 1) / schedulers;
}

} // namespace

SmCore::SmCore(const GpuConfig &cfg, int smId, MemSystem &mem,
               SimStats &stats)
    : cfg_(cfg), smId_(smId), mem_(mem), stats_(stats)
{
    warps_.resize(static_cast<std::size_t>(cfg.maxWarpsPerSm));
    freeSlots_.reserve(warps_.size());
    for (int i = cfg.maxWarpsPerSm - 1; i >= 0; --i)
        freeSlots_.push_back(i);
    blocks_.resize(static_cast<std::size_t>(cfg.maxBlocksPerSm));
    for (int c = 0; c < cfg.clusterCount(); ++c)
        clusters_.push_back(std::make_unique<IssueCluster>(cfg, c));
    regBytesUsed_.assign(static_cast<std::size_t>(cfg.clusterCount()), 0);

    std::uint64_t seed = cfg.seed
        ^ (0x51ed2701a3c5e091ULL * static_cast<std::uint64_t>(smId + 1));
    assigner_ = makeAssigner(cfg, cfg.schedulersPerSm, seed);
    rfTrace_ = cfg.rfTraceEnable && smId == 0;
}

void
SmCore::checkKernelFits(const GpuConfig &cfg, const KernelDesc &kernel)
{
    if (kernel.warpsPerBlock > cfg.maxWarpsPerSm)
        scsim_throw(WorkloadError, "kernel '%s': block of %d warps exceeds SM capacity "
                    "%d", kernel.name.c_str(), kernel.warpsPerBlock,
                    cfg.maxWarpsPerSm);
    int share = ceilShare(kernel.warpsPerBlock, cfg.schedulersPerSm);
    if (share > cfg.maxWarpsPerScheduler)
        scsim_throw(WorkloadError, "kernel '%s': %d warps/scheduler exceeds table size "
                    "%d", kernel.name.c_str(), share,
                    cfg.maxWarpsPerScheduler);
    if (kernel.smemBytesPerBlock > cfg.smemBytesPerSm)
        scsim_throw(WorkloadError, "kernel '%s': %u B shared memory exceeds SM's %u B",
                    kernel.name.c_str(), kernel.smemBytesPerBlock,
                    cfg.smemBytesPerSm);
    std::uint32_t clusterRegs =
        static_cast<std::uint32_t>(share)
        * static_cast<std::uint32_t>(cfg.schedulersPerCluster())
        * kernel.regBytesPerWarp();
    if (clusterRegs > cfg.regFileBytesPerCluster())
        scsim_throw(WorkloadError, "kernel '%s': needs %u reg bytes per sub-core, "
                    "file holds %u", kernel.name.c_str(), clusterRegs,
                    cfg.regFileBytesPerCluster());
}

bool
SmCore::canAccept(const KernelDesc &kernel) const
{
    if (activeBlocks_ >= cfg_.maxBlocksPerSm)
        return false;
    if (smemUsed_ + kernel.smemBytesPerBlock > cfg_.smemBytesPerSm)
        return false;
    if (static_cast<int>(freeSlots_.size()) < kernel.warpsPerBlock)
        return false;

    int share = ceilShare(kernel.warpsPerBlock, cfg_.schedulersPerSm);
    for (const auto &cluster : clusters_) {
        for (int s = 0; s < cluster->numSchedulers(); ++s) {
            if (cluster->warpCount(s) + share > cfg_.maxWarpsPerScheduler)
                return false;
        }
    }
    std::uint32_t clusterRegs =
        static_cast<std::uint32_t>(share)
        * static_cast<std::uint32_t>(cfg_.schedulersPerCluster())
        * kernel.regBytesPerWarp();
    for (std::uint32_t used : regBytesUsed_)
        if (used + clusterRegs > cfg_.regFileBytesPerCluster())
            return false;
    return true;
}

int
SmCore::pickSpillScheduler(std::uint32_t regBytes) const
{
    int best = -1;
    int bestCount = 0;
    for (int g = 0; g < cfg_.schedulersPerSm; ++g) {
        int c = g / cfg_.schedulersPerCluster();
        int s = g % cfg_.schedulersPerCluster();
        const IssueCluster &cluster = *clusters_[static_cast<std::size_t>(c)];
        if (cluster.warpCount(s) >= cfg_.maxWarpsPerScheduler)
            continue;
        if (regBytesUsed_[static_cast<std::size_t>(c)] + regBytes
                > cfg_.regFileBytesPerCluster())
            continue;
        if (best < 0 || cluster.warpCount(s) < bestCount) {
            best = g;
            bestCount = cluster.warpCount(s);
        }
    }
    return best;
}

void
SmCore::acceptBlock(const KernelDesc &kernel, int blockId, Cycle now)
{
    // Claim a block-table entry.
    BlockState *block = nullptr;
    int blockSeq = -1;
    for (std::size_t i = 0; i < blocks_.size(); ++i) {
        if (!blocks_[i].live) {
            block = &blocks_[i];
            blockSeq = static_cast<int>(i);
            break;
        }
    }
    scsim_assert(block != nullptr, "acceptBlock without canAccept");
    *block = BlockState{};
    block->live = true;
    block->blockId = blockId;
    block->kernel = &kernel;
    block->warpsTotal = kernel.warpsPerBlock;
    smemUsed_ += kernel.smemBytesPerBlock;
    ++activeBlocks_;

    std::uint32_t regBytes = kernel.regBytesPerWarp();
    for (int w = 0; w < kernel.warpsPerBlock; ++w) {
        int g = assigner_->nextSubcore();
        int c = g / cfg_.schedulersPerCluster();
        int s = g % cfg_.schedulersPerCluster();
        IssueCluster *cluster = clusters_[static_cast<std::size_t>(c)].get();
        bool fits = cluster->warpCount(s) < cfg_.maxWarpsPerScheduler
            && regBytesUsed_[static_cast<std::size_t>(c)] + regBytes
                   <= cfg_.regFileBytesPerCluster();
        if (!fits) {
            g = pickSpillScheduler(regBytes);
            scsim_assert(g >= 0, "no scheduler can hold a spilled warp");
            c = g / cfg_.schedulersPerCluster();
            s = g % cfg_.schedulersPerCluster();
            cluster = clusters_[static_cast<std::size_t>(c)].get();
            ++stats_.assignSpills;
        }

        scsim_assert(!freeSlots_.empty(), "warp slots exhausted");
        WarpSlot slot = freeSlots_.back();
        freeSlots_.pop_back();

        WarpContext &warp = warps_[static_cast<std::size_t>(slot)];
        warp.reset();
        warp.slot = slot;
        warp.blockSeq = blockSeq;
        warp.warpInBlock = w;
        warp.gwid = static_cast<std::uint64_t>(blockId)
            * static_cast<std::uint64_t>(kernel.warpsPerBlock)
            + static_cast<std::uint64_t>(w);
        warp.prog = &kernel.programOf(w);
        warp.cluster = c;
        warp.schedInCluster = s;
        warp.active = true;
        warp.lastIssue = now;
        warp.ageRank = cluster->addWarp(s, slot);
        warp.regBytes = regBytes;
        regBytesUsed_[static_cast<std::size_t>(c)] += regBytes;
        block->slots.push_back(slot);
        refreshParked(slot);
    }
    hadWork_ = true;
}

void
SmCore::processEvents(Cycle now)
{
    while (!events_.empty() && events_.front().when <= now) {
        std::pop_heap(events_.begin(), events_.end(),
                      std::greater<RegWriteEvent>());
        RegWriteEvent ev = events_.back();
        events_.pop_back();
        scsim_assert(ev.when == now,
                     "missed a writeback event (idle skip overshoot)");
        const WarpContext &warp = warps_[static_cast<std::size_t>(ev.warp)];
        IssueCluster &cluster =
            *clusters_[static_cast<std::size_t>(warp.cluster)];
        int bank = cluster.arbiter().bankOf(ev.reg, ev.warp);
        cluster.arbiter().pushWrite(bank, WriteRequest{ ev.warp, ev.reg });
        cluster.wake();
    }
}

void
SmCore::cycle(Cycle now)
{
    l1PortsLeft_ = cfg_.l1PortsPerSm;
    processEvents(now);
    if (cfg_.idealWarpMigration)
        migrateForBalance();
    bool active = false;
    for (auto &cluster : clusters_)
        active = cluster->cycle(now, *this) || active;
    hadWork_ = active;
#ifdef SCSIM_AUDIT
    auditMasks();
#endif
}

void
SmCore::refreshParked(WarpSlot slot)
{
    if (warps_[static_cast<std::size_t>(slot)].schedulable())
        masks_.parked &= ~slotBit(slot);
    else
        masks_.parked |= slotBit(slot);
}

void
SmCore::auditMasks() const
{
    std::uint64_t bound = 0;
    for (const auto &cluster : clusters_) {
        std::uint64_t own = cluster->auditMasks(*this);
        scsim_assert(!(bound & own), "SM %d binds a warp twice", smId_);
        bound |= own;
    }
    for (int slot = 0; slot < cfg_.maxWarpsPerSm; ++slot)
        scsim_assert(static_cast<bool>(masks_.parked & slotBit(slot))
                         != warps_[static_cast<std::size_t>(slot)]
                                .schedulable(),
                     "SM %d warp %d: stale parked bit", smId_, slot);
    scsim_assert(!((masks_.blocked | masks_.ready | masks_.needsCu)
                   & ~bound),
                 "SM %d: mask bits on unbound warps", smId_);
    scsim_assert(!(masks_.needsCu & ~masks_.ready)
                     && !(masks_.blocked & masks_.ready),
                 "SM %d: needsCu outside ready, or blocked and ready",
                 smId_);
}

void
SmCore::migrateForBalance()
{
    int nsched = cfg_.schedulersPerSm;
    int perCluster = cfg_.schedulersPerCluster();
    // Runnable (schedulable, not hazard-blocked) warps of a global
    // scheduler, as a mask.  A move changes only the bound masks, so
    // the counts below always reflect the moves made so far.
    const std::uint64_t stuck = masks_.parked | masks_.blocked;
    auto runnableOf = [&](int g) {
        return clusters_[static_cast<std::size_t>(g / perCluster)]
                   ->boundMask(g % perCluster)
            & ~stuck;
    };
    auto runnable = [&](int g) { return std::popcount(runnableOf(g)); };
    for (int g = 0; g < nsched; ++g) {
        if (runnable(g) != 0)
            continue;
        int gc = g / perCluster;
        IssueCluster &dstCluster =
            *clusters_[static_cast<std::size_t>(gc)];
        // Donor: the most loaded scheduler with at least two runnable.
        int donor = -1;
        for (int d = 0; d < nsched; ++d)
            if (runnable(d) >= 2
                && (donor < 0 || runnable(d) > runnable(donor)))
                donor = d;
        if (donor < 0)
            break;
        int dc = donor / perCluster;
        IssueCluster &srcCluster =
            *clusters_[static_cast<std::size_t>(dc)];
        // Youngest runnable: the last one in the donor's list.
        const std::vector<WarpSlot> &donorList =
            srcCluster.warpsOf(donor % perCluster);
        std::uint64_t donorRunnable = runnableOf(donor);
        auto it = std::find_if(donorList.rbegin(), donorList.rend(),
                               [&](WarpSlot slot) {
                                   return donorRunnable & slotBit(slot);
                               });
        WarpSlot victim = it == donorList.rend() ? kNoWarp : *it;
        if (victim == kNoWarp)
            continue;
        WarpContext &w = warps_[static_cast<std::size_t>(victim)];
        if (dc != gc
            && regBytesUsed_[static_cast<std::size_t>(gc)] + w.regBytes
                   > cfg_.regFileBytesPerCluster())
            continue;
        srcCluster.removeWarp(donor % perCluster, victim);
        if (dc != gc) {
            regBytesUsed_[static_cast<std::size_t>(dc)] -= w.regBytes;
            regBytesUsed_[static_cast<std::size_t>(gc)] += w.regBytes;
        }
        w.cluster = gc;
        w.schedInCluster = g % perCluster;
        // The oracle ignores table capacity (entries are bookkeeping);
        // register storage remains a hard constraint above.
        w.ageRank = dstCluster.addWarp(g % perCluster, victim,
                                       /*unchecked=*/true);
        ++stats_.warpMigrations;
        hadWork_ = true;
    }
}

bool
SmCore::busy() const
{
    return activeBlocks_ > 0 || !events_.empty();
}

Cycle
SmCore::nextWake(Cycle now) const
{
    if (!busy())
        return kNoCycle;
    if (hadWork_)
        return now + 1;
    if (!events_.empty())
        return events_.front().when;
    scsim_panic("SM %d is busy with no runnable work and no events "
                "(simulator deadlock)", smId_);
}

void
SmCore::onIdleSkip()
{
    for (auto &cluster : clusters_)
        cluster->onIdleSkip();
}

bool
SmCore::tryConsumeL1Port()
{
    if (l1PortsLeft_ <= 0)
        return false;
    --l1PortsLeft_;
    return true;
}

Cycle
SmCore::issueMemory(WarpContext &warp, const Instruction &inst, Cycle now)
{
    return mem_.access(smId_, inst.mem, warp.gwid, warp.memIter++, now);
}

void
SmCore::scheduleRegWrite(Cycle when, WarpSlot warp, RegIndex reg)
{
    scsim_assert(when > 0, "writeback scheduled in the past");
    events_.push_back(RegWriteEvent{ when, warp, reg });
    std::push_heap(events_.begin(), events_.end(),
                   std::greater<RegWriteEvent>());
}

void
SmCore::completeRegWrite(WarpSlot warp, RegIndex reg)
{
    WarpContext &w = warps_[static_cast<std::size_t>(warp)];
    w.scoreboard.completeWrite(reg);
    masks_.blocked &= ~slotBit(warp);
    // After a migration the grant lands in the warp's old cluster.
    clusters_[static_cast<std::size_t>(w.cluster)]->wake();
}

void
SmCore::releaseBarrier(BlockState &block)
{
    for (WarpSlot slot : block.slots) {
        WarpContext &warp = warps_[static_cast<std::size_t>(slot)];
        warp.atBarrier = false;
        refreshParked(slot);
        clusters_[static_cast<std::size_t>(warp.cluster)]->wake();
    }
    block.barrierArrived = 0;
    // Released warps in already-cycled clusters are runnable now.
    hadWork_ = true;
}

void
SmCore::warpBarrier(WarpSlot slot)
{
    WarpContext &warp = warps_[static_cast<std::size_t>(slot)];
    BlockState &block = blocks_[static_cast<std::size_t>(warp.blockSeq)];
    warp.atBarrier = true;
    masks_.parked |= slotBit(slot);
    ++block.barrierArrived;
    if (block.barrierArrived == block.warpsTotal - block.warpsExited)
        releaseBarrier(block);
}

void
SmCore::completeBlock(BlockState &block)
{
    std::uint32_t regBytes = block.kernel->regBytesPerWarp();
    for (WarpSlot slot : block.slots) {
        WarpContext &warp = warps_[static_cast<std::size_t>(slot)];
        clusters_[static_cast<std::size_t>(warp.cluster)]
            ->removeWarp(warp.schedInCluster, slot);
        regBytesUsed_[static_cast<std::size_t>(warp.cluster)] -= regBytes;
        warp.reset();
        masks_.forget(slot);
        masks_.parked |= slotBit(slot);
        freeSlots_.push_back(slot);
    }
    smemUsed_ -= block.kernel->smemBytesPerBlock;
    --activeBlocks_;
    ++stats_.blocksCompleted;
    block = BlockState{};
}

void
SmCore::warpExit(WarpSlot slot, Cycle)
{
    WarpContext &warp = warps_[static_cast<std::size_t>(slot)];
    BlockState &block = blocks_[static_cast<std::size_t>(warp.blockSeq)];
    warp.exited = true;
    masks_.parked |= slotBit(slot);
    ++block.warpsExited;
    ++stats_.warpsCompleted;
    // The barrier threshold shrank; a waiting barrier may now release.
    if (block.barrierArrived > 0
        && block.barrierArrived == block.warpsTotal - block.warpsExited)
        releaseBarrier(block);
    if (block.warpsExited == block.warpsTotal)
        completeBlock(block);
}

void
SmCore::noteIssue(int cluster, int schedInCluster)
{
    int global = cluster * cfg_.schedulersPerCluster() + schedInCluster;
    auto &perSm = stats_.issuePerScheduler[static_cast<std::size_t>(smId_)];
    ++perSm[static_cast<std::size_t>(global)];
    ++stats_.instructions;
    stats_.threadInstructions += kWarpSize;
}

void
SmCore::noteRfReads(Cycle now, int grants)
{
    if (rfTrace_)
        stats_.rfReadTrace.add(now, static_cast<double>(grants)
                                        * kWarpSize);
}

int
SmCore::residentWarps() const
{
    int n = 0;
    for (const auto &warp : warps_)
        if (warp.active)
            ++n;
    return n;
}

void
SmCore::reset()
{
    for (auto &warp : warps_)
        warp.reset();
    masks_ = WarpMasks{};
    freeSlots_.clear();
    for (int i = cfg_.maxWarpsPerSm - 1; i >= 0; --i)
        freeSlots_.push_back(i);
    for (auto &block : blocks_)
        block = BlockState{};
    for (auto &cluster : clusters_)
        cluster->reset();
    std::fill(regBytesUsed_.begin(), regBytesUsed_.end(), 0u);
    smemUsed_ = 0;
    activeBlocks_ = 0;
    events_.clear();
    assigner_->reset();
    hadWork_ = false;
}

template <class Self, class V>
void
SmCore::visitState(Self &self, V &v, const Application &app, Cycle now)
{
    // l1PortsLeft_ is reset at the top of every cycle() and rfTrace_
    // is derived from the config; neither is snapshotted.  Of the
    // masks only `blocked` is state (as each warp's sbBlocked field);
    // the others are derived and rebuilt on load.
    const int maxWarps = self.cfg_.maxWarpsPerSm;
    const FieldRange slotIndex = below(maxWarps);
    for (auto &warp : self.warps_) {
        auto bit = slotBit(
            static_cast<WarpSlot>(&warp - self.warps_.data()));
        v.field("warp.slot", warp.slot, inRange(kNoWarp, maxWarps - 1));
        v.field("warp.blockSeq", warp.blockSeq,
                inRange(-1, static_cast<std::int64_t>(self.blocks_.size())
                                - 1));
        v.field("warp.inBlock", warp.warpInBlock);
        v.field("warp.gwid", warp.gwid);
        // Later used as indices: -1 marks an unbound (free) slot.
        v.field("warp.cluster", warp.cluster,
                inRange(-1, self.numClusters() - 1));
        v.field("warp.sched", warp.schedInCluster,
                below(self.cfg_.schedulersPerCluster()));
        v.field("warp.ageRank", warp.ageRank);
        v.field("warp.regBytes", warp.regBytes);
        v.field("warp.active", warp.active);
        v.field("warp.exited", warp.exited);
        v.field("warp.atBarrier", warp.atBarrier);
        v.field("warp.pc", warp.pc);
        v.field("warp.memIter", warp.memIter);
        v.field("warp.lastIssue", warp.lastIssue);
        bool blocked = (self.masks_.blocked & bit) != 0;
        v.field("warp.sbBlocked", blocked);
        if constexpr (V::kReads)
            self.masks_.blocked = blocked ? self.masks_.blocked | bit
                                          : self.masks_.blocked & ~bit;
        Scoreboard::visitState(warp.scoreboard, v);
    }
    v.list("sm.freeSlots", self.freeSlots_,
           [&](auto &slot) { v.field("sm.freeSlot", slot, slotIndex); });
    for (auto &block : self.blocks_) {
        v.field("blk.live", block.live);
        v.field("blk.id", block.blockId);
        v.element("blk.kernel", block.kernel, app.kernels, true);
        v.field("blk.warpsTotal", block.warpsTotal);
        v.field("blk.warpsExited", block.warpsExited);
        v.field("blk.barrier", block.barrierArrived);
        v.list("blk.slots", block.slots,
               [&](auto &slot) { v.field("blk.slot", slot, slotIndex); });
    }
    for (auto &cluster : self.clusters_)
        IssueCluster::visitState(likeSelf<Self>(*cluster), v);
    self.assigner_->visitState(v);
    for (auto &used : self.regBytesUsed_)
        v.field("sm.regBytesUsed", used);
    v.field("sm.smemUsed", self.smemUsed_);
    v.field("sm.activeBlocks", self.activeBlocks_);
    // The writeback min-heap is serialized as its backing array, so a
    // restore reproduces the exact pop order of equal-cycle events.
    v.list("sm.events", self.events_, [&](auto &ev) {
        v.field("ev.when", ev.when);
        v.field("ev.warp", ev.warp, slotIndex);
        // The write retires in the warp's scoreboard.
        v.field("ev.reg", ev.reg, below(kMaxRegs));
    });
    v.field("sm.hadWork", self.hadWork_);
    if constexpr (V::kReads)
        self.finishLoad(now);
}

template void SmCore::visitState(const SmCore &, StateWriter &,
                                 const Application &, Cycle);
template void SmCore::visitState(SmCore &, StateReader &,
                                 const Application &, Cycle);

void
SmCore::finishLoad(Cycle now)
{
    auto check = [](bool ok, const char *what) {
        if (!ok)
            scsim_throw(CacheError, "snapshot: %s", what);
    };
    std::uint64_t blocked = masks_.blocked;
    masks_ = WarpMasks{};
    masks_.blocked = blocked;

    // Each slot is free or held by one live block, which holds its
    // warps live and counts them right.
    constexpr int kUnseen = -2, kFree = -1;
    std::vector<int> owner(warps_.size(), kUnseen);
    auto own = [&](WarpSlot slot, int by) {
        check(owner[static_cast<std::size_t>(slot)] == kUnseen,
              "warp slot listed twice");
        owner[static_cast<std::size_t>(slot)] = by;
    };
    for (WarpSlot slot : freeSlots_)
        own(slot, kFree);
    int live = 0;
    std::uint32_t smem = 0;
    std::vector<std::uint32_t> regBytes(regBytesUsed_.size(), 0);
    for (std::size_t b = 0; b < blocks_.size(); ++b) {
        const BlockState &block = blocks_[b];
        if (!block.live)
            continue;
        check(block.kernel, "live block without a kernel");
        const KernelDesc &kernel = *block.kernel;
        ++live;
        smem += kernel.smemBytesPerBlock;
        check(block.warpsTotal == kernel.warpsPerBlock
                  && block.slots.size()
                         == static_cast<std::size_t>(kernel.warpsPerBlock),
              "block warp count differs from its kernel's");
        int exited = 0, atBarrier = 0;
        for (WarpSlot slot : block.slots) {
            own(slot, static_cast<int>(b));
            WarpContext &warp = warps_[static_cast<std::size_t>(slot)];
            check(warp.active && warp.slot == slot
                      && warp.blockSeq == static_cast<int>(b)
                      && warp.cluster >= 0
                      && warp.regBytes == kernel.regBytesPerWarp(),
                  "block warp is not live in its slot");
            check(warp.warpInBlock >= 0
                      && warp.warpInBlock < kernel.warpsPerBlock,
                  "warp-in-block out of range");
            // Re-resolve the warp's program through its block.
            warp.prog = &kernel.programOf(warp.warpInBlock);
            // A warp left without an instruction would never exit.
            check(warp.exited || warp.hasNextInst(),
                  "live warp ran past its program");
            exited += warp.exited;
            atBarrier += warp.atBarrier;
            regBytes[static_cast<std::size_t>(warp.cluster)] +=
                warp.regBytes;
        }
        // The last warp to exit completes the block, and the last to
        // arrive releases the barrier.
        check(block.warpsExited == exited && block.barrierArrived == atBarrier
                  && atBarrier < block.warpsTotal - exited,
              "block counts disagree with its warps");
    }

    // Every register write in flight (held by a collector unit, due as
    // a writeback event, or queued at a bank) retires against its own
    // pending scoreboard bit of a live warp, and every pending bit has
    // its write in flight.
    std::vector<std::bitset<kMaxRegs>> inFlight(warps_.size());
    auto claim = [&](WarpSlot slot, RegIndex reg) {
        const WarpContext &warp = warps_[static_cast<std::size_t>(slot)];
        auto &claimed = inFlight[static_cast<std::size_t>(slot)];
        check(warp.cluster >= 0 && warp.scoreboard.pending(reg)
                  && !claimed.test(static_cast<std::size_t>(reg)),
              "register write in flight without its scoreboard entry");
        claimed.set(static_cast<std::size_t>(reg));
    };
    // A live warp is bound to exactly the table it names.
    std::uint64_t bound = 0;
    for (const auto &cluster : clusters_) {
        for (int s = 0; s < cluster->numSchedulers(); ++s) {
            for (WarpSlot slot : cluster->warpsOf(s)) {
                check(!(bound & slotBit(slot)), "warp slot bound twice");
                bound |= slotBit(slot);
                const WarpContext &warp =
                    warps_[static_cast<std::size_t>(slot)];
                check(warp.cluster == cluster->id()
                          && warp.schedInCluster == s,
                      "warp bound to one sub-core but names another");
            }
        }
        const OperandCollector &oc = cluster->collector();
        for (int i = 0; i < oc.size(); ++i) {
            const CollectorUnit &cu = oc.unit(i);
            if (cu.busy && (cu.inst.dst != kNoReg || isLoad(cu.inst.op)))
                claim(cu.warp, cu.inst.dst);
        }
        const RegFileArbiter &arb = cluster->arbiter();
        for (int b = 0; b < arb.numBanks(); ++b)
            for (std::size_t i = 0; i < arb.writeQueue(b).size(); ++i)
                claim(arb.writeQueue(b)[i].warp, arb.writeQueue(b)[i].reg);
    }
    for (const RegWriteEvent &ev : events_) {
        check(ev.when >= now, "writeback event in the past");
        claim(ev.warp, ev.reg);
    }
    check(std::is_heap(events_.begin(), events_.end(),
                       std::greater<RegWriteEvent>()),
          "writeback events out of heap order");

    for (std::size_t slot = 0; slot < warps_.size(); ++slot) {
        const WarpContext &warp = warps_[slot];
        auto bit = slotBit(static_cast<WarpSlot>(slot));
        check(owner[slot] != kUnseen, "warp slot neither free nor held");
        check(owner[slot] != kFree
                  || (!warp.active && warp.cluster < 0),
              "free warp slot holds a warp");
        check(warp.cluster < 0 || (bound & bit),
              "warp names a sub-core that does not hold it");
        check(inFlight[slot].count()
                  == static_cast<std::size_t>(
                      warp.scoreboard.pendingCount()),
              "scoreboard waits on a write that is not in flight");
        // The hazard marker sits only on a warp its scoreboard holds.
        check(!(masks_.blocked & bit)
                  || (warp.schedulable()
                      && !clusters_[static_cast<std::size_t>(warp.cluster)]
                              ->candidateReadyWith(warp, true)),
              "hazard marker on a warp with no hazard");
        refreshParked(static_cast<WarpSlot>(slot));
    }
    check(live == activeBlocks_ && smem == smemUsed_
              && regBytes == regBytesUsed_,
          "SM occupancy disagrees with its blocks");
}

} // namespace scsim
