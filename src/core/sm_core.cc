#include "core/sm_core.hh"

#include <algorithm>
#include <bit>

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

namespace {

int
kernelIndexOf(const Application &app, const KernelDesc *kernel)
{
    if (!kernel)
        return -1;
    for (std::size_t i = 0; i < app.kernels.size(); ++i)
        if (&app.kernels[i] == kernel)
            return static_cast<int>(i);
    scsim_panic("block references a kernel outside the application");
}

const KernelDesc *
kernelAt(const Application &app, std::int64_t idx)
{
    if (idx < 0)
        return nullptr;
    if (idx >= static_cast<std::int64_t>(app.kernels.size()))
        scsim_throw(CacheError,
                    "snapshot: kernel index %lld out of range (%zu "
                    "kernels)",
                    static_cast<long long>(idx), app.kernels.size());
    return &app.kernels[static_cast<std::size_t>(idx)];
}

} // namespace

void
SmCore::saveState(StateWriter &w, const Application &app) const
{
    // l1PortsLeft_ is reset at the top of every cycle() and rfTrace_
    // is derived from the config; neither is snapshotted.  Of the
    // masks only `blocked` is state (as each warp's sbBlocked field);
    // the others are derived and rebuilt on load.
    for (const WarpContext &warp : warps_) {
        auto bit = slotBit(static_cast<WarpSlot>(&warp - warps_.data()));
        w.i64("warp.slot", warp.slot);
        w.i64("warp.blockSeq", warp.blockSeq);
        w.i64("warp.inBlock", warp.warpInBlock);
        w.u64("warp.gwid", warp.gwid);
        w.i64("warp.cluster", warp.cluster);
        w.i64("warp.sched", warp.schedInCluster);
        w.u64("warp.ageRank", warp.ageRank);
        w.u64("warp.regBytes", warp.regBytes);
        w.b("warp.active", warp.active);
        w.b("warp.exited", warp.exited);
        w.b("warp.atBarrier", warp.atBarrier);
        w.u64("warp.pc", warp.pc);
        w.u64("warp.memIter", warp.memIter);
        w.u64("warp.lastIssue", warp.lastIssue);
        w.b("warp.sbBlocked", (masks_.blocked & bit) != 0);
        warp.scoreboard.saveState(w);
    }
    w.u64("sm.freeSlots", freeSlots_.size());
    for (WarpSlot slot : freeSlots_)
        w.i64("sm.freeSlot", slot);
    for (const BlockState &block : blocks_) {
        w.b("blk.live", block.live);
        w.i64("blk.id", block.blockId);
        w.i64("blk.kernel", kernelIndexOf(app, block.kernel));
        w.i64("blk.warpsTotal", block.warpsTotal);
        w.i64("blk.warpsExited", block.warpsExited);
        w.i64("blk.barrier", block.barrierArrived);
        w.u64("blk.slots", block.slots.size());
        for (WarpSlot slot : block.slots)
            w.i64("blk.slot", slot);
    }
    for (const auto &cluster : clusters_)
        cluster->saveState(w);
    assigner_->saveState(w);
    for (std::uint32_t used : regBytesUsed_)
        w.u64("sm.regBytesUsed", used);
    w.u64("sm.smemUsed", smemUsed_);
    w.i64("sm.activeBlocks", activeBlocks_);
    // The writeback min-heap is serialized as its backing array, so a
    // restore reproduces the exact pop order of equal-cycle events.
    w.u64("sm.events", events_.size());
    for (const RegWriteEvent &ev : events_) {
        w.u64("ev.when", ev.when);
        w.i64("ev.warp", ev.warp);
        w.i64("ev.reg", ev.reg);
    }
    w.b("sm.hadWork", hadWork_);
}

void
SmCore::loadState(StateReader &r, const Application &app)
{
    masks_ = WarpMasks{};
    for (WarpContext &warp : warps_) {
        warp.slot = static_cast<WarpSlot>(r.i64("warp.slot"));
        warp.blockSeq = static_cast<int>(r.i64("warp.blockSeq"));
        warp.warpInBlock = static_cast<int>(r.i64("warp.inBlock"));
        warp.gwid = r.u64("warp.gwid");
        std::int64_t cluster = r.i64("warp.cluster");
        std::int64_t sched = r.i64("warp.sched");
        // Later used as indices: -1 marks an unbound (free) slot.
        if (cluster < -1 || cluster >= numClusters() || sched < 0
            || sched >= cfg_.schedulersPerCluster())
            scsim_throw(CacheError,
                        "snapshot: warp sub-core %lld/%lld out of range",
                        static_cast<long long>(cluster),
                        static_cast<long long>(sched));
        warp.cluster = static_cast<int>(cluster);
        warp.schedInCluster = static_cast<int>(sched);
        warp.ageRank = static_cast<std::uint32_t>(r.u64("warp.ageRank"));
        warp.regBytes =
            static_cast<std::uint32_t>(r.u64("warp.regBytes"));
        warp.active = r.b("warp.active");
        warp.exited = r.b("warp.exited");
        warp.atBarrier = r.b("warp.atBarrier");
        warp.pc = static_cast<std::uint32_t>(r.u64("warp.pc"));
        warp.memIter = r.u64("warp.memIter");
        warp.lastIssue = r.u64("warp.lastIssue");
        if (r.b("warp.sbBlocked"))
            masks_.blocked |= slotBit(
                static_cast<WarpSlot>(&warp - warps_.data()));
        warp.scoreboard.loadState(r);
        warp.prog = nullptr;   // re-resolved from the block table below
    }
    auto checkSlot = [&](std::int64_t slot) {
        if (slot < 0 || slot >= static_cast<std::int64_t>(warps_.size()))
            scsim_throw(CacheError, "snapshot: warp slot %lld out of range",
                        static_cast<long long>(slot));
        return static_cast<WarpSlot>(slot);
    };
    freeSlots_.clear();
    std::uint64_t nFree = r.u64("sm.freeSlots");
    for (std::uint64_t i = 0; i < nFree; ++i)
        freeSlots_.push_back(checkSlot(r.i64("sm.freeSlot")));
    for (BlockState &block : blocks_) {
        block.live = r.b("blk.live");
        block.blockId = static_cast<int>(r.i64("blk.id"));
        block.kernel = kernelAt(app, r.i64("blk.kernel"));
        block.warpsTotal = static_cast<int>(r.i64("blk.warpsTotal"));
        block.warpsExited = static_cast<int>(r.i64("blk.warpsExited"));
        block.barrierArrived = static_cast<int>(r.i64("blk.barrier"));
        block.slots.clear();
        std::uint64_t nSlots = r.u64("blk.slots");
        for (std::uint64_t i = 0; i < nSlots; ++i)
            block.slots.push_back(
                static_cast<WarpSlot>(r.i64("blk.slot")));
        if (block.live && !block.kernel)
            scsim_throw(CacheError,
                        "snapshot: live block without a kernel");
    }
    // Re-resolve warp program pointers through their blocks.
    for (const BlockState &block : blocks_) {
        if (!block.live)
            continue;
        for (WarpSlot slot : block.slots) {
            WarpContext &warp = warps_[static_cast<std::size_t>(
                checkSlot(slot))];
            if (warp.warpInBlock < 0
                || warp.warpInBlock >= block.kernel->warpsPerBlock)
                scsim_throw(CacheError,
                            "snapshot: warp-in-block %d out of range",
                            warp.warpInBlock);
            warp.prog = &block.kernel->programOf(warp.warpInBlock);
        }
    }
    for (WarpSlot slot = 0; slot < cfg_.maxWarpsPerSm; ++slot)
        refreshParked(slot);
    // Each cluster refuses bad or repeated slots in its own tables;
    // across clusters a slot may be bound once, to the table its warp
    // names.
    std::uint64_t bound = 0;
    for (auto &cluster : clusters_) {
        cluster->loadState(r);
        for (int s = 0; s < cluster->numSchedulers(); ++s) {
            if (bound & cluster->boundMask(s))
                scsim_throw(CacheError,
                            "snapshot: a warp slot is bound twice");
            bound |= cluster->boundMask(s);
            for (WarpSlot slot : cluster->warpsOf(s)) {
                const WarpContext &warp =
                    warps_[static_cast<std::size_t>(slot)];
                if (warp.cluster != cluster->id()
                    || warp.schedInCluster != s)
                    scsim_throw(CacheError,
                                "snapshot: warp %d bound to sub-core "
                                "%d/%d but names %d/%d",
                                slot, cluster->id(), s, warp.cluster,
                                warp.schedInCluster);
            }
        }
    }
    assigner_->loadState(r);
    for (std::uint32_t &used : regBytesUsed_)
        used = static_cast<std::uint32_t>(r.u64("sm.regBytesUsed"));
    smemUsed_ = static_cast<std::uint32_t>(r.u64("sm.smemUsed"));
    activeBlocks_ = static_cast<int>(r.i64("sm.activeBlocks"));
    events_.clear();
    std::uint64_t nEvents = r.u64("sm.events");
    for (std::uint64_t i = 0; i < nEvents; ++i) {
        RegWriteEvent ev;
        ev.when = r.u64("ev.when");
        ev.warp = checkSlot(r.i64("ev.warp"));
        if (warps_[static_cast<std::size_t>(ev.warp)].cluster < 0)
            scsim_throw(CacheError,
                        "snapshot: writeback for unbound warp %d",
                        ev.warp);
        ev.reg = static_cast<RegIndex>(r.i64("ev.reg"));
        events_.push_back(ev);
    }
    hadWork_ = r.b("sm.hadWork");
}

} // namespace scsim
