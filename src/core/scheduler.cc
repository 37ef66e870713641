#include "core/scheduler.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"
#include "common/state_io.hh"
#include "core/reg_file.hh"

namespace scsim {

int
rbaScore(const Instruction &inst, WarpSlot slot,
         const int *bankQueueLen, int numBanks)
{
    int score = 0;
    for (RegIndex reg : inst.srcs)
        if (reg != kNoReg)
            score += bankQueueLen[swizzleBank(reg, slot, numBanks)];
    return std::min(score, 31);   // 5-bit field in the warp PC table
}

namespace {

/** RBA's hierarchical key {score, ~age}: minimum score wins, oldest
 *  (smallest ageRank) on ties. */
long
rbaKey(WarpSlot s, const PickContext &ctx)
{
    const WarpContext &w = ctx.warps[s];
    int score = rbaScore(w.nextInst(), s, ctx.bankQueueLen, ctx.numBanks);
    return (static_cast<long>(score) << 32) | static_cast<long>(w.ageRank);
}

} // namespace

WarpSlot
WarpScheduler::pickMask(std::uint64_t, const PickContext &)
{
    scsim_panic("pickMask() on a policy that picks from lists");
}

WarpSlot
LrrScheduler::pick(const std::vector<WarpSlot> &ready,
                   const PickContext &)
{
    scsim_assert(!ready.empty(), "pick() with no candidates");
    // First candidate strictly after the last issued slot.
    WarpSlot best = ready.front();
    for (WarpSlot s : ready) {
        if (s > lastIssued_) {
            best = s;
            break;
        }
    }
    return best;
}

void
LrrScheduler::notifyIssued(WarpSlot slot, Cycle)
{
    lastIssued_ = slot;
}

template <class Self, class V>
void
LrrScheduler::visit(Self &self, V &v)
{
    v.field("lrr.lastIssued", self.lastIssued_, inRange(kNoWarp, 63));
}

template void LrrScheduler::visit(const LrrScheduler &, StateWriter &);
template void LrrScheduler::visit(LrrScheduler &, StateReader &);

WarpSlot
GtoScheduler::pick(const std::vector<WarpSlot> &ready,
                   const PickContext &ctx)
{
    scsim_assert(!ready.empty(), "pick() with no candidates");
    if (greedyWarp_ != kNoWarp) {
        for (WarpSlot s : ready)
            if (s == greedyWarp_)
                return s;
    }
    // Oldest ready warp: smallest age rank within this scheduler.
    WarpSlot best = ready.front();
    std::uint32_t bestAge = ctx.warps[best].ageRank;
    for (WarpSlot s : ready) {
        std::uint32_t age = ctx.warps[s].ageRank;
        if (age < bestAge) {
            best = s;
            bestAge = age;
        }
    }
    return best;
}

WarpSlot
GtoScheduler::pickMask(std::uint64_t cand, const PickContext &ctx)
{
    if (greedyWarp_ != kNoWarp && (cand & slotBit(greedyWarp_)))
        return greedyWarp_;
    WarpSlot best = kNoWarp;
    std::uint32_t bestAge = 0;
    for (; cand != 0; cand &= cand - 1) {
        auto s = static_cast<WarpSlot>(std::countr_zero(cand));
        std::uint32_t age = ctx.warps[s].ageRank;
        if (best == kNoWarp || age < bestAge) {
            best = s;
            bestAge = age;
        }
    }
    return best;
}

void
GtoScheduler::notifyIssued(WarpSlot slot, Cycle)
{
    greedyWarp_ = slot;
}

template <class Self, class V>
void
GtoScheduler::visit(Self &self, V &v)
{
    // The greedy warp shifts into a slot mask in pickMask().
    v.field("gto.greedyWarp", self.greedyWarp_, inRange(kNoWarp, 63));
}

template void GtoScheduler::visit(const GtoScheduler &, StateWriter &);
template void GtoScheduler::visit(GtoScheduler &, StateReader &);

WarpSlot
RbaScheduler::pick(const std::vector<WarpSlot> &ready,
                   const PickContext &ctx)
{
    scsim_assert(!ready.empty(), "pick() with no candidates");
    scsim_assert(ctx.bankQueueLen != nullptr,
                 "RBA needs bank queue lengths");
    WarpSlot best = kNoWarp;
    long bestKey = 0;
    for (WarpSlot s : ready) {
        long key = rbaKey(s, ctx);
        if (best == kNoWarp || key < bestKey) {
            best = s;
            bestKey = key;
        }
    }
    return best;
}

WarpSlot
RbaScheduler::pickMask(std::uint64_t cand, const PickContext &ctx)
{
    WarpSlot best = kNoWarp;
    long bestKey = 0;
    for (; cand != 0; cand &= cand - 1) {
        auto s = static_cast<WarpSlot>(std::countr_zero(cand));
        long key = rbaKey(s, ctx);
        if (best == kNoWarp || key < bestKey) {
            best = s;
            bestKey = key;
        }
    }
    return best;
}

std::unique_ptr<WarpScheduler>
makeScheduler(const GpuConfig &cfg)
{
    return makeScheduler(cfg.scheduler);
}

std::unique_ptr<WarpScheduler>
makeScheduler(SchedulerPolicy policy)
{
    switch (policy) {
      case SchedulerPolicy::LRR: return std::make_unique<LrrScheduler>();
      case SchedulerPolicy::GTO: return std::make_unique<GtoScheduler>();
      case SchedulerPolicy::RBA: return std::make_unique<RbaScheduler>();
    }
    scsim_panic("scheduler policy %d has no case",
                static_cast<int>(policy));
}

} // namespace scsim
