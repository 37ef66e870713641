#include "core/operand_collector.hh"

#include "common/logging.hh"
#include "common/state_io.hh"

namespace scsim {

OperandCollector::OperandCollector(int numCus)
    : cus_(static_cast<std::size_t>(numCus)), freeCount_(numCus)
{
    // The ready set is one mask word (GpuConfig::validate caps it).
    scsim_assert(numCus > 0 && numCus <= 64,
                 "collector units per sub-core must be in [1,64]");
}

void
OperandCollector::markReadyIfDone(int cu)
{
    if (cus_[static_cast<std::size_t>(cu)].pendingOperands == 0)
        readyMask_ |= std::uint64_t{ 1 } << cu;
}

int
OperandCollector::allocate(WarpSlot warp, const Instruction &inst,
                           RegFileArbiter &arbiter, Cycle now)
{
    if (freeCount_ == 0)
        return -1;
    int idx = -1;
    for (std::size_t i = 0; i < cus_.size(); ++i) {
        if (!cus_[i].busy) {
            idx = static_cast<int>(i);
            break;
        }
    }
    scsim_assert(idx >= 0, "freeCount_ out of sync with CU array");

    CollectorUnit &cu = cus_[static_cast<std::size_t>(idx)];
    cu.busy = true;
    cu.warp = warp;
    cu.inst = inst;
    cu.pendingOperands = 0;
    cu.allocCycle = now;
    --freeCount_;

    // One read per distinct register; duplicates share the grant.
    for (int s = 0; s < 3; ++s) {
        RegIndex reg = inst.srcs[static_cast<std::size_t>(s)];
        if (reg == kNoReg)
            continue;
        bool dup = false;
        std::uint32_t mask = 1u << s;
        for (int p = 0; p < s; ++p) {
            if (inst.srcs[static_cast<std::size_t>(p)] == reg) {
                dup = true;
                break;
            }
        }
        if (dup)
            continue;
        // Extend the mask over any later duplicates of this register.
        for (int p = s + 1; p < 3; ++p)
            if (inst.srcs[static_cast<std::size_t>(p)] == reg)
                mask |= 1u << p;
        cu.pendingOperands |= mask;
        arbiter.pushRead(arbiter.bankOf(reg, warp),
                         ReadRequest{ idx, mask });
    }
    markReadyIfDone(idx);   // no source registers: ready at once
    return idx;
}

void
OperandCollector::operandArrived(int cu, std::uint32_t operandMask)
{
    CollectorUnit &unit = cus_[static_cast<std::size_t>(cu)];
    scsim_assert(unit.busy, "operand arrived at a free CU");
    scsim_assert((unit.pendingOperands & operandMask) == operandMask,
                 "operand arrived twice");
    unit.pendingOperands &= ~operandMask;
    markReadyIfDone(cu);
}

void
OperandCollector::release(int cu)
{
    CollectorUnit &unit = cus_[static_cast<std::size_t>(cu)];
    scsim_assert(unit.busy, "releasing a free CU");
    scsim_assert(unit.pendingOperands == 0,
                 "releasing a CU with pending operands");
    unit.busy = false;
    unit.warp = kNoWarp;
    readyMask_ &= ~(std::uint64_t{ 1 } << cu);
    ++freeCount_;
}

bool
OperandCollector::banksIdle(WarpSlot warp, const Instruction &inst,
                            const RegFileArbiter &arbiter) const
{
    for (RegIndex reg : inst.srcs) {
        if (reg == kNoReg)
            continue;
        if (!arbiter.readIdle(arbiter.bankOf(reg, warp)))
            return false;
    }
    return true;
}

void
OperandCollector::reset()
{
    for (auto &cu : cus_)
        cu = CollectorUnit{};
    freeCount_ = static_cast<int>(cus_.size());
    readyMask_ = 0;
}

template <class Self, class V>
void
OperandCollector::visitState(Self &self, V &v, int maxWarps)
{
    for (auto &cu : self.cus_) {
        v.field("cu.busy", cu.busy);
        // A busy CU's warp indexes the SM's warp table at dispatch.
        v.field("cu.warp", cu.warp,
                cu.busy ? below(maxWarps) : inRange(kNoWarp, kNoWarp));
        // One pending bit per source operand slot.
        v.field("cu.pending", cu.pendingOperands, below(0b1000));
        v.field("cu.alloc", cu.allocCycle);
        visitInstructionState(cu.inst, v);
    }
    if constexpr (V::kReads) {
        self.freeCount_ = 0;
        self.readyMask_ = 0;
        for (std::size_t i = 0; i < self.cus_.size(); ++i) {
            const CollectorUnit &cu = self.cus_[i];
            // An idle CU's operands are never granted again, so
            // pending bits there are damage, not state.
            if (!cu.busy && cu.pendingOperands != 0)
                scsim_throw(CacheError,
                            "snapshot: idle collector unit waits on "
                            "operands %u",
                            cu.pendingOperands);
            if (!cu.busy)
                ++self.freeCount_;
            else
                self.markReadyIfDone(static_cast<int>(i));
        }
    }
}

template void OperandCollector::visitState(const OperandCollector &,
                                           StateWriter &, int);
template void OperandCollector::visitState(OperandCollector &,
                                           StateReader &, int);

} // namespace scsim
