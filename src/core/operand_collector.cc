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

void
OperandCollector::saveState(StateWriter &w) const
{
    for (const CollectorUnit &cu : cus_) {
        w.b("cu.busy", cu.busy);
        w.i64("cu.warp", cu.warp);
        w.u64("cu.pending", cu.pendingOperands);
        w.u64("cu.alloc", cu.allocCycle);
        saveInstructionState(w, cu.inst);
    }
}

void
OperandCollector::loadState(StateReader &r, int maxWarps)
{
    freeCount_ = 0;
    readyMask_ = 0;
    for (std::size_t i = 0; i < cus_.size(); ++i) {
        CollectorUnit &cu = cus_[i];
        cu.busy = r.b("cu.busy");
        // A busy CU's warp indexes the SM's warp table at dispatch.
        std::int64_t warp = r.i64("cu.warp");
        if (cu.busy ? warp < 0 || warp >= maxWarps : warp != kNoWarp)
            scsim_throw(CacheError,
                        "snapshot: %s collector unit holds warp %lld "
                        "out of range",
                        cu.busy ? "busy" : "idle",
                        static_cast<long long>(warp));
        cu.warp = static_cast<WarpSlot>(warp);
        cu.pendingOperands =
            static_cast<std::uint32_t>(r.u64("cu.pending"));
        cu.allocCycle = r.u64("cu.alloc");
        cu.inst = loadInstructionState(r);
        // An idle CU's operands are never granted again, so pending
        // bits there are damage, not state.
        if (!cu.busy && cu.pendingOperands != 0)
            scsim_throw(CacheError,
                        "snapshot: idle collector unit waits on "
                        "operands %u",
                        cu.pendingOperands);
        if (!cu.busy)
            ++freeCount_;
        else
            markReadyIfDone(static_cast<int>(i));
    }
}

} // namespace scsim
