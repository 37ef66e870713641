/**
 * @file
 * Operand collector: the staging structure between warp issue and
 * execution-unit dispatch (Fig 2 of the paper).
 *
 * Each collector unit (CU) holds one warp instruction while its source
 * operands are fetched from the banked register file.  Allocation
 * pushes one read request per *distinct* source register (repeated
 * registers share a single read); when every operand is ready the CU
 * may dispatch and is then freed.  The CUs that may dispatch are also
 * kept as a bitmask, so a dispatch phase with nothing ready costs one
 * test (DESIGN.md §4.3).
 */

#ifndef SCSIM_CORE_OPERAND_COLLECTOR_HH
#define SCSIM_CORE_OPERAND_COLLECTOR_HH

#include <cstdint>
#include <vector>

#include "core/reg_file.hh"
#include "isa/instruction.hh"

namespace scsim {

struct CollectorUnit
{
    bool busy = false;
    WarpSlot warp = kNoWarp;
    Instruction inst;
    std::uint32_t pendingOperands = 0;   //!< bitmask of unread operands
    Cycle allocCycle = 0;

    bool ready() const { return busy && pendingOperands == 0; }
};

class OperandCollector
{
  public:
    explicit OperandCollector(int numCus);

    int size() const { return static_cast<int>(cus_.size()); }
    int freeCount() const { return freeCount_; }
    bool hasFree() const { return freeCount_ > 0; }

    /** Bit i set iff unit(i).ready(): busy with every operand read. */
    std::uint64_t readyMask() const { return readyMask_; }

    const CollectorUnit &
    unit(int idx) const
    {
        return cus_[static_cast<std::size_t>(idx)];
    }

    /**
     * Allocate a CU for @p inst of warp @p warp, enqueueing its
     * register reads with @p arbiter.
     * @return the CU index, or -1 when all CUs are busy.
     */
    int allocate(WarpSlot warp, const Instruction &inst,
                 RegFileArbiter &arbiter, Cycle now);

    /** A granted read fills the operand slots in @p operandMask. */
    void operandArrived(int cu, std::uint32_t operandMask);

    /** Dispatch happened; return the CU to the free pool. */
    void release(int cu);

    /**
     * Would every source-register bank of @p inst be idle right now?
     * Used by the bank-stealing model to find free bandwidth.
     */
    bool banksIdle(WarpSlot warp, const Instruction &inst,
                   const RegFileArbiter &arbiter) const;

    void reset();

    /**
     * Checkpointing (common/state_io.hh): every CU, including its
     * staged instruction.  A load refuses (CacheError) a busy CU whose
     * warp is outside [0, @p maxWarps), and an idle CU bound to any
     * warp or waiting on operands; it rebuilds the free count and the
     * ready mask.
     */
    template <class Self, class V>
    static void visitState(Self &self, V &v, int maxWarps);

  private:
    void markReadyIfDone(int cu);

    std::vector<CollectorUnit> cus_;
    int freeCount_;
    std::uint64_t readyMask_ = 0;
};

} // namespace scsim

#endif // SCSIM_CORE_OPERAND_COLLECTOR_HH
