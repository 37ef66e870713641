/**
 * @file
 * Per-warp scoreboard tracking in-flight register writes.
 *
 * An instruction may issue only when none of its source or destination
 * registers has a pending write (RAW and WAW protection; warps issue
 * in order so WAR cannot occur).
 */

#ifndef SCSIM_CORE_SCOREBOARD_HH
#define SCSIM_CORE_SCOREBOARD_HH

#include <bitset>

#include "isa/instruction.hh"

namespace scsim {

class Scoreboard
{
  public:
    /** May @p inst issue without a data hazard?  Inline: the issue
     *  scan's hazard test calls it for every newly seen instruction. */
    bool
    ready(const Instruction &inst) const
    {
        if (count_ == 0)
            return true;
        if (inst.dst != kNoReg
            && pending_[static_cast<std::size_t>(inst.dst)])
            return false;
        for (RegIndex r : inst.srcs)
            if (r != kNoReg && pending_[static_cast<std::size_t>(r)])
                return false;
        return true;
    }

    /** Record @p inst 's destination as pending. */
    void markIssue(const Instruction &inst);

    /** A write to @p reg retired (writeback granted). */
    void completeWrite(RegIndex reg);

    bool anyPending() const { return count_ != 0; }
    int pendingCount() const { return count_; }
    bool pending(RegIndex reg) const;

    void reset();

    /** Checkpointing (common/state_io.hh): the pending mask as four
     *  u64 words, lowest register first. */
    template <class Self, class V> static void visitState(Self &self, V &v);

  private:
    std::bitset<kMaxRegs> pending_;
    int count_ = 0;
};

} // namespace scsim

#endif // SCSIM_CORE_SCOREBOARD_HH
