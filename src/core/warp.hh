/**
 * @file
 * Per-warp execution context held in an SM warp slot.
 */

#ifndef SCSIM_CORE_WARP_HH
#define SCSIM_CORE_WARP_HH

#include <cstdint>

#include "core/scoreboard.hh"
#include "trace/kernel.hh"

namespace scsim {

struct WarpContext
{
    // ---- identity (set at block dispatch) -----------------------------
    WarpSlot slot = kNoWarp;
    int blockSeq = -1;            //!< index into the SM's block table
    int warpInBlock = 0;
    std::uint64_t gwid = 0;       //!< global warp id (addresses, swizzle)
    const WarpProgram *prog = nullptr;

    int cluster = -1;             //!< sub-core this warp is bound to
    int schedInCluster = 0;
    std::uint32_t ageRank = 0;    //!< issue-age within its scheduler
    std::uint32_t regBytes = 0;   //!< register allocation footprint

    // ---- dynamic state -------------------------------------------------
    bool active = false;          //!< slot holds a live warp
    bool exited = false;
    bool atBarrier = false;
    std::uint32_t pc = 0;
    std::uint64_t memIter = 0;    //!< dynamic memory access counter
    Cycle lastIssue = 0;
    Scoreboard scoreboard;

    bool
    hasNextInst() const
    {
        return prog && pc < prog->code.size();
    }

    const Instruction &
    nextInst() const
    {
        return prog->code[pc];
    }

    /** Eligible to be considered by the warp scheduler this cycle. */
    bool
    schedulable() const
    {
        return active && !exited && !atBarrier && hasNextInst();
    }

    void
    reset()
    {
        *this = WarpContext{};
    }
};

/** Bit of warp slot @p slot in a slot-indexed mask. */
constexpr std::uint64_t
slotBit(WarpSlot slot)
{
    return std::uint64_t{ 1 } << slot;
}

/**
 * One SM's per-warp scheduling facts as slot-indexed bitmasks (bit i
 * is warp slot i; GpuConfig::validate caps maxWarpsPerSm at 64), so
 * an issue scan selects candidates with word operations and runs the
 * scoreboard test only on warps whose state changed (DESIGN.md §4.1).
 */
struct WarpMasks
{
    /** Sticky hazard marker: a non-shared issue scan saw the next
     *  instruction blocked on the scoreboard; cleared when any of the
     *  warp's writes retires.  Set lazily, never eagerly: the
     *  ideal-migration oracle counts these warps as not runnable, so
     *  when the bit is set decides which warps migrate. */
    std::uint64_t blocked = 0;
    /** !schedulable(): empty slot, exited, or waiting at a barrier. */
    std::uint64_t parked = ~std::uint64_t{ 0 };
    /** The next instruction was already seen hazard-free.  It stays so
     *  until the warp issues it (a retiring write only makes a warp
     *  more ready), so only issueTo clears the bit. */
    std::uint64_t ready = 0;
    /** The subset of `ready` whose instruction needs a collector unit. */
    std::uint64_t needsCu = 0;

    /** The warp in @p slot is gone: drop what scans learned about it. */
    void
    forget(WarpSlot slot)
    {
        blocked &= ~slotBit(slot);
        ready &= ~slotBit(slot);
        needsCu &= ~slotBit(slot);
    }
};

} // namespace scsim

#endif // SCSIM_CORE_WARP_HH
