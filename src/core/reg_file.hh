/**
 * @file
 * Banked register file with a per-bank request arbiter.
 *
 * One cluster's register file exposes B banks.  Collector units push
 * read requests (one per distinct source register); execution-unit
 * writebacks push write requests.  Each cycle a bank grants one read
 * and one write (the write port rides the execution-unit result bus).
 * The read-queue lengths are exported for the RBA scheduler's scoring
 * logic.
 */

#ifndef SCSIM_CORE_REG_FILE_HH
#define SCSIM_CORE_REG_FILE_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "common/types.hh"

namespace scsim {

class StateReader;
class StateWriter;

/** A pending operand read for collector unit @c cu. */
struct ReadRequest
{
    int cu = -1;
    std::uint32_t operandMask = 0;   //!< operand slots this read fills
};

/** A pending result write for warp @c warp, register @c reg. */
struct WriteRequest
{
    WarpSlot warp = kNoWarp;
    RegIndex reg = kNoReg;
};

/** Output of one arbitration cycle. */
struct ArbGrants
{
    std::vector<ReadRequest> reads;
    std::vector<WriteRequest> writes;
    int conflictCycles = 0;     //!< banks left with waiting readers
    void
    clear()
    {
        reads.clear();
        writes.clear();
        conflictCycles = 0;
    }
};

class RegFileArbiter
{
  public:
    explicit RegFileArbiter(int numBanks);

    int numBanks() const { return numBanks_; }

    /** Compiler/hardware swizzle: operand @p reg of warp slot @p w.
     *  The slot is spread by an odd multiplier so adjacent slots do
     *  not alias their hot registers onto neighbouring banks (mod 2 it
     *  reduces to the plain parity swizzle of the 2-bank sub-core). */
    int
    bankOf(RegIndex reg, WarpSlot w) const
    {
        return static_cast<int>(
            (static_cast<unsigned>(reg) + 7u * static_cast<unsigned>(w))
            % static_cast<unsigned>(numBanks_));
    }

    void pushRead(int bank, ReadRequest req);
    void pushWrite(int bank, WriteRequest req);

    /**
     * Grant at most one read and one write per bank, appending grants
     * to @p out.
     */
    void arbitrate(ArbGrants &out);

    /** Current read-queue length of @p bank (ground truth, no delay). */
    int
    readQueueLen(int bank) const
    {
        return static_cast<int>(
            readQ_[static_cast<std::size_t>(bank)].size());
    }

    bool anyPending() const { return pendingOps_ != 0; }

    /** Banks whose read queue is currently empty (bank stealing). */
    bool
    readIdle(int bank) const
    {
        return readQ_[static_cast<std::size_t>(bank)].empty();
    }

    void reset();

    /** Checkpointing: per-bank queues in FIFO order. */
    void saveState(StateWriter &w) const;
    /** Refuses (CacheError) a queued read for a CU outside
     *  [0, @p numCus) or a write for a warp outside [0, @p maxWarps). */
    void loadState(StateReader &r, int numCus, int maxWarps);

  private:
    int numBanks_;
    std::vector<std::deque<ReadRequest>> readQ_;
    std::vector<std::deque<WriteRequest>> writeQ_;
    std::uint64_t pendingOps_ = 0;
};

} // namespace scsim

#endif // SCSIM_CORE_REG_FILE_HH
