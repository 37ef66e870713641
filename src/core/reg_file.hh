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
#include <vector>

#include "common/types.hh"

namespace scsim {

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

/**
 * A FIFO queue over a power-of-two ring that doubles when full.  Bank
 * queues are short and live for the whole run, so after warm-up a push
 * or pop is an index update and a mask, with no allocation.
 */
template <typename T>
class FifoRing
{
  public:
    using value_type = T;

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    /** Element @p i counted from the front (0 is the oldest). */
    const T &
    operator[](std::size_t i) const
    {
        return buf_[(head_ + i) & (buf_.size() - 1)];
    }

    const T &front() const { return buf_[head_]; }

    void
    push_back(const T &v)
    {
        if (size_ == buf_.size())
            grow();
        buf_[(head_ + size_) & (buf_.size() - 1)] = v;
        ++size_;
    }

    void
    pop_front()
    {
        head_ = (head_ + 1) & (buf_.size() - 1);
        --size_;
    }

    void
    clear()
    {
        head_ = 0;
        size_ = 0;
    }

  private:
    /** Double the ring, unwrapping the queue to start at index 0. */
    void
    grow()
    {
        std::vector<T> bigger(buf_.empty() ? 4 : 2 * buf_.size());
        for (std::size_t i = 0; i < size_; ++i)
            bigger[i] = (*this)[i];
        buf_.swap(bigger);
        head_ = 0;
    }

    std::vector<T> buf_;   //!< size 0 or a power of two
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

/** Grant counts of one arbitration cycle. */
struct ArbTally
{
    int reads = 0;
    int writes = 0;
    int conflictCycles = 0;     //!< banks left with waiting readers
};

/** Bank of operand @p reg of warp slot @p w among @p numBanks banks.
 *  The compiler/hardware swizzle spreads the slot by an odd multiplier
 *  so adjacent slots do not alias their hot registers onto
 *  neighbouring banks (mod 2 it reduces to the plain parity swizzle of
 *  the 2-bank sub-core).  Power-of-two bank counts mask instead of
 *  dividing. */
inline int
swizzleBank(RegIndex reg, WarpSlot w, int numBanks)
{
    unsigned x = static_cast<unsigned>(reg) + 7u * static_cast<unsigned>(w);
    auto n = static_cast<unsigned>(numBanks);
    return static_cast<int>((n & (n - 1)) == 0 ? x & (n - 1) : x % n);
}

class RegFileArbiter
{
  public:
    explicit RegFileArbiter(int numBanks);

    int numBanks() const { return numBanks_; }

    /** Bank of operand @p reg of warp slot @p w (swizzleBank). */
    int
    bankOf(RegIndex reg, WarpSlot w) const
    {
        return swizzleBank(reg, w, numBanks_);
    }

    void pushRead(int bank, ReadRequest req);
    void pushWrite(int bank, WriteRequest req);

    /**
     * Grant at most one read and one write per bank and hand each grant
     * straight to its consumer: @p onRead(const ReadRequest &) for every
     * read grant in bank order, then @p onWrite(const WriteRequest &)
     * for every write grant in bank order.  The consumers must not
     * push requests.
     */
    template <typename OnRead, typename OnWrite>
    ArbTally
    arbitrate(OnRead &&onRead, OnWrite &&onWrite)
    {
        ArbTally t;
        for (auto &rq : readQ_) {
            if (rq.empty())
                continue;
            onRead(rq.front());
            rq.pop_front();
            ++t.reads;
            // A reader still waiting after this bank's single read
            // grant is a bank-conflict cycle (throughput lost to
            // banking).
            if (!rq.empty())
                ++t.conflictCycles;
        }
        // Each bank sustains one read and one write per cycle
        // (separate result-bus write port, as in the V100 model).
        for (auto &wq : writeQ_) {
            if (wq.empty())
                continue;
            onWrite(wq.front());
            wq.pop_front();
            ++t.writes;
        }
        pendingOps_ -= static_cast<std::uint64_t>(t.reads + t.writes);
        return t;
    }

    /** Current read-queue length of @p bank (ground truth, no delay). */
    int
    readQueueLen(int bank) const
    {
        return static_cast<int>(
            readQ_[static_cast<std::size_t>(bank)].size());
    }

    /** Bank @p bank's queued reads and writes, oldest first. */
    const FifoRing<ReadRequest> &
    readQueue(int bank) const
    {
        return readQ_[static_cast<std::size_t>(bank)];
    }
    const FifoRing<WriteRequest> &
    writeQueue(int bank) const
    {
        return writeQ_[static_cast<std::size_t>(bank)];
    }

    bool anyPending() const { return pendingOps_ != 0; }
    /** Queued reads and writes over all banks (kept as a counter). */
    std::uint64_t pendingOps() const { return pendingOps_; }
    /** The same count, summed over the queues. */
    std::uint64_t queuedOps() const;

    /** Banks whose read queue is currently empty (bank stealing). */
    bool
    readIdle(int bank) const
    {
        return readQ_[static_cast<std::size_t>(bank)].empty();
    }

    void reset();

    /** Checkpointing (common/state_io.hh): per-bank queues in FIFO
     *  order.  A load refuses (CacheError) a queued read for a CU
     *  outside [0, @p numCus) or with an operand mask that is empty or
     *  names a slot past the third, a write for a warp outside [0,
     *  @p maxWarps) or a register past kMaxRegs, and an rf.pendingOps
     *  that is not the number of queued requests. */
    template <class Self, class V>
    static void visitState(Self &self, V &v, int numCus, int maxWarps);

  private:
    int numBanks_;
    std::vector<FifoRing<ReadRequest>> readQ_;
    std::vector<FifoRing<WriteRequest>> writeQ_;
    std::uint64_t pendingOps_ = 0;
};

} // namespace scsim

#endif // SCSIM_CORE_REG_FILE_HH
