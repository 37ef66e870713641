/**
 * @file
 * Warp issue schedulers (Section IV-A).
 *
 * The scheduler picks one warp per cycle among the ready candidates of
 * its scheduler table.  Three policies:
 *
 *  - LRR: loose round robin.
 *  - GTO: greedy-then-oldest (paper baseline) — stay on the last
 *    issued warp while it remains ready, else the oldest ready warp.
 *  - RBA: register-bank-aware — order by the concatenated key
 *    {RBA score, complement(age)} and pick the minimum, i.e. lowest
 *    bank-contention score with age (oldest-first) breaking ties.
 *    The score of an instruction is the sum over its source operands
 *    of the (possibly stale) read-queue length of each operand's bank,
 *    clamped to 5 bits exactly as the hardware table stores it.
 */

#ifndef SCSIM_CORE_SCHEDULER_HH
#define SCSIM_CORE_SCHEDULER_HH

#include <memory>
#include <vector>

#include "config/gpu_config.hh"
#include "core/warp.hh"

namespace scsim {

class StateReader;
class StateWriter;

/** Everything a policy may inspect when picking. */
struct PickContext
{
    Cycle now = 0;
    /** SM warp table, indexed by WarpSlot. */
    const WarpContext *warps = nullptr;
    /** Read-queue length per bank (staleness already applied). */
    const int *bankQueueLen = nullptr;
    int numBanks = 0;
};

class WarpScheduler
{
  public:
    virtual ~WarpScheduler() = default;

    /**
     * Choose a warp among @p ready (never empty); returns its slot.
     */
    virtual WarpSlot pick(const std::vector<WarpSlot> &ready,
                          const PickContext &ctx) = 0;

    /**
     * Can pickMask() stand in for pick()?  Only when the choice does
     * not depend on candidate order: ages are unique within one
     * scheduler table, so GTO's and RBA's minimum-key choices are
     * order-free there, while LRR's first-after-last follows list
     * order (and ages repeat across the shared pool's tables).
     */
    virtual bool picksFromMask() const { return false; }

    /** pick() over the slots set in @p cand, all from one scheduler
     *  table; called only when picksFromMask(). */
    virtual WarpSlot pickMask(std::uint64_t cand, const PickContext &ctx);

    /** Does pick() read PickContext::bankQueueLen?  Only then does the
     *  issue cluster snapshot its bank queues each cycle; for other
     *  policies its queue ring stays zero. */
    virtual bool readsBankQueues() const { return false; }

    /** Feedback after the chosen warp actually issued. */
    virtual void notifyIssued(WarpSlot, Cycle) {}

    virtual void reset() {}

    /** Checkpointing (common/state_io.hh); stateless policies keep
     *  the empty default. */
    virtual void visitState(StateWriter &) const {}
    virtual void visitState(StateReader &) {}
};

/** 5-bit clamped RBA score of @p inst for warp @p slot (eq. in IV-A). */
int rbaScore(const Instruction &inst, WarpSlot slot,
             const int *bankQueueLen, int numBanks);

class LrrScheduler : public WarpScheduler
{
  public:
    WarpSlot pick(const std::vector<WarpSlot> &ready,
                  const PickContext &ctx) override;
    void notifyIssued(WarpSlot slot, Cycle now) override;
    void reset() override { lastIssued_ = kNoWarp; }
    void visitState(StateWriter &w) const override { visit(*this, w); }
    void visitState(StateReader &r) override { visit(*this, r); }

  private:
    template <class Self, class V> static void visit(Self &self, V &v);

    WarpSlot lastIssued_ = kNoWarp;
};

class GtoScheduler : public WarpScheduler
{
  public:
    WarpSlot pick(const std::vector<WarpSlot> &ready,
                  const PickContext &ctx) override;
    bool picksFromMask() const override { return true; }
    WarpSlot pickMask(std::uint64_t cand, const PickContext &ctx) override;
    void notifyIssued(WarpSlot slot, Cycle now) override;
    void reset() override { greedyWarp_ = kNoWarp; }
    void visitState(StateWriter &w) const override { visit(*this, w); }
    void visitState(StateReader &r) override { visit(*this, r); }

  private:
    template <class Self, class V> static void visit(Self &self, V &v);

    WarpSlot greedyWarp_ = kNoWarp;
};

class RbaScheduler : public WarpScheduler
{
  public:
    WarpSlot pick(const std::vector<WarpSlot> &ready,
                  const PickContext &ctx) override;
    bool picksFromMask() const override { return true; }
    WarpSlot pickMask(std::uint64_t cand, const PickContext &ctx) override;
    bool readsBankQueues() const override { return true; }
};

/** Instantiate @p cfg's scheduler policy (a switch on the enum, so a
 *  policy added to SchedulerPolicy without a case fails -Wswitch). */
std::unique_ptr<WarpScheduler> makeScheduler(const GpuConfig &cfg);
std::unique_ptr<WarpScheduler> makeScheduler(SchedulerPolicy policy);

} // namespace scsim

#endif // SCSIM_CORE_SCHEDULER_HH
