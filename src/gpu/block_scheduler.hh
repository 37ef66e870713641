/**
 * @file
 * GPU-level thread block scheduler.
 *
 * Dispatches pending thread blocks to SMs in round-robin order, at
 * most one block per SM per cycle, whenever an SM's resources
 * (warp-slot tables, per-sub-core register space, shared memory,
 * block slots) can hold one more block.  Multiple kernels may be
 * active at once (concurrent-kernel execution); their blocks
 * interleave round-robin across kernels, modeling the register-
 * capacity-diversity effect of Section I (effect #4).
 */

#ifndef SCSIM_GPU_BLOCK_SCHEDULER_HH
#define SCSIM_GPU_BLOCK_SCHEDULER_HH

#include <memory>
#include <vector>

#include "core/sm_core.hh"

namespace scsim {

class BlockScheduler
{
  public:
    explicit BlockScheduler(
        std::vector<std::unique_ptr<SmCore>> &sms)
        : sms_(sms)
    {}

    /** Begin dispatching @p kernel (may be called for several
     *  kernels to run them concurrently). */
    void launch(const KernelDesc &kernel);

    bool pending() const;
    int activeKernels() const { return static_cast<int>(queues_.size()); }

    /** Try to place blocks; at most one per SM per call. */
    void dispatch(Cycle now);

    /** Could any SM take one more block right now? */
    bool anyCanAccept() const;

    void reset();

    /** Checkpointing (common/state_io.hh): kernel queues (as indices
     *  into @p app) and the round-robin cursors. */
    template <class Self, class V>
    static void visitState(Self &self, V &v, const Application &app);

  private:
    struct KernelQueue
    {
        const KernelDesc *kernel = nullptr;
        int nextBlock = 0;
    };

    std::vector<std::unique_ptr<SmCore>> &sms_;
    std::vector<KernelQueue> queues_;
    std::size_t rrSm_ = 0;
    std::size_t rrKernel_ = 0;
};

} // namespace scsim

#endif // SCSIM_GPU_BLOCK_SCHEDULER_HH
