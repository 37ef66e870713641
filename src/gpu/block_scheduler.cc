#include "gpu/block_scheduler.hh"

#include "common/logging.hh"
#include "common/state_io.hh"
#include "trace/kernel.hh"

namespace scsim {

void
BlockScheduler::launch(const KernelDesc &kernel)
{
    queues_.push_back(KernelQueue{ &kernel, 0 });
}

bool
BlockScheduler::pending() const
{
    for (const auto &q : queues_)
        if (q.nextBlock < q.kernel->numBlocks)
            return true;
    return false;
}

void
BlockScheduler::dispatch(Cycle now)
{
    if (!pending())
        return;
    std::size_t nSms = sms_.size();
    std::size_t nKernels = queues_.size();
    for (std::size_t i = 0; i < nSms; ++i) {
        SmCore &sm = *sms_[(rrSm_ + i) % nSms];
        // One block per SM per cycle, kernels tried round-robin.
        for (std::size_t k = 0; k < nKernels; ++k) {
            KernelQueue &q = queues_[(rrKernel_ + k) % nKernels];
            if (q.nextBlock >= q.kernel->numBlocks)
                continue;
            if (sm.canAccept(*q.kernel)) {
                sm.acceptBlock(*q.kernel, q.nextBlock++, now);
                rrKernel_ = (rrKernel_ + k + 1) % nKernels;
                break;
            }
        }
    }
    rrSm_ = (rrSm_ + 1) % nSms;
}

bool
BlockScheduler::anyCanAccept() const
{
    for (const auto &q : queues_) {
        if (q.nextBlock >= q.kernel->numBlocks)
            continue;
        for (const auto &sm : sms_)
            if (sm->canAccept(*q.kernel))
                return true;
    }
    return false;
}

void
BlockScheduler::reset()
{
    queues_.clear();
    rrSm_ = 0;
    rrKernel_ = 0;
}

template <class Self, class V>
void
BlockScheduler::visitState(Self &self, V &v, const Application &app)
{
    v.list("bs.queues", self.queues_, [&](auto &q) {
        v.element("bs.kernel", q.kernel, app.kernels, false);
        v.field("bs.nextBlock", q.nextBlock,
                inRange(0, q.kernel->numBlocks));
    });
    v.field("bs.rrSm", self.rrSm_);
    v.field("bs.rrKernel", self.rrKernel_);
}

template void BlockScheduler::visitState(const BlockScheduler &,
                                         StateWriter &, const Application &);
template void BlockScheduler::visitState(BlockScheduler &, StateReader &,
                                         const Application &);

} // namespace scsim
