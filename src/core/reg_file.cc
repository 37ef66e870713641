#include "core/reg_file.hh"

#include "common/logging.hh"
#include "common/state_io.hh"

namespace scsim {

RegFileArbiter::RegFileArbiter(int numBanks)
    : numBanks_(numBanks),
      readQ_(static_cast<std::size_t>(numBanks)),
      writeQ_(static_cast<std::size_t>(numBanks))
{
    scsim_assert(numBanks > 0, "register file needs at least one bank");
}

void
RegFileArbiter::pushRead(int bank, ReadRequest req)
{
    readQ_[static_cast<std::size_t>(bank)].push_back(req);
    ++pendingOps_;
}

void
RegFileArbiter::pushWrite(int bank, WriteRequest req)
{
    writeQ_[static_cast<std::size_t>(bank)].push_back(req);
    ++pendingOps_;
}

std::uint64_t
RegFileArbiter::queuedOps() const
{
    std::uint64_t n = 0;
    for (const auto &q : readQ_)
        n += q.size();
    for (const auto &q : writeQ_)
        n += q.size();
    return n;
}

void
RegFileArbiter::reset()
{
    for (auto &q : readQ_)
        q.clear();
    for (auto &q : writeQ_)
        q.clear();
    pendingOps_ = 0;
}

template <class Self, class V>
void
RegFileArbiter::visitState(Self &self, V &v, int numCus, int maxWarps)
{
    for (auto &q : self.readQ_)
        v.list("rf.readq", q, [&](auto &req) {
            v.field("rf.read.cu", req.cu, below(numCus));
            // A read fills one to three operand slots; an empty mask
            // would never ready its CU.
            v.field("rf.read.mask", req.operandMask,
                    inRange(1, 0b111, "operand mask"));
        });
    for (auto &q : self.writeQ_)
        v.list("rf.writeq", q, [&](auto &req) {
            v.field("rf.write.warp", req.warp, below(maxWarps));
            // The granted write retires in the warp's scoreboard.
            v.field("rf.write.reg", req.reg, below(kMaxRegs));
        });
    v.field("rf.pendingOps", self.pendingOps_);
    // The counter is redundant with the queues; a value that disagrees
    // would make anyPending() lie and wrap on the first grant.
    if constexpr (V::kReads)
        if (self.pendingOps_ != self.queuedOps())
            scsim_throw(CacheError,
                        "snapshot: rf.pendingOps %llu but %llu requests "
                        "queued",
                        static_cast<unsigned long long>(self.pendingOps_),
                        static_cast<unsigned long long>(self.queuedOps()));
}

template void RegFileArbiter::visitState(const RegFileArbiter &,
                                         StateWriter &, int, int);
template void RegFileArbiter::visitState(RegFileArbiter &, StateReader &,
                                         int, int);

} // namespace scsim
