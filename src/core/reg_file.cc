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

void
RegFileArbiter::saveState(StateWriter &w) const
{
    for (const auto &q : readQ_) {
        w.u64("rf.readq", q.size());
        for (std::size_t i = 0; i < q.size(); ++i) {
            w.i64("rf.read.cu", q[i].cu);
            w.u64("rf.read.mask", q[i].operandMask);
        }
    }
    for (const auto &q : writeQ_) {
        w.u64("rf.writeq", q.size());
        for (std::size_t i = 0; i < q.size(); ++i) {
            w.i64("rf.write.warp", q[i].warp);
            w.i64("rf.write.reg", q[i].reg);
        }
    }
    w.u64("rf.pendingOps", pendingOps_);
}

void
RegFileArbiter::loadState(StateReader &r, int numCus, int maxWarps)
{
    for (auto &q : readQ_) {
        q.clear();
        std::uint64_t n = r.u64("rf.readq");
        for (std::uint64_t i = 0; i < n; ++i) {
            ReadRequest req;
            std::int64_t cu = r.i64("rf.read.cu");
            if (cu < 0 || cu >= numCus)
                scsim_throw(CacheError,
                            "snapshot: register read for collector unit "
                            "%lld out of range",
                            static_cast<long long>(cu));
            req.cu = static_cast<int>(cu);
            // A read fills one to three operand slots; an empty mask
            // would never ready its CU.
            std::uint64_t mask = r.u64("rf.read.mask");
            if (mask == 0 || mask > 0b111)
                scsim_throw(CacheError,
                            "snapshot: register read operand mask %llu "
                            "out of range",
                            static_cast<unsigned long long>(mask));
            req.operandMask = static_cast<std::uint32_t>(mask);
            q.push_back(req);
        }
    }
    for (auto &q : writeQ_) {
        q.clear();
        std::uint64_t n = r.u64("rf.writeq");
        for (std::uint64_t i = 0; i < n; ++i) {
            WriteRequest req;
            std::int64_t warp = r.i64("rf.write.warp");
            if (warp < 0 || warp >= maxWarps)
                scsim_throw(CacheError,
                            "snapshot: register write for warp %lld out "
                            "of range",
                            static_cast<long long>(warp));
            req.warp = static_cast<WarpSlot>(warp);
            req.reg = static_cast<RegIndex>(r.i64("rf.write.reg"));
            q.push_back(req);
        }
    }
    // The counter is redundant with the queues; a value that disagrees
    // would make anyPending() lie and wrap on the first grant.
    pendingOps_ = r.u64("rf.pendingOps");
    if (pendingOps_ != queuedOps())
        scsim_throw(CacheError,
                    "snapshot: rf.pendingOps %llu but %llu requests queued",
                    static_cast<unsigned long long>(pendingOps_),
                    static_cast<unsigned long long>(queuedOps()));
}

} // namespace scsim
