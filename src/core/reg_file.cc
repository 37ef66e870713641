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

void
RegFileArbiter::arbitrate(ArbGrants &out)
{
    for (int b = 0; b < numBanks_; ++b) {
        auto &wq = writeQ_[static_cast<std::size_t>(b)];
        auto &rq = readQ_[static_cast<std::size_t>(b)];
        // Each bank sustains one read and one write per cycle
        // (separate result-bus write port, as in the V100 model).
        if (!wq.empty()) {
            out.writes.push_back(wq.front());
            wq.pop_front();
            --pendingOps_;
        }
        if (!rq.empty()) {
            out.reads.push_back(rq.front());
            rq.pop_front();
            --pendingOps_;
        }
        // A reader still waiting after this bank's single read grant
        // is a bank-conflict cycle (throughput lost to banking).
        if (!rq.empty())
            ++out.conflictCycles;
    }
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
        for (const ReadRequest &req : q) {
            w.i64("rf.read.cu", req.cu);
            w.u64("rf.read.mask", req.operandMask);
        }
    }
    for (const auto &q : writeQ_) {
        w.u64("rf.writeq", q.size());
        for (const WriteRequest &req : q) {
            w.i64("rf.write.warp", req.warp);
            w.i64("rf.write.reg", req.reg);
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
            req.operandMask =
                static_cast<std::uint32_t>(r.u64("rf.read.mask"));
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
    pendingOps_ = r.u64("rf.pendingOps");
}

} // namespace scsim
