#include "gpu/gpu_sim.hh"

#include <algorithm>
#include <utility>

#include "common/fault_inject.hh"
#include "common/logging.hh"
#include "common/state_io.hh"
#include "core/issue_cluster.hh"
#include "core/operand_collector.hh"
#include "core/warp.hh"
#include "stats/stats_io.hh"

namespace scsim {

GpuSim::GpuSim(const GpuConfig &cfg)
    : cfg_(cfg), mem_(cfg_), blockSched_(sms_)
{
    cfg_.validate();
    stats_.issuePerScheduler.assign(
        static_cast<std::size_t>(cfg_.numSms),
        std::vector<std::uint64_t>(
            static_cast<std::size_t>(cfg_.schedulersPerSm), 0));
    stats_.rfReadTrace = TimeSeries(cfg_.rfTraceWindow);
    for (int i = 0; i < cfg_.numSms; ++i)
        sms_.push_back(std::make_unique<SmCore>(cfg_, i, mem_, stats_));
}

void
GpuSim::resetState()
{
    stats_ = SimStats{};
    stats_.issuePerScheduler.assign(
        static_cast<std::size_t>(cfg_.numSms),
        std::vector<std::uint64_t>(
            static_cast<std::size_t>(cfg_.schedulersPerSm), 0));
    stats_.rfReadTrace = TimeSeries(cfg_.rfTraceWindow);
    mem_.reset();
    for (auto &sm : sms_)
        sm->reset();
}

Cycle
GpuSim::simulateKernel(const KernelDesc &kernel, Cycle now)
{
    SmCore::checkKernelFits(cfg_, kernel);
    blockSched_.reset();
    blockSched_.launch(kernel);
    kernelStart_ = now;
    lastProgress_ = now;
    now = runLoop(now, kernel.name.c_str());
    stats_.kernelSpans.emplace_back(kernel.name, now - kernelStart_);
    return now;
}

Cycle
GpuSim::runLoop(Cycle now, const char *what)
{
    auto anySmBusy = [&] {
        for (const auto &sm : sms_)
            if (sm->busy())
                return true;
        return false;
    };

    // Retirement fingerprint for the no-progress watchdog: any issue,
    // writeback, or warp/block completion changes it.  A loop cycling
    // with this frozen is livelocked — the longest legitimate quiet
    // stretch is one memory round-trip, orders of magnitude below the
    // window.
    auto retired = [&] {
        return stats_.instructions + stats_.rfWrites
            + stats_.warpsCompleted + stats_.blocksCompleted;
    };
    // lastProgress_ is a member set by the caller (kernel entry or
    // snapshot restore); the retirement counter is recomputable, so a
    // resume re-derives it here and observes the same watchdog
    // deadline an uninterrupted run would.
    std::uint64_t lastRetired = retired();

    // Test hook: an armed synthetic hang keeps the loop alive after
    // the workload drains, so the watchdog path can be exercised
    // deterministically.
    const bool forcedHang = FaultInjector::instance().hangArmedFor(what);
    // Test hook: an armed crash kills the process with a real signal
    // after the first simulated cycle — mid-kernel, exactly what
    // `sweep --isolate` must contain.
    const int forcedCrash = FaultInjector::instance().crashSignalFor(what);

    while (blockSched_.pending() || anySmBusy() || forcedHang) {
        // Checkpoint at the iteration top, before any state mutation:
        // a resume re-enters this loop at the saved `now` and replays
        // the exact same dispatch/cycle sequence.  saveRunState is
        // const, so installing a sink cannot perturb the simulation.
        if (ckptEvery_ && ckptSink_ && now >= ckptNext_) {
            ckptSink_(saveRunState(now), now);
            ckptNext_ = now + ckptEvery_;
        }
        blockSched_.dispatch(now);
        for (auto &sm : sms_)
            sm->cycle(now);
        if (forcedCrash)
            FaultInjector::raiseNow(forcedCrash);

        Cycle next = now + 1;
        if (cfg_.enableIdleSkip) {
            Cycle wake = kNoCycle;
            for (const auto &sm : sms_)
                wake = std::min(wake, sm->nextWake(now));
            if (blockSched_.anyCanAccept())
                wake = now + 1;
            if (wake != kNoCycle)
                next = std::max(wake, now + 1);
        }
        if (next > now + 1)
            for (auto &sm : sms_)
                sm->onIdleSkip();
        now = next;

        if (cfg_.maxCycles && now >= cfg_.maxCycles)
            throw HangError(
                detail::format(
                    "'%s' exceeded maxCycles (%llu); likely a "
                    "too-large workload for this configuration",
                    what,
                    static_cast<unsigned long long>(cfg_.maxCycles)),
                dumpState(now));

        if (cfg_.hangWindowCycles) {
            if (std::uint64_t r = retired(); r != lastRetired) {
                lastRetired = r;
                lastProgress_ = now;
            } else if (now - lastProgress_ >= cfg_.hangWindowCycles) {
                throw HangError(
                    detail::format(
                        "'%s' hung: no forward progress in %llu "
                        "cycles (cycle %llu)", what,
                        static_cast<unsigned long long>(
                            cfg_.hangWindowCycles),
                        static_cast<unsigned long long>(now)),
                    dumpState(now));
            }
        }
    }
    return now;
}

std::string
GpuSim::dumpState(Cycle now) const
{
    std::string out = detail::format(
        "hang diagnostic at cycle %llu: %d SMs, blocks pending=%s, "
        "active kernels=%d\n",
        static_cast<unsigned long long>(now),
        static_cast<int>(sms_.size()),
        blockSched_.pending() ? "yes" : "no",
        blockSched_.activeKernels());
    for (const auto &smPtr : sms_) {
        const SmCore &sm = *smPtr;
        out += detail::format(
            "  sm %d: blocks=%d residentWarps=%d\n", sm.smId(),
            sm.activeBlocks(), sm.residentWarps());
        const WarpContext *warps = sm.warpTable();
        for (int c = 0; c < sm.numClusters(); ++c) {
            const IssueCluster &cluster = sm.cluster(c);
            for (int s = 0; s < cluster.numSchedulers(); ++s) {
                int schedulable = 0, atBarrier = 0, sbPending = 0;
                for (WarpSlot slot : cluster.warpsOf(s)) {
                    const WarpContext &w =
                        warps[static_cast<std::size_t>(slot)];
                    if (w.schedulable())
                        ++schedulable;
                    if (w.atBarrier)
                        ++atBarrier;
                    sbPending += w.scoreboard.pendingCount();
                }
                out += detail::format(
                    "    sub-core %d sched %d: warps=%d "
                    "schedulable=%d atBarrier=%d "
                    "scoreboardPending=%d\n",
                    c, s, cluster.warpCount(s), schedulable,
                    atBarrier, sbPending);
            }
            const OperandCollector &oc = cluster.collector();
            int busy = 0, ready = 0;
            Cycle oldest = kNoCycle;
            for (int u = 0; u < oc.size(); ++u) {
                const CollectorUnit &cu = oc.unit(u);
                if (!cu.busy)
                    continue;
                ++busy;
                if (cu.ready())
                    ++ready;
                oldest = std::min(oldest, cu.allocCycle);
            }
            out += detail::format(
                "    sub-core %d collector: cus=%d busy=%d ready=%d",
                c, oc.size(), busy, ready);
            if (busy)
                out += detail::format(
                    " oldestAlloc=%llu",
                    static_cast<unsigned long long>(oldest));
            out += '\n';
        }
    }
    return out;
}

void
GpuSim::setCheckpoint(Cycle everyCycles, CheckpointSink sink)
{
    ckptEvery_ = everyCycles;
    ckptSink_ = std::move(sink);
}

SimStats
GpuSim::finishRun(Cycle now)
{
    stats_.cycles = now;
    stats_.rfReadTrace.finalize(now);
    mem_.exportStats(stats_);
    app_ = nullptr;
    return stats_;
}

SimStats
GpuSim::runConcurrent(const Application &app)
{
    app.validate();
    resetState();
    app_ = &app;
    concurrent_ = true;
    kernelIdx_ = 0;
    kernelStart_ = 0;
    lastProgress_ = 0;
    ckptNext_ = ckptEvery_;  // skip the useless cycle-0 snapshot
    blockSched_.reset();
    for (const auto &kernel : app.kernels) {
        SmCore::checkKernelFits(cfg_, kernel);
        blockSched_.launch(kernel);
    }
    Cycle now = runLoop(0, app.name.c_str());
    return finishRun(now);
}

SimStats
GpuSim::run(const Application &app)
{
    app.validate();
    resetState();
    app_ = &app;
    concurrent_ = false;
    ckptNext_ = ckptEvery_;
    Cycle now = 0;
    for (std::size_t i = 0; i < app.kernels.size(); ++i) {
        kernelIdx_ = i;
        now = simulateKernel(app.kernels[i], now);
    }
    return finishRun(now);
}

template <class Self, class V>
void
GpuSim::visitRunState(Self &self, V &v, Cycle &now)
{
    const Application &app = *self.app_;
    v.field("run.concurrent", self.concurrent_);
    v.field("run.kernelIdx", self.kernelIdx_, below(app.kernels.size()));
    v.field("run.kernelStart", self.kernelStart_);
    v.field("run.now", now);
    v.field("run.lastProgress", self.lastProgress_);
    // SimStats rides along as one escaped line of its own wire text;
    // the two trace fields below cover the partially filled trailing
    // window the stats payload (completed samples only) omits.
    std::string stats;
    if constexpr (!V::kReads)
        stats = serializeStatsPayload(self.stats_);
    Cycle traceStart = self.stats_.rfReadTrace.curWindowStart();
    double traceSum = self.stats_.rfReadTrace.curSum();
    v.field("run.stats", stats);
    v.field("run.traceStart", traceStart);
    v.field("run.traceSum", traceSum);
    if constexpr (V::kReads) {
        SimStats restored;
        if (!parseStatsPayload(stats, restored))
            scsim_throw(CacheError, "snapshot: malformed stats payload");
        // Each SM counts issues into its own row, one per scheduler.
        const auto &rows = restored.issuePerScheduler;
        auto fits = [&](const std::vector<std::uint64_t> &row) {
            return row.size()
                == static_cast<std::size_t>(self.cfg_.schedulersPerSm);
        };
        if (rows.size() != static_cast<std::size_t>(self.cfg_.numSms)
            || !std::all_of(rows.begin(), rows.end(), fits))
            scsim_throw(CacheError,
                        "snapshot: issue matrix shape does not match the "
                        "configuration");
        self.stats_ = std::move(restored);
        self.stats_.rfReadTrace.restoreState(
            self.stats_.rfReadTrace.samples(), traceStart, traceSum);
    }
    MemSystem::visitState(self.mem_, v);
    BlockScheduler::visitState(self.blockSched_, v, app);
    for (auto &sm : self.sms_)
        SmCore::visitState(likeSelf<Self>(*sm), v, app, now);
}

std::string
GpuSim::saveRunState(Cycle now) const
{
    scsim_assert(app_ != nullptr,
                 "saveRunState outside a run() / resume()");
    StateWriter w;
    visitRunState(*this, w, now);
    return w.take();
}

SimStats
GpuSim::resume(const Application &app, const std::string &payload)
{
    app.validate();
    resetState();
    app_ = &app;
    Cycle now = 0;
    StateReader r(payload);
    visitRunState(*this, r, now);
    r.expectEnd();

    ckptNext_ = ckptEvery_ ? now + ckptEvery_ : 0;

    if (concurrent_) {
        now = runLoop(now, app.name.c_str());
        return finishRun(now);
    }
    const KernelDesc &current = app.kernels[kernelIdx_];
    now = runLoop(now, current.name.c_str());
    stats_.kernelSpans.emplace_back(current.name, now - kernelStart_);
    for (std::size_t i = kernelIdx_ + 1; i < app.kernels.size(); ++i) {
        kernelIdx_ = i;
        now = simulateKernel(app.kernels[i], now);
    }
    return finishRun(now);
}

SimStats
GpuSim::run(const KernelDesc &kernel)
{
    Application app;
    app.name = kernel.name;
    app.kernels.push_back(kernel);
    return run(app);
}

SimStats
simulate(const GpuConfig &cfg, const Application &app)
{
    GpuSim sim(cfg);
    return sim.run(app);
}

SimStats
simulate(const GpuConfig &cfg, const KernelDesc &kernel)
{
    GpuSim sim(cfg);
    return sim.run(kernel);
}

} // namespace scsim
