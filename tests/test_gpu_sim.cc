/** @file End-to-end GpuSim integration tests and cross-cutting
 *  properties (determinism, idle-skip equivalence). */

#include <gtest/gtest.h>

#include "expect_throw.hh"
#include "gpu/gpu_sim.hh"
#include "sim/engine.hh"
#include "workloads/microbench.hh"
#include "workloads/suite.hh"

namespace scsim {
namespace {

GpuConfig
smallVolta(int sms = 2)
{
    GpuConfig cfg = GpuConfig::volta();
    cfg.numSms = sms;
    return cfg;
}

TEST(GpuSim, CompletesAllBlocksAcrossSms)
{
    GpuConfig cfg = smallVolta(4);
    KernelDesc k = makeFmaMicro(FmaLayout::Baseline, 64, 40);
    SimStats s = simulate(cfg, k);
    EXPECT_EQ(s.blocksCompleted, 40u);
    EXPECT_EQ(s.warpsCompleted, 40u * 8u);
    EXPECT_EQ(s.instructions, 40u * 8u * 66u);
    EXPECT_GT(s.ipc(), 0.0);
}

TEST(GpuSim, MultiKernelAppRunsSequentially)
{
    GpuConfig cfg = smallVolta(2);
    Application app;
    app.name = "two-kernels";
    app.kernels.push_back(makeFmaMicro(FmaLayout::Baseline, 32, 4));
    app.kernels.push_back(makeFmaMicro(FmaLayout::Balanced, 32, 4));
    SimStats s = simulate(cfg, app);
    EXPECT_EQ(s.blocksCompleted, 8u);

    Cycle lone = simulate(cfg, app.kernels[0]).cycles;
    EXPECT_GT(s.cycles, lone);
}

TEST(GpuSim, DeterministicAcrossRuns)
{
    GpuConfig cfg = smallVolta(2);
    cfg.assign = AssignPolicy::Shuffle;
    Application app = buildApp(findApp("tpcU-q5", 0.1));
    SimStats a = simulate(cfg, app);
    SimStats b = simulate(cfg, app);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.rfReads, b.rfReads);
    EXPECT_EQ(a.issuePerScheduler, b.issuePerScheduler);
}

TEST(GpuSim, SeedChangesShuffleOutcome)
{
    GpuConfig cfg = smallVolta(1);
    cfg.assign = AssignPolicy::Shuffle;
    KernelDesc k = makeImbalanceMicro(8.0, 128, 6);
    Cycle a = simulate(cfg, k).cycles;
    cfg.seed = 999;
    Cycle b = simulate(cfg, k).cycles;
    EXPECT_NE(a, b);
}

/**
 * Idle skipping (the global skip plus per-cluster sleep, both behind
 * enableIdleSkip) must be exact.  Sleep is checked on every stat:
 * @p pinned is the fingerprint this run had before clusters could
 * sleep.  The bit-level run (skip off) must match every stat too,
 * except the scheduler observations of globally skipped cycles, which
 * the skip never accrued: in each such cycle every scheduler of every
 * SM is frozen and would record one scheduler-cycle and (outside the
 * shared pool) one stall.
 */
void
expectSkipExact(GpuConfig cfg, const Application &app,
                const std::string &pinned)
{
    cfg.enableIdleSkip = true;
    SimStats skip = simulate(cfg, app);
    EXPECT_EQ(sim::statsFingerprintHex(skip), pinned);

    cfg.enableIdleSkip = false;
    SimStats bit = simulate(cfg, app);
    std::uint64_t skipped = bit.schedCycles - skip.schedCycles;
    EXPECT_EQ(skipped % static_cast<std::uint64_t>(
                            cfg.numSms * cfg.schedulersPerSm),
              0u);
    EXPECT_EQ(bit.stallNoWarp + bit.stallScoreboard,
              skip.stallNoWarp + skip.stallScoreboard
                  + (cfg.sharedWarpPool ? 0 : skipped));
    bit.schedCycles = skip.schedCycles;
    bit.stallNoWarp = skip.stallNoWarp;
    bit.stallScoreboard = skip.stallScoreboard;
    EXPECT_EQ(sim::statsFingerprintHex(bit), pinned);
}

class IdleSkipEquivalence
    : public ::testing::TestWithParam<SchedulerPolicy>
{};

TEST_P(IdleSkipEquivalence, SameResultWithAndWithoutSkip)
{
    GpuConfig cfg = smallVolta(2);
    cfg.scheduler = GetParam();
    const char *pinned[] = { "d3db76c3d6c8042f", "e1799f847e7f5229",
                             "4b5c72f4fcb8f146" };   // LRR, GTO, RBA
    expectSkipExact(cfg, buildApp(findApp("rod-nn", 0.08)),
                    pinned[static_cast<int>(GetParam())]);
}

INSTANTIATE_TEST_SUITE_P(Schedulers, IdleSkipEquivalence,
                         ::testing::Values(SchedulerPolicy::LRR,
                                           SchedulerPolicy::GTO,
                                           SchedulerPolicy::RBA));

/** The same check on a low-IPC app, where most clusters sleep most of
 *  the time, and on the configs the golden matrix never exercises. */
struct SkipCase
{
    const char *name;
    GpuConfig cfg;
    const char *pinned;
};

void
PrintTo(const SkipCase &c, std::ostream *os)
{
    *os << c.name;
}

class IdleSkipCases : public ::testing::TestWithParam<SkipCase>
{};

TEST_P(IdleSkipCases, ExactWithAndWithoutSkip)
{
    expectSkipExact(GetParam().cfg, buildApp(findApp("tpcC-q2", 0.05)),
                    GetParam().pinned);
}

GpuConfig
withFlag(GpuConfig cfg, bool GpuConfig::*flag)
{
    cfg.*flag = true;
    return cfg;
}

INSTANTIATE_TEST_SUITE_P(
    Configs, IdleSkipCases,
    ::testing::Values(
        SkipCase{ "Baseline", smallVolta(2), "25e3a6b37259e2db" },
        SkipCase{ "IdealWarpMigration",
                  withFlag(smallVolta(2), &GpuConfig::idealWarpMigration),
                  "1e81580176489027" },
        SkipCase{ "KeplerSharedWarpPool",
                  [] {
                      GpuConfig cfg = GpuConfig::keplerLike();
                      cfg.numSms = 2;
                      return cfg;
                  }(),
                  "19edb3a6f5cf68f5" },
        SkipCase{ "BankStealing",
                  withFlag(smallVolta(2), &GpuConfig::bankStealing),
                  "af933277c96d66f5" },
        // LRR picks by position in the candidate list, so these two
        // pin the candidate order: the shared pool's concatenation of
        // tables under dual issue, and the lists the migration oracle
        // rewrites.
        SkipCase{ "KeplerSharedWarpPoolLRR",
                  [] {
                      GpuConfig cfg = GpuConfig::keplerLike();
                      cfg.numSms = 2;
                      cfg.scheduler = SchedulerPolicy::LRR;
                      return cfg;
                  }(),
                  "22c6f76834a71e02" },
        SkipCase{ "IdealWarpMigrationLRR",
                  [] {
                      GpuConfig cfg = withFlag(
                          smallVolta(2), &GpuConfig::idealWarpMigration);
                      cfg.scheduler = SchedulerPolicy::LRR;
                      return cfg;
                  }(),
                  "59f337a9f3495311" }),
    [](const ::testing::TestParamInfo<SkipCase> &info) {
        return std::string(info.param.name);
    });

TEST(GpuSim, ClusterSleepKeepsStaleRbaViewExact)
{
    // Sleeping ticks write the empty queue snapshots a full cycle
    // would.  (The global skip instead collapses the whole history, so
    // with stale scores it can shift timing; only sleep is pinned.)
    GpuConfig cfg = smallVolta(2);
    cfg.scheduler = SchedulerPolicy::RBA;
    cfg.rbaScoreLatency = 8;
    SimStats s = simulate(cfg, buildApp(findApp("tpcC-q2", 0.05)));
    EXPECT_EQ(sim::statsFingerprintHex(s), "bebc2fc475432dcf");
}

TEST(GpuSim, RbaLatencyZeroMatchesRingDepthOne)
{
    GpuConfig cfg = smallVolta(1);
    cfg.scheduler = SchedulerPolicy::RBA;
    KernelDesc k = makeConflictMicro(0, 512, 8);
    cfg.rbaScoreLatency = 0;
    Cycle c0 = simulate(cfg, k).cycles;
    EXPECT_GT(c0, 0u);
    // Large staleness still runs to completion and stays close.
    cfg.rbaScoreLatency = 20;
    Cycle c20 = simulate(cfg, k).cycles;
    EXPECT_GT(c20, 0u);
    EXPECT_LT(static_cast<double>(c20) / static_cast<double>(c0), 1.25);
}

TEST(GpuSim, MoreSmsRunFaster)
{
    KernelDesc k = makeFmaMicro(FmaLayout::Baseline, 128, 32);
    Cycle one = simulate(smallVolta(1), k).cycles;
    Cycle four = simulate(smallVolta(4), k).cycles;
    EXPECT_LT(four, one);
    EXPECT_GT(four, one / 8);
}

TEST(GpuSim, FullyConnectedNeverSlowerOnImbalance)
{
    KernelDesc k = makeFmaMicro(FmaLayout::Unbalanced, 512, 8);
    Cycle part = simulate(smallVolta(1), k).cycles;
    GpuConfig fc = smallVolta(1);
    fc.subCores = 1;
    Cycle full = simulate(fc, k).cycles;
    EXPECT_LT(full, part);
}

TEST(GpuSim, AllAssignPoliciesRunEveryWorkload)
{
    KernelDesc k = makeImbalanceMicro(4.0, 64, 8);
    for (AssignPolicy p : { AssignPolicy::RoundRobin, AssignPolicy::SRR,
                            AssignPolicy::Shuffle, AssignPolicy::HashSRR,
                            AssignPolicy::HashShuffle }) {
        GpuConfig cfg = smallVolta(1);
        cfg.assign = p;
        SimStats s = simulate(cfg, k);
        EXPECT_EQ(s.blocksCompleted, 8u) << toString(p);
    }
}

TEST(GpuSim, HashSrrMatchesFunctionalSrrExactly)
{
    KernelDesc k = makeImbalanceMicro(6.0, 128, 10);
    GpuConfig a = smallVolta(1);
    a.assign = AssignPolicy::SRR;
    GpuConfig b = smallVolta(1);
    b.assign = AssignPolicy::HashSRR;
    EXPECT_EQ(simulate(a, k).cycles, simulate(b, k).cycles);
}

TEST(GpuSim, BankStealingRunsAndStaysClose)
{
    GpuConfig cfg = smallVolta(1);
    KernelDesc k = makeConflictMicro(1, 512, 8);
    Cycle base = simulate(cfg, k).cycles;
    cfg.bankStealing = true;
    Cycle steal = simulate(cfg, k).cycles;
    double ratio = static_cast<double>(steal)
        / static_cast<double>(base);
    // Paper: <1% average effect with only 2 CUs per sub-core.
    EXPECT_GT(ratio, 0.9);
    EXPECT_LT(ratio, 1.1);
}

TEST(GpuSim, RfTraceCollectsSamples)
{
    GpuConfig cfg = smallVolta(1);
    cfg.rfTraceEnable = true;
    cfg.rfTraceWindow = 32;
    KernelDesc k = makeConflictMicro(1, 256, 4);
    SimStats s = simulate(cfg, k);
    EXPECT_GT(s.rfReadTrace.samples().size(), 2u);
    EXPECT_GT(s.rfReadTrace.average(), 0.0);
    // Peak bandwidth is 8 banks x 32 lanes.
    for (double x : s.rfReadTrace.samples())
        EXPECT_LE(x, 256.0);
}

TEST(GpuSim, StatsAccountingConsistency)
{
    GpuConfig cfg = smallVolta(2);
    Application app = buildApp(findApp("ply-atax", 0.08));
    SimStats s = simulate(cfg, app);
    EXPECT_EQ(s.threadInstructions, s.instructions * 32u);
    EXPECT_GE(s.l1Accesses, s.l1Misses);
    EXPECT_GE(s.l2Accesses, s.l2Misses);
    EXPECT_EQ(s.issueSlotsUsed, s.instructions);
    std::uint64_t perSchedTotal = 0;
    for (const auto &sm : s.issuePerScheduler)
        for (std::uint64_t n : sm)
            perSchedTotal += n;
    EXPECT_EQ(perSchedTotal, s.instructions);
}

TEST(GpuSimThrow, MaxCyclesThrowsHangError)
{
    GpuConfig cfg = smallVolta(1);
    cfg.maxCycles = 100;
    KernelDesc k = makeFmaMicro(FmaLayout::Baseline, 4096, 8);
    EXPECT_THROW_WITH(simulate(cfg, k), HangError,
                      "exceeded maxCycles");
}

TEST(GpuSimThrow, OversizedBlockThrows)
{
    GpuConfig cfg = smallVolta(1);
    KernelDesc k = makeFmaMicro(FmaLayout::Baseline, 16, 1);
    k.regsPerThread = 256;
    k.warpsPerBlock = 16;
    k.shapeOfWarp.assign(16, 0);
    EXPECT_THROW_WITH(simulate(cfg, k), WorkloadError, "reg bytes");
}

} // namespace
} // namespace scsim
