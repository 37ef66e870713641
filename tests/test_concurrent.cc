/** @file Tests for concurrent-kernel execution and the ideal
 *  warp-migration oracle. */

#include <gtest/gtest.h>

#include "gpu/gpu_sim.hh"
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

Application
twoKernelApp(int regsA = 32, int regsB = 32)
{
    Application app;
    app.name = "pair";
    KernelDesc a = makeFmaMicro(FmaLayout::Baseline, 256, 8);
    a.name = std::string("a");
    a.regsPerThread = regsA;
    KernelDesc b = makeFmaMicro(FmaLayout::Baseline, 256, 8);
    b.name = std::string("b");
    b.regsPerThread = regsB;
    app.kernels.push_back(a);
    app.kernels.push_back(b);
    return app;
}

TEST(Concurrent, CompletesAllKernels)
{
    GpuSim sim(smallVolta(2));
    SimStats s = sim.runConcurrent(twoKernelApp());
    EXPECT_EQ(s.blocksCompleted, 16u);
    EXPECT_EQ(s.warpsCompleted, 16u * 8u);
}

TEST(Concurrent, FasterThanSequentialWhenUnderOccupied)
{
    // Two small grids cannot fill the machine alone; overlapping them
    // must help.
    GpuConfig cfg = smallVolta(4);
    Application app = twoKernelApp();
    GpuSim sim(cfg);
    Cycle sequential = sim.run(app).cycles;
    Cycle concurrent = sim.runConcurrent(app).cycles;
    EXPECT_LT(concurrent, sequential);
}

TEST(Concurrent, Deterministic)
{
    GpuConfig cfg = smallVolta(2);
    Application app = twoKernelApp(64, 16);
    GpuSim sim(cfg);
    Cycle a = sim.runConcurrent(app).cycles;
    Cycle b = sim.runConcurrent(app).cycles;
    EXPECT_EQ(a, b);
}

TEST(Concurrent, MixedRegisterDemandsShareTheSm)
{
    // Fat- and thin-register kernels co-resident: the thin kernel's
    // blocks fill capacity the fat one cannot use (effect #4 setting).
    GpuConfig cfg = smallVolta(1);
    Application app = twoKernelApp(128, 16);
    GpuSim sim(cfg);
    SimStats s = sim.runConcurrent(app);
    EXPECT_EQ(s.blocksCompleted, 16u);
}

TEST(Concurrent, SequentialRunStillRecordsKernelSpans)
{
    GpuConfig cfg = smallVolta(2);
    Application app = twoKernelApp();
    GpuSim sim(cfg);
    SimStats s = sim.run(app);
    ASSERT_EQ(s.kernelSpans.size(), 2u);
    EXPECT_EQ(s.kernelSpans[0].first, "a");
    EXPECT_GT(s.kernelSpans[0].second, 0u);
    EXPECT_EQ(s.kernelSpans[0].second + s.kernelSpans[1].second,
              s.cycles);
}

TEST(MigrationOracle, FixesThePathologicalImbalance)
{
    KernelDesc k = makeImbalanceMicro(16.0, 256, 8);
    GpuConfig base = smallVolta(1);
    GpuConfig oracle = base;
    oracle.idealWarpMigration = true;
    Cycle b = simulate(base, k).cycles;
    SimStats o = simulate(oracle, k);
    EXPECT_LT(o.cycles, b);
    EXPECT_GT(o.warpMigrations, 0u);
    // The oracle should recover at least a factor two on this micro.
    EXPECT_GT(static_cast<double>(b) / static_cast<double>(o.cycles),
              2.0);
}

TEST(MigrationOracle, AtLeastAsGoodAsSrrOnItsOwnPattern)
{
    KernelDesc k = makeImbalanceMicro(8.0, 256, 8);
    GpuConfig base = smallVolta(1);
    GpuConfig srr = base;
    srr.assign = AssignPolicy::SRR;
    GpuConfig oracle = base;
    oracle.idealWarpMigration = true;
    Cycle tSrr = simulate(srr, k).cycles;
    Cycle tOracle = simulate(oracle, k).cycles;
    EXPECT_LT(static_cast<double>(tOracle), 1.15
              * static_cast<double>(tSrr));
}

TEST(MigrationOracle, NoMigrationsWhenBalanced)
{
    KernelDesc k = makeFmaMicro(FmaLayout::Baseline, 256, 8);
    GpuConfig oracle = smallVolta(1);
    oracle.idealWarpMigration = true;
    SimStats s = simulate(oracle, k);
    // Balanced work leaves nothing worth stealing (a short drain tail
    // at block boundaries is permitted).
    EXPECT_LT(s.warpMigrations, 64u);
    EXPECT_EQ(s.blocksCompleted, 8u);
}

TEST(MigrationOracle, PreservesCompletionSemantics)
{
    Application app = buildApp(findApp("tpcU-q3", 0.1));
    GpuConfig oracle = smallVolta(2);
    oracle.idealWarpMigration = true;
    SimStats s = simulate(oracle, app);
    std::uint64_t expectedWarps = 0;
    for (const auto &k : app.kernels)
        expectedWarps += static_cast<std::uint64_t>(k.numBlocks)
            * static_cast<std::uint64_t>(k.warpsPerBlock);
    EXPECT_EQ(s.warpsCompleted, expectedWarps);
    EXPECT_EQ(s.instructions,
              app.totalWarpInstructions());
}

TEST(MigrationOracle, RespectsRegisterCapacity)
{
    // Fat warps (8 KB each) exactly fill every sub-core's file; the
    // oracle must never oversubscribe a cluster while migrating.
    KernelDesc k = makeImbalanceMicro(8.0, 256, 8);
    k.regsPerThread = 64;
    GpuConfig oracle = smallVolta(1);
    oracle.idealWarpMigration = true;
    SimStats s = simulate(oracle, k);   // panics internally if broken
    EXPECT_EQ(s.blocksCompleted, 8u);
}

} // namespace
} // namespace scsim
