/** @file Unit tests for GpuConfig: Table II defaults, presets, parsing. */

#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "config/gpu_config.hh"
#include "expect_throw.hh"

namespace scsim {
namespace {

TEST(GpuConfig, TableIiDefaults)
{
    GpuConfig c = GpuConfig::volta();
    EXPECT_EQ(c.numSms, 80);
    EXPECT_EQ(c.subCores, 4);
    EXPECT_EQ(c.maxWarpsPerSm, 64);
    EXPECT_EQ(c.banksPerCluster(), 2);
    EXPECT_EQ(c.cusPerCluster(), 2);
    EXPECT_EQ(c.regFileBytesPerCluster(), 64u * 1024u);
    EXPECT_EQ(c.l1Bytes, 128u * 1024u);
    EXPECT_EQ(c.l2Bytes, 6u * 1024u * 1024u);
    EXPECT_EQ(c.l2Ways, 24);
    EXPECT_EQ(c.scheduler, SchedulerPolicy::GTO);
    EXPECT_EQ(c.assign, AssignPolicy::RoundRobin);
    EXPECT_NO_FATAL_FAILURE(c.validate());
}

TEST(GpuConfig, FullyConnectedSharesTotals)
{
    GpuConfig p = GpuConfig::volta();
    GpuConfig f = GpuConfig::voltaFullyConnected();
    EXPECT_EQ(f.subCores, 1);
    EXPECT_EQ(f.rfBanksPerSm, p.rfBanksPerSm);
    EXPECT_EQ(f.collectorUnitsPerSm, p.collectorUnitsPerSm);
    EXPECT_EQ(f.banksPerCluster(), 8);
    EXPECT_EQ(f.cusPerCluster(), 8);
    EXPECT_EQ(f.schedulersPerCluster(), 4);
    EXPECT_EQ(f.regFileBytesPerCluster(), 256u * 1024u);
}

TEST(GpuConfig, KeplerLikeIsMonolithicDualIssue)
{
    GpuConfig k = GpuConfig::keplerLike();
    EXPECT_EQ(k.subCores, 1);
    EXPECT_EQ(k.issueWidthPerScheduler, 2);
    EXPECT_GT(k.spLatency, GpuConfig::volta().spLatency);
    EXPECT_NO_FATAL_FAILURE(k.validate());
}

TEST(GpuConfig, SetParsesNumbersAndEnums)
{
    GpuConfig c;
    c.set("numSms", "12");
    EXPECT_EQ(c.numSms, 12);
    c.set("scheduler", "RBA");
    EXPECT_EQ(c.scheduler, SchedulerPolicy::RBA);
    c.set("assign", "HashShuffle");
    EXPECT_EQ(c.assign, AssignPolicy::HashShuffle);
    c.set("bankStealing", "true");
    EXPECT_TRUE(c.bankStealing);
    c.set("bankStealing", "0");
    EXPECT_FALSE(c.bankStealing);
    c.set("l2SectorsPerCyclePerSm", "1.25");
    EXPECT_DOUBLE_EQ(c.l2SectorsPerCyclePerSm, 1.25);
}

TEST(GpuConfigThrow, SetRejectsUnknownKey)
{
    GpuConfig c;
    EXPECT_THROW_WITH(c.set("warpSpeed", "9"), ConfigError,
                      "unknown configuration");
}

TEST(GpuConfigThrow, SetRejectsGarbageValue)
{
    GpuConfig c;
    EXPECT_THROW_WITH(c.set("numSms", "many"), ConfigError,
                      "cannot parse");
    EXPECT_THROW_WITH(c.set("scheduler", "FIFO"), ConfigError,
                      "unknown scheduler");
    EXPECT_THROW_WITH(c.set("bankStealing", "maybe"), ConfigError,
                      "cannot parse bool");
    // Stream extraction would wrap a negative into an unsigned field.
    EXPECT_THROW_WITH(c.set("regFileBytesPerSm", "-1"), ConfigError,
                      "cannot parse value '-1'");
    EXPECT_THROW_WITH(c.set("maxCycles", "-1"), ConfigError,
                      "cannot parse value '-1'");
    EXPECT_THROW_WITH(c.set("seed", " -5"), ConfigError, "cannot parse");
    EXPECT_EQ(c.regFileBytesPerSm, GpuConfig{}.regFileBytesPerSm);
    EXPECT_EQ(c.maxCycles, GpuConfig{}.maxCycles);
}

TEST(GpuConfigThrow, ValidateCatchesIndivisibleBanks)
{
    GpuConfig c;
    c.rfBanksPerSm = 6;   // not divisible by 4 sub-cores
    EXPECT_THROW_WITH(c.validate(), ConfigError, "not divisible");
}

TEST(GpuConfigThrow, ValidateCatchesBadHashTable)
{
    GpuConfig c;
    c.hashTableEntries = 8;
    EXPECT_THROW_WITH(c.validate(), ConfigError, "hashTableEntries");
}

TEST(GpuConfigThrow, ValidateCatchesMoreWarpsThanOneMaskWord)
{
    GpuConfig c;
    c.maxWarpsPerSm = 65;
    c.maxWarpsPerScheduler = 32;   // tables could hold them
    EXPECT_THROW_WITH(c.validate(), ConfigError, "maxWarpsPerSm");
    c.maxWarpsPerSm = 64;
    EXPECT_NO_THROW(c.validate());
}

TEST(GpuConfigThrow, ValidateCatchesTinySchedulerTables)
{
    GpuConfig c;
    c.maxWarpsPerScheduler = 8;   // 4 x 8 < 64
    EXPECT_THROW_WITH(c.validate(), ConfigError, "cannot hold");
}

TEST(GpuConfig, LoadFileParsesCommentsAndWhitespace)
{
    std::string path = ::testing::TempDir() + "scsim_cfg_test.cfg";
    {
        std::ofstream out(path);
        out << "# a comment\n"
            << "  numSms = 6   # trailing comment\n"
            << "\n"
            << "scheduler=RBA\n";
    }
    GpuConfig c;
    c.loadFile(path);
    EXPECT_EQ(c.numSms, 6);
    EXPECT_EQ(c.scheduler, SchedulerPolicy::RBA);
    std::remove(path.c_str());
}

TEST(GpuConfigThrow, LoadFileMissing)
{
    GpuConfig c;
    EXPECT_THROW_WITH(c.loadFile("/nonexistent/scsim.cfg"),
                      ConfigError, "cannot open");
}

TEST(GpuConfig, PolicyNames)
{
    EXPECT_STREQ(toString(SchedulerPolicy::RBA), "RBA");
    EXPECT_STREQ(toString(AssignPolicy::SRR), "SRR");
    EXPECT_STREQ(toString(AssignPolicy::HashShuffle), "HashShuffle");
}

/** Every legal sub-core count divides the per-SM resources. */
class SubCoreSweep : public ::testing::TestWithParam<int> {};

TEST_P(SubCoreSweep, DerivedQuantitiesConsistent)
{
    GpuConfig c;
    c.subCores = GetParam();
    c.schedulersPerSm = 4;
    c.rfBanksPerSm = 8;
    c.collectorUnitsPerSm = 8;
    if (c.schedulersPerSm % c.subCores)
        GTEST_SKIP();
    c.validate();
    EXPECT_EQ(c.banksPerCluster() * c.subCores, c.rfBanksPerSm);
    EXPECT_EQ(c.cusPerCluster() * c.subCores, c.collectorUnitsPerSm);
    EXPECT_EQ(c.schedulersPerCluster() * c.subCores, c.schedulersPerSm);
    EXPECT_EQ(c.regFileBytesPerCluster()
                  * static_cast<std::uint32_t>(c.subCores),
              c.regFileBytesPerSm);
}

INSTANTIATE_TEST_SUITE_P(AllPartitionings, SubCoreSweep,
                         ::testing::Values(1, 2, 4));

} // namespace
} // namespace scsim
