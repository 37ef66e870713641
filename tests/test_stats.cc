/** @file Unit tests for statistics primitives. */

#include <cmath>
#include <iterator>
#include <set>

#include <gtest/gtest.h>

#include "stats/stats.hh"
#include "stats/stats_io.hh"

namespace scsim {
namespace {

TEST(Distribution, EmptyIsZero)
{
    Distribution d;
    EXPECT_EQ(d.count(), 0u);
    EXPECT_DOUBLE_EQ(d.mean(), 0.0);
    EXPECT_DOUBLE_EQ(d.stddev(), 0.0);
    EXPECT_DOUBLE_EQ(d.cov(), 0.0);
}

TEST(Distribution, SingleSample)
{
    Distribution d;
    d.add(5.0);
    EXPECT_EQ(d.count(), 1u);
    EXPECT_DOUBLE_EQ(d.mean(), 5.0);
    EXPECT_DOUBLE_EQ(d.stddev(), 0.0);
    EXPECT_DOUBLE_EQ(d.min(), 5.0);
    EXPECT_DOUBLE_EQ(d.max(), 5.0);
}

TEST(Distribution, KnownMoments)
{
    // Values 8K,8,8,8 give CoV = sqrt(3)(K-1)/(K+3) (see DESIGN.md).
    Distribution d;
    for (double x : { 32.0, 8.0, 8.0, 8.0 })   // K = 4
        d.add(x);
    EXPECT_DOUBLE_EQ(d.mean(), 14.0);
    double expectCov = std::sqrt(3.0) * 3.0 / 7.0;
    EXPECT_NEAR(d.cov(), expectCov, 1e-12);
}

TEST(Distribution, MergeMatchesCombined)
{
    Distribution a, b, all;
    for (int i = 0; i < 10; ++i) {
        double x = i * 1.5 - 3.0;
        (i % 2 ? a : b).add(x);
        all.add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Distribution, ShardedMergeEqualsSinglePass)
{
    // Four shards of uneven sizes, merged pairwise then chained, must
    // reproduce the one-pass accumulator exactly (count/sum/min/max)
    // and to rounding (mean/variance).
    Distribution shards[4], all;
    int n = 0;
    for (int s = 0; s < 4; ++s) {
        for (int i = 0; i <= s * 3; ++i) {
            double x = 0.75 * n * n - 11.0 * n + 3.5;
            shards[s].add(x);
            all.add(x);
            ++n;
        }
    }
    Distribution merged;
    for (const Distribution &s : shards)
        merged.merge(s);
    EXPECT_EQ(merged.count(), all.count());
    EXPECT_DOUBLE_EQ(merged.sum(), all.sum());
    EXPECT_DOUBLE_EQ(merged.min(), all.min());
    EXPECT_DOUBLE_EQ(merged.max(), all.max());
    EXPECT_NEAR(merged.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(merged.variance(), all.variance(),
                1e-9 * all.variance());
}

TEST(Distribution, MergeWithEmpty)
{
    Distribution a, empty;
    a.add(2.0);
    a.merge(empty);
    EXPECT_EQ(a.count(), 1u);
    empty.merge(a);
    EXPECT_EQ(empty.count(), 1u);
    EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
}

TEST(TimeSeries, WindowAveraging)
{
    TimeSeries ts(10);
    for (Cycle c = 0; c < 30; ++c)
        ts.add(c, 2.0);
    ts.finalize(30);
    ASSERT_EQ(ts.samples().size(), 3u);
    for (double s : ts.samples())
        EXPECT_DOUBLE_EQ(s, 2.0);
}

TEST(TimeSeries, SparseAdds)
{
    TimeSeries ts(4);
    ts.add(0, 4.0);
    ts.add(7, 8.0);    // second window
    ts.finalize(8);
    ASSERT_EQ(ts.samples().size(), 2u);
    EXPECT_DOUBLE_EQ(ts.samples()[0], 1.0);   // 4 over 4 cycles
    EXPECT_DOUBLE_EQ(ts.samples()[1], 2.0);   // 8 over 4 cycles
}

TEST(TimeSeries, FinalizePartialWindow)
{
    TimeSeries ts(8);
    ts.add(0, 8.0);
    ts.finalize(4);    // only 4 cycles elapsed
    ASSERT_EQ(ts.samples().size(), 1u);
    EXPECT_DOUBLE_EQ(ts.samples()[0], 2.0);
}

TEST(TimeSeries, EmptyGapsProduceZeroSamples)
{
    TimeSeries ts(2);
    ts.add(9, 6.0);
    ts.finalize(10);
    ASSERT_EQ(ts.samples().size(), 5u);
    EXPECT_DOUBLE_EQ(ts.samples()[3], 0.0);
    EXPECT_DOUBLE_EQ(ts.samples()[4], 3.0);
}

TEST(SummaryMath, Mean)
{
    std::vector<double> xs { 1.0, 2.0, 3.0 };
    EXPECT_DOUBLE_EQ(mean(xs), 2.0);
    EXPECT_DOUBLE_EQ(mean(std::vector<double>{}), 0.0);
}

TEST(SummaryMath, Geomean)
{
    std::vector<double> xs { 1.0, 4.0 };
    EXPECT_DOUBLE_EQ(geomean(xs), 2.0);
    std::vector<double> ones(5, 1.0);
    EXPECT_NEAR(geomean(ones), 1.0, 1e-12);
}

TEST(SummaryMath, CoefficientOfVariation)
{
    std::vector<double> same(4, 3.0);
    EXPECT_DOUBLE_EQ(coefficientOfVariation(same), 0.0);
    std::vector<double> spread { 32.0, 8.0, 8.0, 8.0 };
    EXPECT_NEAR(coefficientOfVariation(spread),
                std::sqrt(3.0) * 3.0 / 7.0, 1e-12);
}

TEST(SimStats, IpcAndCov)
{
    SimStats s;
    s.cycles = 100;
    s.instructions = 250;
    EXPECT_DOUBLE_EQ(s.ipc(), 2.5);

    s.issuePerScheduler = { { 32, 8, 8, 8 }, { 0, 0, 0, 0 } };
    // The idle SM is excluded from the average.
    EXPECT_NEAR(s.issueCov(), std::sqrt(3.0) * 3.0 / 7.0, 1e-12);
}

TEST(SimStats, IssueCovBalanced)
{
    SimStats s;
    s.issuePerScheduler = { { 10, 10, 10, 10 } };
    EXPECT_DOUBLE_EQ(s.issueCov(), 0.0);
}

TEST(TimeSeries, MergeConcatenatesSamples)
{
    TimeSeries a(4), b(4);
    a.add(0, 4.0);
    a.finalize(4);
    b.add(0, 8.0);
    b.add(5, 12.0);
    b.finalize(8);
    a.merge(b);
    ASSERT_EQ(a.samples().size(), 3u);
    EXPECT_DOUBLE_EQ(a.samples()[0], 1.0);
    EXPECT_DOUBLE_EQ(a.samples()[1], 2.0);
    EXPECT_DOUBLE_EQ(a.samples()[2], 3.0);
}

TEST(TimeSeries, MergeIntoEmptyAdoptsWindow)
{
    TimeSeries empty(512), b(4);
    b.add(0, 8.0);
    b.finalize(4);
    empty.merge(b);
    EXPECT_EQ(empty.window(), 4u);
    ASSERT_EQ(empty.samples().size(), 1u);
    EXPECT_DOUBLE_EQ(empty.samples()[0], 2.0);
}

/** A SimStats shard with every counter derived from @p base. */
SimStats
statsShard(std::uint64_t base)
{
    SimStats s;
    s.cycles = base;
    s.instructions = base * 2;
    s.threadInstructions = base * 64;
    s.issuePerScheduler = { { base, base + 1 }, { base + 2, base + 3 } };
    s.schedCycles = base * 4;
    s.issueSlotsUsed = base * 2 + 1;
    s.stallNoWarp = base + 5;
    s.stallScoreboard = base + 6;
    s.stallNoCu = base + 7;
    s.cuTurnaroundSum = base + 8;
    s.cuDispatches = base + 9;
    s.rfReads = base * 6;
    s.rfWrites = base * 3;
    s.rfBankConflictCycles = base + 10;
    s.collectorFullStalls = base + 11;
    s.execStructuralStalls = base + 12;
    s.l1Accesses = base + 13;
    s.l1Misses = base + 14;
    s.l2Accesses = base + 15;
    s.l2Misses = base + 16;
    s.blocksCompleted = base + 17;
    s.warpsCompleted = base + 18;
    s.assignSpills = base + 19;
    s.warpMigrations = base + 20;
    s.kernelSpans.emplace_back(std::string("k").append(std::to_string(base)),
                               base);
    s.rfReadTrace = TimeSeries{ 4 };
    s.rfReadTrace.add(0, static_cast<double>(base));
    s.rfReadTrace.finalize(4);
    return s;
}

TEST(SimStats, MergeEqualsSequentialAccumulation)
{
    SimStats merged = statsShard(100);
    merged.merge(statsShard(1000));

    EXPECT_EQ(merged.cycles, 1100u);
    EXPECT_EQ(merged.instructions, 2200u);
    EXPECT_EQ(merged.threadInstructions, 70400u);
    ASSERT_EQ(merged.issuePerScheduler.size(), 2u);
    EXPECT_EQ(merged.issuePerScheduler[0],
              (std::vector<std::uint64_t>{ 1100, 1102 }));
    EXPECT_EQ(merged.issuePerScheduler[1],
              (std::vector<std::uint64_t>{ 1104, 1106 }));
    EXPECT_EQ(merged.schedCycles, 4400u);
    EXPECT_EQ(merged.stallNoWarp, 1110u);
    EXPECT_EQ(merged.rfReads, 6600u);
    EXPECT_EQ(merged.l2Misses, 1132u);
    EXPECT_EQ(merged.warpMigrations, 1140u);

    ASSERT_EQ(merged.kernelSpans.size(), 2u);
    EXPECT_EQ(merged.kernelSpans[0].first, "k100");
    EXPECT_EQ(merged.kernelSpans[1].second, 1000u);

    ASSERT_EQ(merged.rfReadTrace.samples().size(), 2u);
    EXPECT_DOUBLE_EQ(merged.rfReadTrace.samples()[0], 25.0);
    EXPECT_DOUBLE_EQ(merged.rfReadTrace.samples()[1], 250.0);

    // Every counter in the table: distinct in a shard (so a crossed
    // member pointer shows), summed by merge, and carried by the
    // stats payload.
    const SimStats a = statsShard(100), b = statsShard(1000);
    std::set<std::uint64_t> distinct;
    SimStats back;
    ASSERT_TRUE(parseStatsPayload(serializeStatsPayload(merged), back));
    for (const auto &[name, member] : kStatsCounters) {
        distinct.insert(a.*member);
        EXPECT_EQ(merged.*member, a.*member + b.*member) << name;
        EXPECT_EQ(back.*member, merged.*member) << name;
    }
    EXPECT_EQ(distinct.size(), std::size(kStatsCounters));
    EXPECT_EQ(serializeStatsPayload(back), serializeStatsPayload(merged));
}

TEST(SimStats, PayloadRefusesSignedOrRaggedCounts)
{
    // A signed token would read as its wrap-around (-1 as 2^64 - 1).
    const std::string good = serializeStatsPayload(statsShard(5));
    for (const char *line :
         { "cycles -1", "warpMigrations -7", "issueRow -2",
           "issueRow 1 2 -3", "kernelSpan -4 k", "rfTraceWindow -8",
           "cycles 5x", "issueRow 1 2x", "rfTraceWindow" }) {
        SimStats s;
        EXPECT_EQ(parseStatsLine(line, s), StatsLine::Corrupt) << line;
        std::string bad = good;
        bad.append(line).append("\n");
        SimStats back = statsShard(9);
        EXPECT_FALSE(parseStatsPayload(bad, back)) << line;
        EXPECT_EQ(serializeStatsPayload(back),
                  serializeStatsPayload(statsShard(9)))
            << "untouched on failure: " << line;
    }
    SimStats s;
    EXPECT_EQ(parseStatsLine("cycles 18446744073709551615", s),
              StatsLine::Consumed);
    EXPECT_EQ(s.cycles, 18446744073709551615u);
    EXPECT_EQ(parseStatsLine("cycles 18446744073709551616", s),
              StatsLine::Corrupt);
}

TEST(SimStats, MergeGrowsIssueMatrix)
{
    SimStats small;
    small.issuePerScheduler = { { 1 } };
    SimStats big;
    big.issuePerScheduler = { { 2, 3 }, { 4, 5 } };
    small.merge(big);
    ASSERT_EQ(small.issuePerScheduler.size(), 2u);
    EXPECT_EQ(small.issuePerScheduler[0],
              (std::vector<std::uint64_t>{ 3, 3 }));
    EXPECT_EQ(small.issuePerScheduler[1],
              (std::vector<std::uint64_t>{ 4, 5 }));
}

TEST(SimStats, MergeWithDefaultIsIdentity)
{
    SimStats merged = statsShard(7);
    SimStats reference = statsShard(7);
    merged.merge(SimStats{});
    EXPECT_EQ(merged.cycles, reference.cycles);
    EXPECT_EQ(merged.instructions, reference.instructions);
    EXPECT_EQ(merged.issuePerScheduler, reference.issuePerScheduler);
    EXPECT_EQ(merged.kernelSpans.size(), reference.kernelSpans.size());
    EXPECT_EQ(merged.rfReadTrace.samples(),
              reference.rfReadTrace.samples());
}

} // namespace
} // namespace scsim
