/**
 * @file
 * Sweep-engine tests: job-key content addressing, result-cache
 * round-trips and hit/miss/invalidation behavior, thread-count
 * invariance of the merged results and manifests, and the
 * longest-expected-first ordering helpers.
 *
 * Labeled `runner` in CTest so `ctest -L runner` (and the `tsan`
 * preset) can exercise exactly the threaded paths.
 */

#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "expect_throw.hh"
#include "nudge_field.hh"
#include "runner/design.hh"
#include "runner/dispatcher.hh"
#include "runner/job_key.hh"
#include "runner/report.hh"
#include "runner/result_cache.hh"
#include "runner/sweep_engine.hh"
#include "runner/wire.hh"

namespace scsim::runner {
namespace {

/** A seconds-scale-free workload: small grid, short warps. */
AppSpec
tinyApp(const std::string &name, int blocks = 4)
{
    AppSpec app;
    app.name = name;
    app.suite = "test";
    app.numBlocks = blocks;
    app.warpsPerBlock = 4;
    app.baseInsts = 60;
    app.footprintMB = 1;
    return app;
}

GpuConfig
tinyCfg()
{
    GpuConfig cfg = GpuConfig::volta();
    cfg.numSms = 2;
    return cfg;
}

/** Baseline + RBA + Shuffle over three tiny apps. */
SweepSpec
tinySpec()
{
    SweepSpec spec;
    GpuConfig base = tinyCfg();
    for (const char *name : { "appA", "appB", "appC" }) {
        AppSpec app = tinyApp(name);
        for (const char *d : { "Baseline", "RBA", "Shuffle" })
            spec.add(app.name + "|" + d, designConfig(base, d), app);
    }
    return spec;
}

/** Fresh empty directory under the gtest temp root. */
std::string
freshDir(const std::string &leaf)
{
    std::string dir = testing::TempDir() + "scsim_" + leaf;
    std::filesystem::remove_all(dir);
    return dir;
}

TEST(JobKey, SameJobSameKey)
{
    SimJob a{ "t", tinyCfg(), tinyApp("x"), 0, false };
    SimJob b{ "different-tag", tinyCfg(), tinyApp("x"), 0, false };
    // The tag names the result row; it is not part of the content.
    EXPECT_EQ(jobKey(a), jobKey(b));
}

TEST(JobKey, SensitiveToEveryInput)
{
    SimJob base{ "t", tinyCfg(), tinyApp("x"), 0, false };
    std::uint64_t k = jobKey(base);

    SimJob salted = base;
    salted.salt = 1;
    EXPECT_NE(jobKey(salted), k);

    SimJob conc = base;
    conc.concurrent = true;
    EXPECT_NE(jobKey(conc), k);

    SimJob sched = base;
    sched.cfg.scheduler = SchedulerPolicy::RBA;
    EXPECT_NE(jobKey(sched), k);

    SimJob knob = base;
    knob.cfg.rbaScoreLatency = 8;
    EXPECT_NE(jobKey(knob), k);

    SimJob work = base;
    work.app.baseInsts += 1;
    EXPECT_NE(jobKey(work), k);

    SimJob pattern = base;
    pattern.app.divPattern = { 1.0, 4.0 };
    EXPECT_NE(jobKey(pattern), k);

    // Every config and app field, moved off its value on its own.
    SimJob moved = base;
    std::set<std::string> names;
    std::set<const void *> members;
    auto check = [&](const char *name, auto &field) {
        EXPECT_TRUE(names.insert(name).second) << "duplicate " << name;
        EXPECT_TRUE(members.insert(&field).second) << "aliased " << name;
        auto saved = field;
        nudge(field);
        EXPECT_NE(jobKey(moved), k) << name;
        field = saved;
    };
    forEachField(moved.cfg, check);
    names.clear();
    forEachField(moved.app, check);
    EXPECT_EQ(members.size(), 47u + 23u);
    EXPECT_EQ(jobKey(moved), k);
}

TEST(JobKey, HexIsFixedWidth)
{
    EXPECT_EQ(keyToHex(0x1), "0000000000000001");
    EXPECT_EQ(keyToHex(0xdeadbeefcafef00dULL), "deadbeefcafef00d");
}

/** A job with every config and app field off its default, spelled out
 *  field by field so it does not depend on the field lists it pins. */
SimJob
offDefaultJob()
{
    SimJob job;
    job.tag = "off-default";
    job.salt = 5;
    job.concurrent = true;
    const std::pair<const char *, const char *> cfgFields[] = {
        { "numSms", "6" }, { "schedulersPerSm", "8" }, { "subCores", "2" },
        { "rfBanksPerSm", "16" }, { "collectorUnitsPerSm", "12" },
        { "maxWarpsPerSm", "48" }, { "maxWarpsPerScheduler", "12" },
        { "maxBlocksPerSm", "24" }, { "regFileBytesPerSm", "131072" },
        { "smemBytesPerSm", "65536" }, { "scheduler", "RBA" },
        { "assign", "HashShuffle" }, { "hashTableEntries", "16" },
        { "rbaScoreLatency", "3" }, { "bankStealing", "1" },
        { "idealWarpMigration", "1" }, { "issueWidthPerScheduler", "2" },
        { "sharedWarpPool", "1" }, { "spPipesPerScheduler", "2" },
        { "spInitiation", "1" }, { "spLatency", "5" },
        { "sfuPipesPerScheduler", "2" }, { "sfuInitiation", "4" },
        { "sfuLatency", "18" }, { "tensorPipesPerScheduler", "2" },
        { "tensorInitiation", "2" }, { "tensorLatency", "12" },
        { "ldstPipesPerScheduler", "2" }, { "ldstInitiation", "2" },
        { "l1Bytes", "65536" }, { "l1Ways", "4" }, { "l1LineBytes", "64" },
        { "l1HitLatency", "30" }, { "l1PortsPerSm", "2" },
        { "l2Bytes", "4194304" }, { "l2Ways", "16" },
        { "l2HitLatency", "200" }, { "dramLatency", "400" },
        { "l2SectorsPerCyclePerSm", "0.3" },
        { "dramSectorsPerCyclePerSm", "0.125" }, { "smemLatency", "20" },
        { "maxCycles", "12345678" }, { "hangWindowCycles", "54321" },
        { "enableIdleSkip", "0" }, { "seed", "99" },
        { "rfTraceEnable", "1" }, { "rfTraceWindow", "256" },
    };
    for (const auto &[key, value] : cfgFields)
        job.cfg.set(key, value);

    AppSpec &a = job.app;
    a.name = "every field";
    a.suite = "pinned\\suite";
    a.numBlocks = 9;
    a.warpsPerBlock = 3;
    a.regsPerThread = 40;
    a.smemBytesPerBlock = 2048;
    a.numKernels = 2;
    a.baseInsts = 77;
    a.fmaFrac = 0.3;
    a.sfuFrac = 0.05;
    a.tensorFrac = 0.1;
    a.memFrac = 0.2;
    a.storeFrac = 0.4;
    a.ilp = 2;
    a.regWindow = 12;
    a.conflictBias = 0.6;
    a.hotRegFrac = 0.15;
    a.divPattern = { 1.0, 2.5, 0.1 };
    a.divNoise = 0.07;
    a.divKernelFrac = 0.5;
    a.sectors = 2;
    a.footprintMB = 3;
    a.randomMem = true;
    return job;
}

/**
 * The jobs whose keys and wire bytes tests/goldens/job_keys.txt pins:
 * every catalogue design on one suite app, plus offDefaultJob().  A
 * moved key orphans every warm cache directory, journal and snapshot;
 * moved wire bytes break mixed-version farm peers.
 */
std::vector<SimJob>
pinnedJobs()
{
    std::vector<SimJob> jobs;
    GpuConfig base = GpuConfig::volta();
    base.numSms = 6;
    AppSpec app = findApp("tpcC-q2", 0.1);
    for (const DesignInfo &d : designCatalog())
        jobs.push_back(SimJob{ d.name, designConfig(base, d.name), app, 0,
                               false });
    jobs.push_back(offDefaultJob());
    return jobs;
}

TEST(JobKey, MatchesPinnedGoldens)
{
    std::ifstream in(SCSIM_JOB_KEY_GOLDENS);
    ASSERT_TRUE(in.good()) << "missing goldens: " SCSIM_JOB_KEY_GOLDENS;
    std::map<std::string, std::pair<std::string, std::string>> goldens;
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream ls(line);
        std::string tag, key, wire;
        std::getline(ls, tag, '\t');
        std::getline(ls, key, '\t');
        std::getline(ls, wire, '\t');
        if (!tag.empty())
            goldens[tag] = { key, wire };
    }

    std::vector<SimJob> jobs = pinnedJobs();
    EXPECT_EQ(goldens.size(), jobs.size());
    for (const SimJob &job : jobs) {
        std::string key = keyToHex(jobKey(job));
        std::string wire = keyToHex(hashString(serializeJob(job)));
        // A mismatch prints the line the file would need.
        EXPECT_EQ(goldens[job.tag], std::make_pair(key, wire))
            << job.tag << "\t" << key << "\t" << wire;
    }
}

TEST(ResultCache, SerializeRoundTrip)
{
    SimStats s;
    s.cycles = 12345;
    s.instructions = 678;
    s.issuePerScheduler = { { 1, 2, 3 }, { 4, 5, 6 } };
    s.rfReads = 999;
    s.l2Misses = 42;
    s.kernelSpans.emplace_back("gemm pass 1", 100);
    s.kernelSpans.emplace_back("reduce", 200);
    s.rfReadTrace = TimeSeries{ 8 };
    s.rfReadTrace.add(0, 16.0);
    s.rfReadTrace.add(9, 24.0);
    s.rfReadTrace.finalize(16);

    SimStats back;
    ASSERT_TRUE(deserializeStats(serializeStats(s), back));
    EXPECT_EQ(back.cycles, s.cycles);
    EXPECT_EQ(back.instructions, s.instructions);
    EXPECT_EQ(back.issuePerScheduler, s.issuePerScheduler);
    EXPECT_EQ(back.rfReads, s.rfReads);
    EXPECT_EQ(back.l2Misses, s.l2Misses);
    ASSERT_EQ(back.kernelSpans.size(), 2u);
    EXPECT_EQ(back.kernelSpans[0].first, "gemm pass 1");
    EXPECT_EQ(back.kernelSpans[1].second, 200u);
    EXPECT_EQ(back.rfReadTrace.window(), 8u);
    EXPECT_EQ(back.rfReadTrace.samples(), s.rfReadTrace.samples());

    // The round-trip must also be byte-stable (cache re-writes).
    EXPECT_EQ(serializeStats(back), serializeStats(s));
}

TEST(ResultCache, RejectsGarbageAndVersionSkew)
{
    SimStats out;
    EXPECT_FALSE(deserializeStats("", out));
    EXPECT_FALSE(deserializeStats("not a result file\n", out));
    EXPECT_FALSE(deserializeStats("scsim-result v999\ncycles 1\n", out));
}

TEST(ResultCache, DiskPersistsAcrossInstances)
{
    std::string dir = freshDir("cache_persist");
    SimStats s;
    s.cycles = 777;
    {
        ResultCache cache(dir);
        cache.store(0xabcdef, s);
    }
    ResultCache fresh(dir);
    SimStats out;
    EXPECT_TRUE(fresh.lookup(0xabcdef, out));
    EXPECT_EQ(out.cycles, 777u);
    EXPECT_EQ(fresh.hits(), 1u);
    EXPECT_FALSE(fresh.lookup(0x123456, out));
    EXPECT_EQ(fresh.misses(), 1u);
    std::filesystem::remove_all(dir);
}

TEST(WorkerPool, ResolveJobs)
{
    EXPECT_GE(resolveJobs(0), 1);
    EXPECT_EQ(resolveJobs(3), 3);
}

TEST(WorkerPool, RunsEveryIndexOnce)
{
    // Every enqueued job of the Dispatcher completes exactly once.
    SweepSpec spec;
    for (const char *name : { "a0", "a1", "a2", "a3", "a4" })
        spec.add(name, tinyCfg(), tinyApp(name));
    std::vector<std::atomic<int>> hits(spec.jobs.size());
    ResultCache cache;
    Dispatcher pool({ .workers = 4, .isolate = std::nullopt }, cache,
                    [&](std::uint64_t, std::size_t i, JobResult r) {
                        EXPECT_EQ(r.status, JobStatus::Ok);
                        ++hits[i];
                    });
    pool.enqueue(0, spec, { 4, 2, 0, 1, 3 });
    pool.close();
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
    EXPECT_EQ(pool.completed(), spec.jobs.size());
}

TEST(SweepEngine, ThreadCountInvariance)
{
    SweepSpec spec = tinySpec();

    SweepEngine serial{ SweepOptions{ .jobs = 1, .cacheDir = "" } };
    SweepResult r1 = serial.run(spec);

    SweepEngine parallel{ SweepOptions{ .jobs = 8, .cacheDir = "" } };
    SweepResult r8 = parallel.run(spec);

    ASSERT_EQ(r1.results.size(), r8.results.size());
    for (std::size_t i = 0; i < r1.results.size(); ++i) {
        EXPECT_EQ(r1.results[i].key, r8.results[i].key);
        EXPECT_EQ(r1.results[i].stats.cycles,
                  r8.results[i].stats.cycles)
            << "job " << r1.tags[i];
        EXPECT_EQ(r1.results[i].stats.rfBankConflictCycles,
                  r8.results[i].stats.rfBankConflictCycles);
    }
    // The structured manifests must be byte-identical.
    EXPECT_EQ(jsonManifest(spec, r1), jsonManifest(spec, r8));
    EXPECT_EQ(csvManifest(spec, r1), csvManifest(spec, r8));
}

TEST(SweepEngine, CacheHitsOnRerun)
{
    std::string dir = freshDir("cache_rerun");
    SweepSpec spec = tinySpec();

    SweepEngine first{ SweepOptions{ .jobs = 4, .cacheDir = dir } };
    SweepResult cold = first.run(spec);
    EXPECT_EQ(cold.executed, spec.jobs.size());
    EXPECT_EQ(cold.cacheHits, 0u);

    SweepEngine second{ SweepOptions{ .jobs = 4, .cacheDir = dir } };
    SweepResult warm = second.run(spec);
    EXPECT_EQ(warm.executed, 0u);
    EXPECT_EQ(warm.cacheHits, spec.jobs.size());

    // Cached results are indistinguishable from simulated ones.
    EXPECT_EQ(jsonManifest(spec, cold), jsonManifest(spec, warm));
    std::filesystem::remove_all(dir);
}

TEST(SweepEngine, ConfigChangeInvalidatesCache)
{
    std::string dir = freshDir("cache_invalidate");
    SweepSpec spec = tinySpec();

    SweepEngine first{ SweepOptions{ .jobs = 4, .cacheDir = dir } };
    first.run(spec);

    // An SM-count change must miss on every point...
    SweepSpec bigger = spec;
    for (SimJob &job : bigger.jobs)
        job.cfg.numSms = 4;
    SweepEngine second{ SweepOptions{ .jobs = 4, .cacheDir = dir } };
    SweepResult r = second.run(bigger);
    EXPECT_EQ(r.cacheHits, 0u);
    EXPECT_EQ(r.executed, bigger.jobs.size());

    // ...while the unchanged spec still hits everything.
    SweepEngine third{ SweepOptions{ .jobs = 4, .cacheDir = dir } };
    EXPECT_EQ(third.run(spec).cacheHits, spec.jobs.size());
    std::filesystem::remove_all(dir);
}

TEST(SweepEngine, SaltInvalidatesCache)
{
    std::string dir = freshDir("cache_salt");
    SweepSpec spec = tinySpec();
    SweepEngine first{ SweepOptions{ .jobs = 2, .cacheDir = dir } };
    first.run(spec);

    SweepSpec salted = spec;
    for (SimJob &job : salted.jobs)
        job.salt = 99;
    SweepEngine second{ SweepOptions{ .jobs = 2, .cacheDir = dir } };
    EXPECT_EQ(second.run(salted).cacheHits, 0u);
    std::filesystem::remove_all(dir);
}

TEST(SweepEngine, ByTagLookup)
{
    SweepSpec spec;
    spec.add("only", tinyCfg(), tinyApp("solo"));
    SweepEngine engine{ SweepOptions{ .jobs = 1, .cacheDir = "" } };
    SweepResult r = engine.run(spec);
    EXPECT_GT(r.cycles("only"), 0u);
    EXPECT_EQ(&r.stats("only"), &r.results[0].stats);
}

TEST(SweepEngine, DuplicateTagFailsBeforeAnyJobRuns)
{
    SweepSpec spec;
    spec.add("dup", tinyCfg(), tinyApp("a"));
    spec.add("dup", tinyCfg(), tinyApp("b"));
    SweepEngine engine{ SweepOptions{ .jobs = 1, .cacheDir = "" } };
    // The message names the offending tag and app.
    EXPECT_THROW_WITH(engine.run(spec), ConfigError,
                      "duplicate sweep tag 'dup' (app 'b')");
}

TEST(SweepEngine, InvalidConfigReportsTagAndAppUpfront)
{
    SweepSpec spec;
    spec.add("good", tinyCfg(), tinyApp("a"));
    GpuConfig bad = tinyCfg();
    bad.rfBanksPerSm = 6;   // not divisible by 4 sub-cores
    spec.add("broken", bad, tinyApp("b"));
    SweepEngine engine{ SweepOptions{ .jobs = 1, .cacheDir = "" } };
    EXPECT_THROW_WITH(engine.run(spec), ConfigError,
                      "job 'broken' (app 'b')");
    EXPECT_THROW_WITH(engine.run(spec), ConfigError,
                      "no jobs were run");
}

TEST(ExpectedCost, OrdersByWork)
{
    SimJob small{ "s", tinyCfg(), tinyApp("s", 2), 0, false };
    SimJob large{ "l", tinyCfg(), tinyApp("l", 64), 0, false };
    EXPECT_GT(large.expectedCost(), small.expectedCost());

    // A fully-connected SM costs more to simulate than a partitioned
    // one for identical work.
    SimJob fc = small;
    fc.cfg = designConfig(tinyCfg(), "Fully-Connected");
    EXPECT_GT(fc.expectedCost(), small.expectedCost());
}

} // namespace
} // namespace scsim::runner
