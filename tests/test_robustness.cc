/**
 * @file
 * Fault-tolerance tests: the fault-injection harness, cache checksum
 * and quarantine behavior, the forward-progress watchdog, and sweep
 * failure containment (one bad job must not take out a sweep).
 *
 * Labeled `robustness` in CTest; the fixture disarms the process-wide
 * FaultInjector around every test.
 */

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_inject.hh"
#include "expect_throw.hh"
#include "gpu/gpu_sim.hh"
#include "runner/dispatcher.hh"
#include "runner/job_key.hh"
#include "runner/report.hh"
#include "runner/result_cache.hh"
#include "runner/sweep_engine.hh"
#include "workloads/microbench.hh"

namespace scsim::runner {
namespace {

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

/** A job whose kernels cannot fit the SM: fails inside GpuSim::run. */
AppSpec
oversizedApp(const std::string &name, int blocks = 4)
{
    AppSpec app = tinyApp(name, blocks);
    app.regsPerThread = 256;
    app.warpsPerBlock = 16;
    return app;
}

std::string
freshDir(const std::string &leaf)
{
    std::string dir = testing::TempDir() + "scsim_" + leaf;
    std::filesystem::remove_all(dir);
    return dir;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

class RobustnessTest : public ::testing::Test
{
  protected:
    void SetUp() override { FaultInjector::instance().reset(); }
    void TearDown() override { FaultInjector::instance().reset(); }
};

// ---- serialization hardening -----------------------------------------

TEST_F(RobustnessTest, KernelSpanHostileNamesRoundTrip)
{
    SimStats s;
    s.cycles = 42;
    s.kernelSpans.emplace_back("evil\nname with spaces", 100);
    s.kernelSpans.emplace_back("back\\slash\rand cr", 200);

    SimStats back;
    ASSERT_TRUE(deserializeStats(serializeStats(s), back));
    ASSERT_EQ(back.kernelSpans.size(), 2u);
    EXPECT_EQ(back.kernelSpans[0].first, "evil\nname with spaces");
    EXPECT_EQ(back.kernelSpans[0].second, 100u);
    EXPECT_EQ(back.kernelSpans[1].first, "back\\slash\rand cr");
    EXPECT_EQ(serializeStats(back), serializeStats(s));
}

TEST_F(RobustnessTest, ChecksumDetectsPayloadTampering)
{
    SimStats s;
    s.cycles = 12345;
    std::string text = serializeStats(s);
    ASSERT_TRUE(deserializeStats(text, s));

    std::string tampered = text;
    tampered.replace(tampered.find("12345"), 5, "54321");
    SimStats out;
    EXPECT_EQ(decodeStats(tampered, out), WireDecode::Corrupt);
}

// ---- fault injector ---------------------------------------------------

TEST_F(RobustnessTest, InjectedCacheWriteFaultThrows)
{
    std::string dir = freshDir("inject_write");
    ResultCache cache(dir);
    SimStats s;
    s.cycles = 7;

    FaultInjector::instance().armCacheWriteFaults(1);
    EXPECT_THROW_WITH(cache.store(1, s), CacheError,
                      "injected cache write fault");
    EXPECT_EQ(FaultInjector::instance().cacheWriteAttempts(), 1u);

    // The next attempt (2nd) is past the armed range and succeeds.
    cache.store(1, s);
    EXPECT_EQ(FaultInjector::instance().cacheWriteAttempts(), 2u);
    std::filesystem::remove_all(dir);
}

TEST_F(RobustnessTest, InjectedCacheReadFaultThrows)
{
    std::string dir = freshDir("inject_read");
    SimStats s;
    s.cycles = 7;
    {
        ResultCache cache(dir);
        cache.store(1, s);
    }
    ResultCache fresh(dir);
    FaultInjector::instance().armCacheReadFaults(1);
    SimStats out;
    EXPECT_THROW_WITH(fresh.lookup(1, out), CacheError,
                      "injected cache read fault");
    EXPECT_TRUE(fresh.lookup(1, out));   // second attempt clean
    EXPECT_EQ(out.cycles, 7u);
    std::filesystem::remove_all(dir);
}

TEST_F(RobustnessTest, MemoryOnlyCacheNeverTouchesInjector)
{
    ResultCache cache;   // no dir: disk faults cannot apply
    SimStats s;
    s.cycles = 3;
    FaultInjector::instance().armCacheWriteFaults(1, 1000);
    FaultInjector::instance().armCacheReadFaults(1, 1000);
    cache.store(9, s);
    SimStats out;
    EXPECT_TRUE(cache.lookup(9, out));
    EXPECT_EQ(FaultInjector::instance().cacheWriteAttempts(), 0u);
    EXPECT_EQ(FaultInjector::instance().cacheReadAttempts(), 0u);
}

// ---- cache integrity --------------------------------------------------

TEST_F(RobustnessTest, CorruptEntryIsQuarantinedAndRerun)
{
    std::string dir = freshDir("quarantine");
    SweepSpec spec;
    spec.add("only", tinyCfg(), tinyApp("solo"));

    SweepEngine first{ SweepOptions{ .jobs = 1, .cacheDir = dir } };
    SweepResult cold = first.run(spec);
    ASSERT_TRUE(cold.allOk());

    // Hand-corrupt the payload behind the checksum's back.
    std::string path =
        dir + "/" + keyToHex(cold.results[0].key) + ".stats";
    std::string text = slurp(path);
    ASSERT_FALSE(text.empty());
    {
        std::ofstream out(path, std::ios::trunc);
        text[text.size() / 2] ^= 0x20;
        out << text;
    }

    SweepEngine second{ SweepOptions{ .jobs = 1, .cacheDir = dir } };
    SweepResult warm = second.run(spec);
    EXPECT_TRUE(warm.allOk());
    EXPECT_EQ(warm.cacheHits, 0u);      // corrupt entry did not hit
    EXPECT_EQ(warm.executed, 1u);       // the job re-ran
    EXPECT_EQ(second.cache().quarantined(), 1u);
    EXPECT_TRUE(std::filesystem::exists(
        dir + "/" + keyToHex(cold.results[0].key) + ".corrupt"));
    // The re-run rewrote a good entry with identical results.
    SimStats out;
    ResultCache check(dir);
    EXPECT_TRUE(check.lookup(cold.results[0].key, out));
    EXPECT_EQ(out.cycles, cold.results[0].stats.cycles);
    std::filesystem::remove_all(dir);
}

TEST_F(RobustnessTest, VersionSkewIsAMissNotAQuarantine)
{
    std::string dir = freshDir("skew");
    ResultCache cache(dir);
    {
        std::ofstream out(dir + "/" + keyToHex(5) + ".stats");
        out << "scsim-result v1\ncycles 9\n";
    }
    SimStats out;
    EXPECT_FALSE(cache.lookup(5, out));
    EXPECT_EQ(cache.quarantined(), 0u);
    EXPECT_TRUE(
        std::filesystem::exists(dir + "/" + keyToHex(5) + ".stats"));
    std::filesystem::remove_all(dir);
}

TEST_F(RobustnessTest, SweepRetriesTransientCacheWrite)
{
    std::string dir = freshDir("transient_write");
    SweepSpec spec;
    spec.add("only", tinyCfg(), tinyApp("solo"));

    // First disk write fails once; the engine's bounded backoff must
    // retry and land the entry.
    FaultInjector::instance().armCacheWriteFaults(1);
    SweepEngine engine{ SweepOptions{ .jobs = 1, .cacheDir = dir } };
    SweepResult res = engine.run(spec);
    EXPECT_TRUE(res.allOk());
    EXPECT_GE(FaultInjector::instance().cacheWriteAttempts(), 2u);

    FaultInjector::instance().reset();
    SweepEngine warm{ SweepOptions{ .jobs = 1, .cacheDir = dir } };
    EXPECT_EQ(warm.run(spec).cacheHits, 1u);
    std::filesystem::remove_all(dir);
}

TEST_F(RobustnessTest, SweepSurvivesPersistentCacheFailure)
{
    std::string dir = freshDir("persistent_fail");
    SweepSpec spec;
    spec.add("only", tinyCfg(), tinyApp("solo"));

    // A permanently broken disk degrades to "nothing cached", never
    // to a failed job.
    FaultInjector::instance().armCacheWriteFaults(1, 1u << 20);
    FaultInjector::instance().armCacheReadFaults(1, 1u << 20);
    SweepEngine engine{ SweepOptions{ .jobs = 1, .cacheDir = dir } };
    SweepResult res = engine.run(spec);
    EXPECT_TRUE(res.allOk());
    EXPECT_EQ(res.executed, 1u);
    std::filesystem::remove_all(dir);
}

// ---- watchdog ---------------------------------------------------------

TEST_F(RobustnessTest, WatchdogContainsSyntheticHang)
{
    GpuConfig cfg = tinyCfg();
    cfg.hangWindowCycles = 3000;
    FaultInjector::instance().armHang("hang-micro");
    GpuSim sim(cfg);
    try {
        sim.run(makeHangMicro());
        FAIL() << "expected HangError";
    } catch (const HangError &e) {
        EXPECT_NE(std::string(e.what()).find("no forward progress"),
                  std::string::npos);
        // The diagnostic dumps per-sub-core issue and collector state.
        EXPECT_NE(e.diagnostic().find("sub-core"), std::string::npos);
        EXPECT_NE(e.diagnostic().find("collector"), std::string::npos);
        EXPECT_NE(e.diagnostic().find("scoreboardPending"),
                  std::string::npos);
    }
}

TEST_F(RobustnessTest, HangMicroCompletesWhenDisarmed)
{
    GpuConfig cfg = tinyCfg();
    cfg.hangWindowCycles = 3000;
    SimStats s = simulate(cfg, makeHangMicro());
    EXPECT_GT(s.cycles, 0u);
    EXPECT_EQ(s.blocksCompleted, 2u);
}

TEST_F(RobustnessTest, DisabledBudgetsPreserveBehavior)
{
    KernelDesc k = makeFmaMicro(FmaLayout::Baseline, 64, 4);
    SimStats guarded = simulate(tinyCfg(), k);

    GpuConfig open = tinyCfg();
    open.maxCycles = 0;          // unlimited
    open.hangWindowCycles = 0;   // watchdog off
    SimStats free = simulate(open, k);
    EXPECT_EQ(free.cycles, guarded.cycles);
    EXPECT_EQ(free.instructions, guarded.instructions);
}

// ---- sweep failure containment ---------------------------------------

TEST_F(RobustnessTest, SweepContainsHangAndErrorJobs)
{
    FaultInjector::instance().armHang("hangapp");

    SweepSpec spec;
    for (const char *name : { "appA", "appB", "appC", "appD" })
        spec.add(name, tinyCfg(), tinyApp(name));
    spec.add("hugeapp", tinyCfg(), oversizedApp("hugeapp"));
    GpuConfig hangCfg = tinyCfg();
    hangCfg.hangWindowCycles = 3000;
    spec.add("hangapp", hangCfg, tinyApp("hangapp"));

    auto check = [&](const SweepResult &res) {
        EXPECT_EQ(res.failed, 2u);
        EXPECT_EQ(res.skipped, 0u);
        EXPECT_EQ(res.executed, spec.jobs.size());
        for (std::size_t i = 0; i < res.tags.size(); ++i) {
            const JobResult &r = res.results[i];
            if (res.tags[i] == "hugeapp") {
                EXPECT_EQ(r.status, JobStatus::Failed);
                EXPECT_NE(r.error.find("reg bytes"),
                          std::string::npos);
            } else if (res.tags[i] == "hangapp") {
                EXPECT_EQ(r.status, JobStatus::Hang);
                EXPECT_NE(r.error.find("no forward progress"),
                          std::string::npos);
            } else {
                EXPECT_EQ(r.status, JobStatus::Ok) << res.tags[i];
                EXPECT_GT(r.stats.cycles, 0u);
            }
        }
    };

    SweepEngine serial{ SweepOptions{ .jobs = 1, .cacheDir = "" } };
    SweepResult r1 = serial.run(spec);
    check(r1);

    SweepEngine parallel{ SweepOptions{ .jobs = 8, .cacheDir = "" } };
    SweepResult r8 = parallel.run(spec);
    check(r8);

    // Manifests are byte-identical at any worker count, and carry the
    // per-job status and error columns.
    EXPECT_EQ(jsonManifest(spec, r1), jsonManifest(spec, r8));
    EXPECT_EQ(csvManifest(spec, r1), csvManifest(spec, r8));
    std::string json = jsonManifest(spec, r1);
    EXPECT_NE(json.find("\"status\": \"failed\""), std::string::npos);
    EXPECT_NE(json.find("\"status\": \"hang\""), std::string::npos);
    EXPECT_NE(json.find("\"status\": \"ok\""), std::string::npos);
}

TEST_F(RobustnessTest, FailFastSkipsRemainingJobs)
{
    SweepSpec spec;
    // Big enough to sort first under longest-expected-first.
    spec.add("bad", tinyCfg(), oversizedApp("bad", 64));
    for (const char *name : { "appA", "appB", "appC" })
        spec.add(name, tinyCfg(), tinyApp(name));

    SweepOptions opts{ .jobs = 1 };
    opts.failFast = true;
    SweepEngine engine{ opts };
    SweepResult res = engine.run(spec);
    EXPECT_EQ(res.failed, 1u);
    EXPECT_EQ(res.executed, 1u);
    EXPECT_EQ(res.skipped, 3u);
    EXPECT_FALSE(res.allOk());
    for (std::size_t i = 0; i < res.tags.size(); ++i)
        if (res.tags[i] != "bad") {
            EXPECT_EQ(res.results[i].status, JobStatus::Skipped);
            EXPECT_NE(res.results[i].error.find("skipped"),
                      std::string::npos);
        }
}

TEST_F(RobustnessTest, FailFastNeverReportsACachedJobAsSkipped)
{
    // A job a failure limit leaves unclaimed is still served from the
    // cache: a cache hit is never reported as skipped.
    SweepOptions opts;
    opts.jobs = 1;
    opts.failFast = true;
    SweepEngine engine{ opts };
    SweepSpec warm;
    warm.add("appA", tinyCfg(), tinyApp("appA"));
    ASSERT_TRUE(engine.run(warm).allOk());

    SweepSpec spec;
    spec.add("bad", tinyCfg(), oversizedApp("bad", 64));  // claimed first
    spec.add("appA", tinyCfg(), tinyApp("appA"));
    spec.add("appB", tinyCfg(), tinyApp("appB"));
    SweepResult res = engine.run(spec);
    EXPECT_EQ(res.failed, 1u);
    EXPECT_EQ(res.executed, 1u);
    EXPECT_EQ(res.cacheHits, 1u);
    EXPECT_EQ(res.skipped, 1u);
    EXPECT_EQ(res.results[1].status, JobStatus::Cached);
    EXPECT_EQ(res.results[2].status, JobStatus::Skipped);
}

TEST_F(RobustnessTest, MaxFailuresBoundsTheDamage)
{
    SweepSpec spec;
    spec.add("bad1", tinyCfg(), oversizedApp("bad1", 64));
    spec.add("bad2", tinyCfg(), oversizedApp("bad2", 63));
    spec.add("good", tinyCfg(), tinyApp("good"));

    SweepOptions opts{ .jobs = 1 };
    opts.maxFailures = 2;
    SweepEngine engine{ opts };
    SweepResult res = engine.run(spec);
    EXPECT_EQ(res.failed, 2u);
    EXPECT_EQ(res.skipped, 1u);
}

// ---- worker pool containment -----------------------------------------

TEST_F(RobustnessTest, WorkerPoolCapturesPerJobExceptions)
{
    // An in-process job that throws completes as Failed with the
    // exception's message; its siblings are untouched.
    SweepSpec spec;
    for (int i = 0; i < 4; ++i) {
        std::string name = "job" + std::to_string(i);
        spec.add(name, tinyCfg(),
                 i % 2 ? oversizedApp(name) : tinyApp(name));
    }
    std::vector<JobResult> results(spec.jobs.size());
    ResultCache cache;
    Dispatcher pool({ .workers = 2, .isolate = std::nullopt }, cache,
                    [&](std::uint64_t, std::size_t i, JobResult r) {
                        results[i] = std::move(r);
                    });
    pool.enqueue(0, spec, { 0, 1, 2, 3 });
    pool.close();
    for (std::size_t i = 0; i < results.size(); ++i) {
        SCOPED_TRACE(spec.jobs[i].tag);
        if (i % 2) {
            EXPECT_EQ(results[i].status, JobStatus::Failed);
            EXPECT_NE(results[i].error.find("reg bytes"),
                      std::string::npos);
            EXPECT_EQ(results[i].stats.cycles, 0u);
        } else {
            EXPECT_EQ(results[i].status, JobStatus::Ok);
            EXPECT_TRUE(results[i].error.empty());
        }
    }
    EXPECT_EQ(pool.failedJobs(), 2u);
}

TEST_F(RobustnessTest, WorkerPoolStopPredicateHalts)
{
    // beginDrain() from a completion runs before that worker claims
    // again, so a failure limit is exact at one worker.
    SweepSpec spec;
    for (int i = 0; i < 5; ++i) {
        std::string name = "bad" + std::to_string(i);
        spec.add(name, tinyCfg(), oversizedApp(name));
    }
    std::vector<int> ran(spec.jobs.size(), 0);
    int failures = 0;
    ResultCache cache;
    std::unique_ptr<Dispatcher> pool;
    pool = std::make_unique<Dispatcher>(
        Dispatcher::Options{ .workers = 1, .isolate = std::nullopt }, cache,
        [&](std::uint64_t, std::size_t i, JobResult r) {
            ran[i] = 1;
            if (!r.ok() && ++failures >= 2)
                pool->beginDrain();
        });
    pool->enqueue(0, spec, { 0, 1, 2, 3, 4 });
    pool->close();
    EXPECT_EQ(ran[0] + ran[1] + ran[2] + ran[3] + ran[4], 2);
    EXPECT_EQ(ran[0] + ran[1], 2);  // equal costs: enqueue order
    EXPECT_EQ(pool->queueDepth(), 3u);
}

} // namespace
} // namespace scsim::runner
