/**
 * @file
 * Process-isolation and resume tests: the shared text escapers, the
 * wire records (stats, job, job-result) and their corruption
 * handling, the subprocess runner, the `run-job` IPC protocol against
 * the real CLI binary, crash containment under `sweep --isolate`, and
 * journal-based resume with byte-identical manifests.
 *
 * Labeled `isolation` in CTest.  The CLI binary's path is baked in as
 * SCSIM_CLI_PATH (the tests run from the gtest binary, which has no
 * `run-job` entry point of its own).
 */

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>
#include <sys/time.h>

#include "common/fault_inject.hh"
#include "common/text_escape.hh"
#include "expect_throw.hh"
#include "nudge_field.hh"
#include "runner/job_key.hh"
#include "runner/journal.hh"
#include "runner/report.hh"
#include "runner/subprocess.hh"
#include "runner/sweep_engine.hh"
#include "runner/wire.hh"
#include "stats/stats_io.hh"
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

std::string
freshDir(const std::string &leaf)
{
    std::string dir = testing::TempDir() + "scsim_" + leaf;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void
spew(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
}

/** A three-job spec over distinct tiny apps. */
SweepSpec
threeJobSpec()
{
    SweepSpec spec;
    spec.add("a", tinyCfg(), tinyApp("appa"));
    spec.add("b", tinyCfg(), tinyApp("appb"));
    spec.add("c", tinyCfg(), tinyApp("appc"));
    return spec;
}

/** Isolated-mode options pointing at the real CLI binary. */
SweepOptions
isolatedOpts(int jobs)
{
    SweepOptions opts;
    opts.jobs = jobs;
    opts.isolate = true;
    opts.selfExe = SCSIM_CLI_PATH;
    opts.crashAttempts = 2;
    return opts;
}

class IsolationTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        FaultInjector::instance().reset();
        unsetenv("SCSIM_FAULT_CRASH");
    }
    void TearDown() override
    {
        FaultInjector::instance().reset();
        unsetenv("SCSIM_FAULT_CRASH");
    }
};

// ---- shared text escapers ---------------------------------------------

TEST(TextEscape, EscapeLineRoundTripsHostileText)
{
    const std::string hostile = "a\nb\r\nc\\d \\n literal\n";
    const std::string one = escapeLine(hostile);
    EXPECT_EQ(one.find('\n'), std::string::npos);
    EXPECT_EQ(one.find('\r'), std::string::npos);
    EXPECT_EQ(unescapeLine(one), hostile);
    EXPECT_EQ(unescapeLine(escapeLine("")), "");
}

TEST(TextEscape, CsvFieldRoundTripsThroughSplit)
{
    const std::vector<std::string> fields = {
        "plain", "comma, inside", "quote \"inside\"", " leading space",
        "trailing space ", "new\nline", "back\\slash", "",
    };
    std::string row;
    for (std::size_t i = 0; i < fields.size(); ++i) {
        if (i)
            row += ',';
        row += csvField(fields[i]);
    }
    EXPECT_EQ(row.find('\n'), std::string::npos);

    std::vector<std::string> back;
    ASSERT_TRUE(splitCsvRow(row, back));
    ASSERT_EQ(back.size(), fields.size());
    for (std::size_t i = 0; i < fields.size(); ++i)
        EXPECT_EQ(unescapeLine(back[i]), fields[i]) << "field " << i;
}

TEST(TextEscape, SplitCsvRowRejectsUnterminatedQuote)
{
    std::vector<std::string> out;
    EXPECT_FALSE(splitCsvRow("ok,\"unterminated", out));
}

TEST(TextEscape, JsonEscapeCoversQuotesBackslashesAndControls)
{
    EXPECT_EQ(jsonEscape("a\"b\\c"), "a\\\"b\\\\c");
    EXPECT_EQ(jsonEscape("nl\ntab\t"), "nl\\ntab\\t");
    EXPECT_EQ(jsonEscape(std::string(1, '\x01')), "\\u0001");
}

TEST(TextEscape, CsvManifestHostileErrorRoundTrips)
{
    SweepSpec spec;
    spec.add("t,ag \"q\"", tinyCfg(), tinyApp("evil\napp"));

    SweepResult res;
    res.tags = { spec.jobs[0].tag };
    res.results.resize(1);
    res.results[0].key = jobKey(spec.jobs[0]);
    res.results[0].status = JobStatus::Failed;
    res.results[0].error = "boom, \"quoted\"\nsecond line, with comma";

    const std::string csv = csvManifest(spec, res);
    // Hostile newlines must not add physical rows: header + one row.
    ASSERT_EQ(std::count(csv.begin(), csv.end(), '\n'), 2);

    const std::size_t nl = csv.find('\n');
    const std::string row = csv.substr(nl + 1, csv.size() - nl - 2);
    std::vector<std::string> fields;
    ASSERT_TRUE(splitCsvRow(row, fields));
    ASSERT_GE(fields.size(), 8u);
    EXPECT_EQ(unescapeLine(fields[0]), spec.jobs[0].tag);
    EXPECT_EQ(unescapeLine(fields[1]), "evil\napp");
    EXPECT_EQ(fields[4], "failed");
    EXPECT_EQ(unescapeLine(fields[5]), res.results[0].error);

    // The JSON manifest carries the same error, JSON-escaped.
    const std::string json = jsonManifest(spec, res);
    EXPECT_NE(json.find(jsonEscape(res.results[0].error)),
              std::string::npos);
}

// ---- stats wire payload -----------------------------------------------

SimStats
sampleStats(std::uint64_t base)
{
    SimStats s;
    s.cycles = base + 1;
    s.instructions = base + 2;
    s.threadInstructions = base + 3;
    s.rfReads = base + 4;
    s.rfWrites = base + 5;
    s.l1Accesses = base + 6;
    s.l2Misses = base + 7;
    s.blocksCompleted = base + 8;
    s.warpsCompleted = base + 9;
    s.kernelSpans.emplace_back("k\nname-" + std::to_string(base),
                               base + 10);
    return s;
}

TEST(StatsWire, PayloadRoundTripsByteIdentically)
{
    const SimStats s = sampleStats(100);
    const std::string payload = serializeStatsPayload(s);
    SimStats back;
    ASSERT_TRUE(parseStatsPayload(payload, back));
    EXPECT_EQ(serializeStatsPayload(back), payload);
    EXPECT_EQ(back.cycles, s.cycles);
    ASSERT_EQ(back.kernelSpans.size(), 1u);
    EXPECT_EQ(back.kernelSpans[0].first, s.kernelSpans[0].first);
}

TEST(StatsWire, MergeAfterParseEqualsMergeBeforeSerialize)
{
    SimStats a = sampleStats(100);
    SimStats b = sampleStats(5000);

    SimStats mergedOriginals = a;
    mergedOriginals.merge(b);

    SimStats pa, pb;
    ASSERT_TRUE(parseStatsPayload(serializeStatsPayload(a), pa));
    ASSERT_TRUE(parseStatsPayload(serializeStatsPayload(b), pb));
    pa.merge(pb);

    EXPECT_EQ(serializeStatsPayload(pa),
              serializeStatsPayload(mergedOriginals));
}

TEST(StatsWire, UnknownKeysAreSkippedForwardCompatibly)
{
    const SimStats s = sampleStats(7);
    std::string payload = serializeStatsPayload(s);
    payload += "futureCounter 99\n";
    SimStats back;
    ASSERT_TRUE(parseStatsPayload(payload, back));
    EXPECT_EQ(serializeStatsPayload(back), serializeStatsPayload(s));
}

// ---- framed wire records ----------------------------------------------

JobResult
sampleResult()
{
    JobResult r;
    r.key = 0x0123456789abcdefULL;
    r.stats = sampleStats(42);
    r.status = JobStatus::Crashed;
    r.error = "worker crashed: signal 11\nwith a second line";
    r.cached = false;
    r.wallMs = 12.5;
    r.exitCode = -1;
    r.termSignal = 11;
    r.attempts = 3;
    return r;
}

TEST(Wire, JobResultRoundTripsByteIdentically)
{
    const JobResult r = sampleResult();
    const std::string text = serializeJobResult(r);

    JobResult back;
    ASSERT_EQ(decodeJobResult(text, back), WireDecode::Ok);
    EXPECT_EQ(back.key, r.key);
    EXPECT_EQ(back.status, JobStatus::Crashed);
    EXPECT_EQ(back.error, r.error);
    EXPECT_EQ(back.termSignal, 11);
    EXPECT_EQ(back.exitCode, -1);
    EXPECT_EQ(back.attempts, 3);
    EXPECT_EQ(back.wallMs, r.wallMs);
    EXPECT_EQ(serializeJobResult(back), text);
}

TEST(Wire, RejectsTruncationTamperingAndVersionSkew)
{
    const std::string text = serializeJobResult(sampleResult());
    JobResult out;

    // Truncated anywhere: mid-payload and mid-header.
    EXPECT_EQ(decodeJobResult(text.substr(0, text.size() / 2), out),
              WireDecode::Corrupt);
    EXPECT_EQ(decodeJobResult(text.substr(0, 10), out),
              WireDecode::Corrupt);
    EXPECT_EQ(decodeJobResult("", out), WireDecode::Corrupt);

    // One flipped payload byte fails the checksum.
    std::string tampered = text;
    tampered[tampered.size() / 2] ^= 1;
    EXPECT_EQ(decodeJobResult(tampered, out), WireDecode::Corrupt);

    // A different format version is skew, not corruption.
    std::string skewed = text;
    const std::size_t v = skewed.find(" v1 ");
    ASSERT_NE(v, std::string::npos);
    skewed.replace(v, 4, " v9 ");
    EXPECT_EQ(decodeJobResult(skewed, out), WireDecode::VersionSkew);

    // A well-formed record of another kind is not a job result.
    EXPECT_EQ(decodeJobResult(serializeStats(SimStats{}), out),
              WireDecode::Corrupt);
}

TEST(Wire, SimJobRoundTripsByteIdentically)
{
    SimJob job;
    job.tag = "rt\njob, \"hostile\"";
    // Every config and app field off its default.
    forEachField(job.cfg, [](const char *, auto &field) { nudge(field); });
    forEachField(job.app, [](const char *, auto &field) { nudge(field); });
    job.app.name = "round\ntrip";
    job.app.divPattern = { 1.0, 0.625, 0.25 };
    job.salt = 77;
    job.concurrent = true;

    const std::string text = serializeJob(job);
    SimJob back;
    ASSERT_EQ(parseJob(text, back), WireDecode::Ok);
    EXPECT_EQ(back.tag, job.tag);
    EXPECT_EQ(canonicalText(back), canonicalText(job));
    EXPECT_EQ(jobKey(back), jobKey(job));
    EXPECT_EQ(serializeJob(back), text);
}

TEST(Wire, ParseJobRefusesSignOnUnsignedField)
{
    SimJob job;
    job.app = tinyApp("signed");
    const std::string text = serializeJob(job);
    const std::string magic = text.substr(0, text.find(' '));
    const std::string payload = text.substr(text.find('\n') + 1);
    // Re-frame @p payload with one line swapped, checksum and all.
    auto swapped = [&](const std::string &from, const std::string &to) {
        std::string p = payload;
        auto at = p.find(from);
        EXPECT_NE(at, std::string::npos) << from;
        p.replace(at, from.size(), to);
        return frameRecord(magic.c_str(), kJobWireVersion, p);
    };

    SimJob back;
    EXPECT_EQ(parseJob(swapped("\napp.smemBytesPerBlock 0\n",
                               "\napp.smemBytesPerBlock -1\n"), back),
              WireDecode::Corrupt);
    EXPECT_EQ(parseJob(swapped("\napp.footprintMB 1\n",
                               "\napp.footprintMB -1\n"), back),
              WireDecode::Corrupt);
    EXPECT_THROW_WITH(parseJob(swapped("\ncfg maxCycles 200000000\n",
                                       "\ncfg maxCycles -1\n"), back),
                      ConfigError, "cannot parse value '-1'");
}

// ---- subprocess runner ------------------------------------------------

TEST(Subprocess, CapturesExitCodeStdinAndStdout)
{
    SubprocessResult r = runSubprocess(
        { "/bin/sh", "-c", "cat; exit 3" }, "fed\nthrough\n", 30.0);
    EXPECT_EQ(r.exitCode, 3);
    EXPECT_EQ(r.termSignal, 0);
    EXPECT_FALSE(r.timedOut);
    EXPECT_EQ(r.stdoutText, "fed\nthrough\n");
    EXPECT_FALSE(r.exitedCleanly());

    SubprocessResult ok =
        runSubprocess({ "/bin/sh", "-c", "exit 0" }, "", 30.0);
    EXPECT_TRUE(ok.exitedCleanly());
}

TEST(Subprocess, ReportsFatalSignal)
{
    SubprocessResult r = runSubprocess(
        { "/bin/sh", "-c", "kill -s SEGV $$" }, "", 30.0);
    EXPECT_EQ(r.termSignal, SIGSEGV);
    EXPECT_FALSE(r.timedOut);
    EXPECT_FALSE(r.exitedCleanly());
}

TEST(Subprocess, BoundsStderrToItsTail)
{
    SubprocessResult r = runSubprocess(
        { "/bin/sh", "-c",
          "i=0; while [ $i -lt 400 ]; do echo 0123456789abcdef 1>&2; "
          "i=$((i+1)); done" },
        "", 30.0, /*tailBytes=*/256);
    EXPECT_LE(r.stderrTail.size(), 256u);
    ASSERT_GE(r.stderrTail.size(), 17u);
    EXPECT_EQ(r.stderrTail.substr(r.stderrTail.size() - 17),
              "0123456789abcdef\n");
}

TEST(Subprocess, TimeoutKillsTheChild)
{
    SubprocessResult r =
        runSubprocess({ "/bin/sh", "-c", "sleep 30" }, "", 0.5);
    EXPECT_TRUE(r.timedOut);
    EXPECT_TRUE(r.termSignal == SIGTERM || r.termSignal == SIGKILL)
        << "termSignal " << r.termSignal;
}

TEST(Subprocess, TimeoutKillsAChildThatClosedItsPipes)
{
    // No pipe is left to wake the parent: only the deadline ends it.
    SubprocessResult r = runSubprocess(
        { "/bin/sh", "-c", "exec <&- >&- 2>&-; sleep 30" }, "", 0.5);
    EXPECT_TRUE(r.timedOut);
    EXPECT_TRUE(r.termSignal == SIGTERM || r.termSignal == SIGKILL)
        << "termSignal " << r.termSignal;
}

TEST(Subprocess, ReapsPromptlyAfterPipesClose)
{
    // Each child outlives its closed pipes by 5 ms, so a reap that
    // waits 20 ms or more after the pipes close needs at least
    // kRuns x 20 ms in all; a prompt one needs about kRuns x 7 ms.
    // Both exit watches are held to it: the pidfd and the waitpid poll
    // used where there is none.  Registered RUN_SERIAL
    // (tests/CMakeLists.txt): the bound is on wall-clock time.
    constexpr int kRuns = 50;
    for (auto run : { runSubprocess, runSubprocessWithoutPidfd }) {
        auto start = std::chrono::steady_clock::now();
        for (int i = 0; i < kRuns; ++i) {
            SubprocessResult r = run(
                { "/bin/sh", "-c", "exec >&- 2>&-; sleep 0.005; exit 4" },
                "", 30.0, 8192);
            EXPECT_EQ(r.exitCode, 4);
            EXPECT_EQ(r.termSignal, 0);
        }
        EXPECT_LT(std::chrono::steady_clock::now() - start,
                  std::chrono::milliseconds(kRuns * 15))
            << (run == runSubprocess ? "pidfd" : "waitpid poll");
    }
}

TEST(Subprocess, WithoutPidfdReportsEveryOutcome)
{
    // The path taken where pidfd_open fails keeps the same contract.
    SubprocessResult r = runSubprocessWithoutPidfd(
        { "/bin/sh", "-c", "cat; exit 3" }, "fed\nthrough\n", 30.0);
    EXPECT_EQ(r.exitCode, 3);
    EXPECT_EQ(r.stdoutText, "fed\nthrough\n");
    EXPECT_FALSE(r.timedOut);

    r = runSubprocessWithoutPidfd({ "/bin/sh", "-c", "kill -s SEGV $$" },
                                  "", 30.0);
    EXPECT_EQ(r.termSignal, SIGSEGV);

    r = runSubprocessWithoutPidfd({ "/bin/sh", "-c", "sleep 30" }, "", 0.5);
    EXPECT_TRUE(r.timedOut);
    EXPECT_TRUE(r.termSignal == SIGTERM || r.termSignal == SIGKILL)
        << "termSignal " << r.termSignal;

    r = runSubprocessWithoutPidfd(
        { "/bin/sh", "-c", "exec <&- >&- 2>&-; sleep 30" }, "", 0.5);
    EXPECT_TRUE(r.timedOut);
    EXPECT_TRUE(r.termSignal == SIGTERM || r.termSignal == SIGKILL)
        << "termSignal " << r.termSignal;

    r = runSubprocessWithoutPidfd({ "/nonexistent/scsim-no-such-binary" },
                                  "", 30.0);
    EXPECT_EQ(r.exitCode, 127);
}

TEST(Subprocess, SignalDoesNotEndTheWaitEarly)
{
    // `serve` catches SIGTERM, and poll() is not restarted after a
    // handler runs.  The child exits at once but leaves a grandchild
    // holding stdout that writes 30 ms later, inside the quiet interval;
    // SIGALRM every 5 ms must not cut that interval short.
    struct sigaction sa = {}, old = {};
    sa.sa_handler = [](int) {};
    ASSERT_EQ(::sigaction(SIGALRM, &sa, &old), 0);
    itimerval every5ms = { { 0, 5000 }, { 0, 5000 } }, off = {};
    ASSERT_EQ(::setitimer(ITIMER_REAL, &every5ms, nullptr), 0);
    SubprocessResult r = runSubprocess(
        { "/bin/sh", "-c", "(sleep 0.03; echo late) & exit 0" }, "", 30.0);
    ::setitimer(ITIMER_REAL, &off, nullptr);
    ::sigaction(SIGALRM, &old, nullptr);
    EXPECT_EQ(r.exitCode, 0);
    EXPECT_EQ(r.stdoutText, "late\n");
}

TEST(Subprocess, ExecFailureReportsExit127)
{
    SubprocessResult r = runSubprocess(
        { "/nonexistent/scsim-no-such-binary" }, "", 30.0);
    EXPECT_EQ(r.exitCode, 127);
    EXPECT_EQ(r.termSignal, 0);
}

// ---- crash injection hooks --------------------------------------------

TEST_F(IsolationTest, CrashInjectorMatchesByTokenAndResets)
{
    FaultInjector &fi = FaultInjector::instance();
    EXPECT_EQ(fi.crashSignalFor("crash-micro-k0"), 0);

    fi.raiseSignalInKernel("crash-micro", SIGSEGV);
    EXPECT_EQ(fi.crashSignalFor("crash-micro-k0"), SIGSEGV);
    EXPECT_EQ(fi.crashSignalFor("other-kernel"), 0);

    fi.reset();
    EXPECT_EQ(fi.crashSignalFor("crash-micro-k0"), 0);
}

TEST_F(IsolationTest, ArmCrashFromEnvParsesTheThreeForms)
{
    FaultInjector &fi = FaultInjector::instance();
    EXPECT_TRUE(fi.armCrashFromEnv("tok"));
    EXPECT_EQ(fi.crashSignalFor("tok-k0"), SIGSEGV);

    EXPECT_TRUE(fi.armCrashFromEnv("tok:abort"));
    EXPECT_EQ(fi.crashSignalFor("tok-k0"), SIGABRT);

    EXPECT_TRUE(fi.armCrashFromEnv("tok:6"));
    EXPECT_EQ(fi.crashSignalFor("tok-k0"), 6);

    EXPECT_FALSE(fi.armCrashFromEnv(nullptr));
    EXPECT_FALSE(fi.armCrashFromEnv(""));
    EXPECT_FALSE(fi.armCrashFromEnv(":abort"));
}

TEST_F(IsolationTest, CrashMicroIsARunnableKernel)
{
    const KernelDesc kd = makeCrashMicro();
    EXPECT_EQ(kd.name, "crash-micro");
    EXPECT_GT(kd.numBlocks, 0);
    EXPECT_GT(kd.warpsPerBlock, 0);
    EXPECT_FALSE(kd.shapes.empty());
}

// ---- run-job IPC against the real CLI ---------------------------------

TEST_F(IsolationTest, RunJobProtocolMatchesInProcessExecution)
{
    SimJob job;
    job.tag = "proto";
    job.cfg = tinyCfg();
    job.app = tinyApp("proto-app");

    // Reference: the same job through the in-process engine.
    SweepSpec spec;
    spec.jobs.push_back(job);
    SweepOptions inproc;
    inproc.jobs = 1;
    SweepResult ref = SweepEngine(inproc).run(spec);
    ASSERT_EQ(ref.results[0].status, JobStatus::Ok);

    SubprocessResult sub = runSubprocess(
        { SCSIM_CLI_PATH, "run-job" }, serializeJob(job), 120.0);
    ASSERT_TRUE(sub.exitedCleanly())
        << "exit " << sub.exitCode << " signal " << sub.termSignal
        << "\n" << sub.stderrTail;

    JobResult r;
    ASSERT_EQ(decodeJobResult(sub.stdoutText, r), WireDecode::Ok);
    EXPECT_EQ(r.status, JobStatus::Ok);
    EXPECT_EQ(r.error, "");
    EXPECT_EQ(r.key, jobKey(job));
    EXPECT_EQ(serializeStatsPayload(r.stats),
              serializeStatsPayload(ref.results[0].stats));
}

TEST_F(IsolationTest, IsolatedSweepMatchesInProcessManifests)
{
    const SweepSpec spec = threeJobSpec();

    SweepOptions inproc;
    inproc.jobs = 1;
    SweepResult ref = SweepEngine(inproc).run(spec);
    ASSERT_TRUE(ref.allOk());

    SweepResult iso = SweepEngine(isolatedOpts(2)).run(spec);
    ASSERT_TRUE(iso.allOk());
    EXPECT_EQ(iso.executed, 3u);
    for (const JobResult &r : iso.results)
        EXPECT_EQ(r.attempts, 1);

    EXPECT_EQ(jsonManifest(spec, iso), jsonManifest(spec, ref));
    EXPECT_EQ(csvManifest(spec, iso), csvManifest(spec, ref));
}

TEST_F(IsolationTest, IsolatedSweepContainsAnInjectedCrash)
{
    const SweepSpec spec = threeJobSpec();
    // Workers inherit the environment; only kernels of "appb" match.
    setenv("SCSIM_FAULT_CRASH", "appb", 1);

    SweepResult res = SweepEngine(isolatedOpts(2)).run(spec);

    ASSERT_EQ(res.results.size(), 3u);
    EXPECT_EQ(res.results[0].status, JobStatus::Ok);
    EXPECT_EQ(res.results[2].status, JobStatus::Ok);

    const JobResult &crashed = res.results[1];
    EXPECT_EQ(crashed.status, JobStatus::Crashed);
    EXPECT_TRUE(crashed.termSignal == SIGSEGV || crashed.exitCode != 0)
        << "signal " << crashed.termSignal << " exit "
        << crashed.exitCode;
    EXPECT_NE(crashed.error, "");
    EXPECT_EQ(crashed.attempts, 2);  // crashAttempts consumed
    EXPECT_EQ(res.failed, 1u);
    EXPECT_FALSE(res.allOk());

    const std::string json = jsonManifest(spec, res);
    EXPECT_NE(json.find("\"status\": \"crashed\""), std::string::npos);
}

TEST_F(IsolationTest, CrashManifestIdenticalAcrossWorkerCounts)
{
    const SweepSpec spec = threeJobSpec();
    setenv("SCSIM_FAULT_CRASH", "appc", 1);

    SweepResult one = SweepEngine(isolatedOpts(1)).run(spec);
    SweepResult three = SweepEngine(isolatedOpts(3)).run(spec);

    EXPECT_EQ(one.results[2].status, JobStatus::Crashed);
    EXPECT_EQ(jsonManifest(spec, one), jsonManifest(spec, three));
    EXPECT_EQ(csvManifest(spec, one), csvManifest(spec, three));
}

// ---- journal and resume -----------------------------------------------

TEST_F(IsolationTest, JournalRecordsEveryFinishedJob)
{
    const SweepSpec spec = threeJobSpec();
    const std::string dir = freshDir("journal_basic");
    const std::string path = dir + "/sweep.journal";

    SweepOptions opts;
    opts.jobs = 1;
    opts.journalPath = path;
    SweepResult res = SweepEngine(opts).run(spec);
    ASSERT_TRUE(res.allOk());

    JournalContents j = readJournal(path);
    EXPECT_EQ(j.specHash, sweepSpecHash(spec));
    EXPECT_EQ(j.jobCount, 3u);
    EXPECT_EQ(j.dropped, 0u);
    ASSERT_EQ(j.records.size(), 3u);
    for (const JournalRecord &rec : j.records) {
        ASSERT_LT(rec.index, spec.jobs.size());
        EXPECT_EQ(rec.tag, spec.jobs[rec.index].tag);
        EXPECT_EQ(rec.result.status, JobStatus::Ok);
        EXPECT_EQ(rec.result.key, res.results[rec.index].key);
    }
    std::filesystem::remove_all(dir);
}

TEST_F(IsolationTest, SpecHashPinsJobIdentityOrderAndCount)
{
    SweepSpec spec = threeJobSpec();
    const std::uint64_t h = sweepSpecHash(spec);

    SweepSpec reordered = spec;
    std::swap(reordered.jobs[0], reordered.jobs[1]);
    EXPECT_NE(sweepSpecHash(reordered), h);

    SweepSpec edited = spec;
    edited.jobs[2].salt = 1;
    EXPECT_NE(sweepSpecHash(edited), h);

    SweepSpec shorter = spec;
    shorter.jobs.pop_back();
    EXPECT_NE(sweepSpecHash(shorter), h);
}

TEST_F(IsolationTest, ResumeFromTruncatedJournalIsByteIdentical)
{
    const SweepSpec spec = threeJobSpec();
    const std::string dir = freshDir("journal_resume");
    const std::string path = dir + "/sweep.journal";

    SweepOptions opts;
    opts.jobs = 1;
    opts.journalPath = path;
    SweepResult clean = SweepEngine(opts).run(spec);
    ASSERT_TRUE(clean.allOk());
    const std::string jsonClean = jsonManifest(spec, clean);
    const std::string csvClean = csvManifest(spec, clean);

    // Simulate a SIGKILL mid-append: keep the first record intact,
    // cut the second record in half, lose the third entirely.
    const std::string full = slurp(path);
    const std::size_t rec1 = full.find("record ");
    ASSERT_NE(rec1, std::string::npos);
    const std::size_t rec2 = full.find("record ", rec1 + 1);
    ASSERT_NE(rec2, std::string::npos);
    spew(path, full.substr(0, rec2 + 24));

    JournalContents j = readJournal(path);
    EXPECT_EQ(j.records.size(), 1u);
    EXPECT_GE(j.dropped, 1u);

    SweepOptions resume = opts;
    resume.resumePath = path;
    SweepResult resumed = SweepEngine(resume).run(spec);
    EXPECT_EQ(resumed.resumed, 1u);
    EXPECT_EQ(resumed.executed, 3u);  // 1 adopted + 2 re-run

    EXPECT_EQ(jsonManifest(spec, resumed), jsonClean);
    EXPECT_EQ(csvManifest(spec, resumed), csvClean);

    // The rewritten journal is complete and clean again: the damaged
    // tail was scrubbed, not left stranded mid-file.
    JournalContents after = readJournal(path);
    EXPECT_EQ(after.records.size(), 3u);
    EXPECT_EQ(after.dropped, 0u);
    std::filesystem::remove_all(dir);
}

TEST_F(IsolationTest, ResumeFromCompleteJournalRunsNothing)
{
    const SweepSpec spec = threeJobSpec();
    const std::string dir = freshDir("journal_complete");
    const std::string path = dir + "/sweep.journal";

    SweepOptions opts;
    opts.jobs = 2;
    opts.journalPath = path;
    SweepResult clean = SweepEngine(opts).run(spec);
    ASSERT_TRUE(clean.allOk());

    SweepOptions resume = opts;
    resume.resumePath = path;
    SweepResult resumed = SweepEngine(resume).run(spec);
    EXPECT_EQ(resumed.resumed, 3u);
    EXPECT_EQ(resumed.cacheHits, 0u);
    EXPECT_EQ(jsonManifest(spec, resumed), jsonManifest(spec, clean));
    std::filesystem::remove_all(dir);
}

TEST_F(IsolationTest, ResumeRejectsAJournalFromAnotherSweep)
{
    const SweepSpec spec = threeJobSpec();
    const std::string dir = freshDir("journal_mismatch");
    const std::string path = dir + "/sweep.journal";

    SweepOptions opts;
    opts.jobs = 1;
    opts.journalPath = path;
    ASSERT_TRUE(SweepEngine(opts).run(spec).allOk());

    SweepSpec other = threeJobSpec();
    other.jobs[1].app = tinyApp("different");
    SweepOptions resume;
    resume.jobs = 1;
    resume.resumePath = path;
    EXPECT_THROW_WITH(SweepEngine(resume).run(other), ConfigError,
                      "different sweep");
    std::filesystem::remove_all(dir);
}

TEST_F(IsolationTest, ResumeAfterCrashDoesNotReRunAdoptedJobs)
{
    const SweepSpec spec = threeJobSpec();
    const std::string dir = freshDir("journal_crash_resume");
    const std::string path = dir + "/sweep.journal";

    setenv("SCSIM_FAULT_CRASH", "appb", 1);
    SweepOptions opts = isolatedOpts(1);
    opts.journalPath = path;
    SweepResult first = SweepEngine(opts).run(spec);
    EXPECT_EQ(first.results[1].status, JobStatus::Crashed);
    const std::string jsonFirst = jsonManifest(spec, first);

    // Resume with the fault disarmed: every outcome — including the
    // crash — was journaled, so nothing re-runs and the crash record
    // survives verbatim.
    unsetenv("SCSIM_FAULT_CRASH");
    SweepOptions resume = opts;
    resume.resumePath = path;
    SweepResult resumed = SweepEngine(resume).run(spec);
    EXPECT_EQ(resumed.resumed, 3u);
    EXPECT_EQ(resumed.results[1].status, JobStatus::Crashed);
    EXPECT_EQ(jsonManifest(spec, resumed), jsonFirst);
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace scsim::runner
