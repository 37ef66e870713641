/**
 * @file
 * Sweep-farm tests: the stream transport (FrameAssembler fed one byte
 * at a time, split across checksum boundaries), the farm protocol
 * records, protocol-version rejection, the result cache's disk cap,
 * and the daemon end to end — an in-process FarmServer on an
 * ephemeral loopback port, real `run-job` worker subprocesses, and
 * FarmClient submissions whose manifests must be byte-identical to a
 * local SweepEngine run at any worker count, through crashes,
 * SIGKILLed workers, concurrent duplicate clients and daemon
 * restarts.
 *
 * Labeled `farm` in CTest; included in the tsan/asan presets.  The
 * CLI binary's path is baked in as SCSIM_CLI_PATH (workers are real
 * subprocesses).
 */

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <poll.h>

#include <gtest/gtest.h>

#include "common/fault_inject.hh"
#include "expect_throw.hh"
#include "farm/farm_client.hh"
#include "farm/farm_server.hh"
#include "farm/protocol.hh"
#include "runner/job_key.hh"
#include "runner/journal.hh"
#include "runner/report.hh"
#include "runner/result_cache.hh"
#include "runner/sweep_engine.hh"
#include "runner/wire.hh"
#include "workloads/suite.hh"

namespace scsim::farm {
namespace {

using runner::FrameAssembler;
using runner::JobResult;
using runner::JobStatus;
using runner::SimJob;
using runner::SweepEngine;
using runner::SweepOptions;
using runner::SweepResult;
using runner::SweepSpec;
using runner::WireDecode;

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
    std::string dir = testing::TempDir() + "scsim_farm_" + leaf;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

SweepSpec
threeJobSpec()
{
    SweepSpec spec;
    spec.add("a", tinyCfg(), tinyApp("appa"));
    spec.add("b", tinyCfg(), tinyApp("appb"));
    spec.add("c", tinyCfg(), tinyApp("appc"));
    return spec;
}

/** What a local engine (no cache, isolated) says about @p spec. */
SweepResult
localRun(const SweepSpec &spec)
{
    SweepOptions opts;
    opts.jobs = 2;
    opts.progress = false;
    opts.isolate = true;
    opts.selfExe = SCSIM_CLI_PATH;
    SweepEngine engine(opts);
    return engine.run(spec);
}

/** A daemon on an ephemeral loopback port, run()ning on a thread. */
class ServerRunner
{
  public:
    explicit ServerRunner(FarmServerOptions opts)
    {
        opts.tcpPort = 0;
        opts.selfExe = SCSIM_CLI_PATH;
        server_ = std::make_unique<FarmServer>(std::move(opts));
        thread_ = std::thread([this] { server_->run(); });
    }

    ~ServerRunner() { stop(); }

    void
    stop()
    {
        if (thread_.joinable()) {
            server_->stop();
            thread_.join();
        }
    }

    int port() const { return server_->boundTcpPort(); }

    FarmServer &server() { return *server_; }

    /** Wait for run() to return on its own (drain tests). */
    void
    waitExit()
    {
        if (thread_.joinable())
            thread_.join();
    }

  private:
    std::unique_ptr<FarmServer> server_;
    std::thread thread_;
};

class FarmTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        FaultInjector::instance().reset();
        unsetenv("SCSIM_FAULT_CRASH");
        unsetenv("SCSIM_FAULT_CRASH_ONCE");
        unsetenv("SCSIM_FAULT_HANG");
    }
    void TearDown() override
    {
        FaultInjector::instance().reset();
        unsetenv("SCSIM_FAULT_CRASH");
        unsetenv("SCSIM_FAULT_CRASH_ONCE");
        unsetenv("SCSIM_FAULT_HANG");
    }
};

// ---- FrameAssembler: incremental transport reassembly -----------------

TEST(FrameAssembler, ReassemblesOneByteAtATime)
{
    // A real framed record, checksum and all, fed one byte at a time:
    // the assembler must never yield early and must yield exactly the
    // original frame.
    std::string frame =
        runner::frameRecord("scsim-test", 1, "k v\nline two\n");
    std::string wire = runner::envelopeFrame(frame);

    FrameAssembler as;
    std::string out;
    for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
        as.feed(wire.data() + i, 1);
        EXPECT_FALSE(as.next(out)) << "yielded early at byte " << i;
    }
    as.feed(wire.data() + wire.size() - 1, 1);
    ASSERT_TRUE(as.next(out));
    EXPECT_EQ(out, frame);
    EXPECT_FALSE(as.next(out));
    EXPECT_FALSE(as.corrupt());
    EXPECT_EQ(as.buffered(), 0u);
}

TEST(FrameAssembler, ReassemblesAcrossEverySplitPoint)
{
    // Two frames back to back, split into two feeds at every possible
    // boundary — including mid-envelope-line and mid-checksum.
    std::string f1 = runner::frameRecord("scsim-test", 1, "first\n");
    std::string f2 = runner::frameRecord("scsim-test", 1, "second\n");
    std::string wire =
        runner::envelopeFrame(f1) + runner::envelopeFrame(f2);

    for (std::size_t cut = 0; cut <= wire.size(); ++cut) {
        FrameAssembler as;
        as.feed(wire.data(), cut);
        as.feed(wire.data() + cut, wire.size() - cut);
        std::string a, b, extra;
        ASSERT_TRUE(as.next(a)) << "cut at " << cut;
        ASSERT_TRUE(as.next(b)) << "cut at " << cut;
        EXPECT_EQ(a, f1);
        EXPECT_EQ(b, f2);
        EXPECT_FALSE(as.next(extra));
        EXPECT_FALSE(as.corrupt());
    }
}

TEST(FrameAssembler, ManyFramesInOneFeed)
{
    std::vector<std::string> frames;
    std::string wire;
    for (int i = 0; i < 17; ++i) {
        frames.push_back(runner::frameRecord(
            "scsim-test", 1, "payload " + std::to_string(i) + "\n"));
        wire += runner::envelopeFrame(frames.back());
    }
    FrameAssembler as;
    as.feed(wire);
    std::string out;
    for (int i = 0; i < 17; ++i) {
        ASSERT_TRUE(as.next(out)) << "frame " << i;
        EXPECT_EQ(out, frames[static_cast<std::size_t>(i)]);
    }
    EXPECT_FALSE(as.next(out));
}

TEST(FrameAssembler, GarbageEnvelopePoisonsTheStream)
{
    FrameAssembler as;
    as.feed(std::string("not-an-envelope 12\nxxxxxxxxxxxx"));
    std::string out;
    EXPECT_FALSE(as.next(out));
    EXPECT_TRUE(as.corrupt());
    // Once poisoned, even a well-formed frame is not recovered: there
    // is no resynchronisation on a byte stream.
    as.feed(runner::envelopeFrame(
        runner::frameRecord("scsim-test", 1, "x\n")));
    EXPECT_FALSE(as.next(out));
    EXPECT_TRUE(as.corrupt());
}

TEST(FrameAssembler, OversizeFrameIsCorrupt)
{
    FrameAssembler as(1024);
    as.feed(std::string("frame 4096\n"));
    std::string out;
    EXPECT_FALSE(as.next(out));
    EXPECT_TRUE(as.corrupt());
}

TEST(FrameAssembler, EndlessHeaderLineIsCorrupt)
{
    FrameAssembler as;
    as.feed(std::string(64, 'a'));  // no newline, too long for a header
    std::string out;
    EXPECT_FALSE(as.next(out));
    EXPECT_TRUE(as.corrupt());
}

TEST(FrameAssembler, TrailingTokenOnEnvelopeIsCorrupt)
{
    FrameAssembler as;
    as.feed(std::string("frame 3 extra\nabc"));
    std::string out;
    EXPECT_FALSE(as.next(out));
    EXPECT_TRUE(as.corrupt());
}

// ---- FrameAssembler fuzz-regression corpus ----------------------------
//
// Hand-picked hostile inputs the seeded fuzzer (test_farm_fuzz.cc)
// hits by the million; pinned here so each stays covered in the plain
// preset at human-readable size.

TEST(FrameAssemblerCorpus, EnvelopeClaimingFewerBytesYieldsTruncation)
{
    // The envelope lies low: the "frame" it delimits is a truncated
    // record (the checksum layer rejects it), and the real frame's
    // tail then reads as a garbage envelope line, poisoning the
    // stream — never a silently resynchronised parse.
    std::string frame =
        runner::frameRecord("scsim-test", 1, "k v\npayload line\n");
    std::string wire =
        "frame " + std::to_string(frame.size() - 10) + "\n" + frame;

    FrameAssembler as;
    as.feed(wire);
    std::string out;
    ASSERT_TRUE(as.next(out));
    EXPECT_EQ(out.size(), frame.size() - 10);
    std::string payload;
    EXPECT_EQ(runner::unframeRecord("scsim-test", 1, out, payload),
              WireDecode::Corrupt);
    EXPECT_FALSE(as.next(out));
    EXPECT_TRUE(as.corrupt());
}

TEST(FrameAssemblerCorpus, EnvelopeClaimingMoreBytesSwallowsNextFrame)
{
    // The envelope lies high: the declared frame swallows the start
    // of the next envelope, so neither record survives — the one
    // yielded frame fails its checksum, and nothing valid follows.
    std::string f1 = runner::frameRecord("scsim-test", 1, "first\n");
    std::string f2 = runner::frameRecord("scsim-test", 1, "second\n");
    std::string wire = "frame " + std::to_string(f1.size() + 8) + "\n"
        + f1 + runner::envelopeFrame(f2);

    FrameAssembler as;
    as.feed(wire);
    std::string out;
    int yielded = 0;
    while (as.next(out)) {
        ++yielded;
        std::string payload;
        EXPECT_EQ(runner::unframeRecord("scsim-test", 1, out, payload),
                  WireDecode::Corrupt);
    }
    EXPECT_LE(yielded, 2);
    EXPECT_NE(out, f2);
}

TEST(FrameAssemblerCorpus, LyingEnvelopeSplitAtEveryOffsetNeverPanics)
{
    // Every split point of a lying envelope (nbytes one too small and
    // one too large), fed in two chunks: the assembler must never
    // yield the original frame and must never crash — truncated or
    // swallowed, plus whatever follows, is at worst poison.
    std::string frame = runner::frameRecord("scsim-test", 1, "abc\n");
    for (long lie : { -1L, 1L }) {
        std::string wire = "frame "
            + std::to_string(static_cast<long>(frame.size()) + lie)
            + "\n" + frame;
        for (std::size_t cut = 0; cut <= wire.size(); ++cut) {
            FrameAssembler as;
            as.feed(wire.data(), cut);
            as.feed(wire.data() + cut, wire.size() - cut);
            std::string out;
            while (as.next(out))
                EXPECT_NE(out, frame)
                    << "lie=" << lie << " cut=" << cut;
        }
    }
}

TEST(FrameAssemblerCorpus, FrameAtExactlyTheCapIsAccepted)
{
    // The boundary itself is legal: an envelope declaring exactly
    // maxFrameBytes must not poison the stream.  (Header only — the
    // assembler just waits for a body it will never get; allocating
    // 64 MiB in a unit test helps no one.)
    FrameAssembler as;
    as.feed("frame " + std::to_string(as.maxFrameBytes()) + "\n");
    std::string out;
    EXPECT_FALSE(as.next(out));
    EXPECT_FALSE(as.corrupt());
}

TEST(FrameAssemblerCorpus, FrameOneByteOverTheCapIsPoison)
{
    FrameAssembler as;
    as.feed("frame " + std::to_string(as.maxFrameBytes() + 1) + "\n");
    std::string out;
    EXPECT_FALSE(as.next(out));
    EXPECT_TRUE(as.corrupt());
    EXPECT_EQ(as.buffered(), 0u);  // poisoned buffers are released
}

TEST(FrameAssemblerCorpus, GarbagePreambleBeforeValidFrameStaysPoison)
{
    // A peer speaking the wrong protocol entirely (say, HTTP) poisons
    // the stream before its first real frame; the valid frame behind
    // the garbage must NOT be recovered — resync on a byte stream
    // would mean guessing at record boundaries inside attacker bytes.
    FrameAssembler as;
    as.feed(std::string("GET / HTTP/1.1\r\nHost: x\r\n\r\n"));
    as.feed(runner::envelopeFrame(
        runner::frameRecord("scsim-test", 1, "real\n")));
    std::string out;
    EXPECT_FALSE(as.next(out));
    EXPECT_TRUE(as.corrupt());
}

// ---- frame-header peeking and version rejection -----------------------

TEST(FarmProtocol, PeekFrameHeaderReadsMagicAndVersion)
{
    std::string frame = runner::frameRecord("scsim-hello", 7, "x\n");
    runner::FrameHeader hdr;
    ASSERT_TRUE(runner::peekFrameHeader(frame, hdr));
    EXPECT_EQ(hdr.magic, "scsim-hello");
    EXPECT_EQ(hdr.version, 7u);

    EXPECT_FALSE(runner::peekFrameHeader("", hdr));
    EXPECT_FALSE(runner::peekFrameHeader("scsim-hello", hdr));
    EXPECT_FALSE(runner::peekFrameHeader("scsim-hello seven\n", hdr));
}

TEST(FarmProtocol, VersionSkewedRecordThrowsConfigErrorNamingVersions)
{
    // A peer speaking a future farm protocol: well-formed frame,
    // higher version.  The decode must classify it as skew (not
    // corruption) and requireRecord must name both versions in a
    // ConfigError.
    std::string future = runner::frameRecord(
        kHelloMagic, kFarmProtocolVersion + 1, "role client\n");
    HelloMsg hello;
    EXPECT_EQ(parseHello(future, hello), WireDecode::VersionSkew);

    std::string theirs =
        "v" + std::to_string(kFarmProtocolVersion + 1);
    std::string ours = "v" + std::to_string(kFarmProtocolVersion);
    try {
        requireRecord(WireDecode::VersionSkew, future, "hello");
        FAIL() << "requireRecord did not throw";
    } catch (const ConfigError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("version mismatch"), std::string::npos)
            << msg;
        EXPECT_NE(msg.find(theirs), std::string::npos) << msg;
        EXPECT_NE(msg.find(ours), std::string::npos) << msg;
    }
}

TEST(FarmProtocol, CorruptRecordThrowsConfigError)
{
    EXPECT_THROW_WITH(
        requireRecord(WireDecode::Corrupt, "garbage", "submit"),
        ConfigError, "corrupt");
}

TEST(FarmProtocol, IncompatibleHelloIsRejected)
{
    HelloMsg peer = localHello("client");
    peer.jobWire += 1;
    EXPECT_THROW_WITH(requireCompatibleHello(peer), ConfigError,
                       "wire version mismatch");

    HelloMsg peer2 = localHello("server");
    peer2.resultFormat += 1;
    EXPECT_THROW_WITH(requireCompatibleHello(peer2), ConfigError,
                       "result format mismatch");

    EXPECT_NO_THROW(requireCompatibleHello(localHello("client")));
}

// ---- protocol record round-trips --------------------------------------

TEST(FarmProtocol, SubmitRoundTripsSpecExactly)
{
    SubmitMsg msg;
    msg.name = "nightly tpch\nwith newline";
    msg.detach = true;
    msg.resume = true;
    msg.spec = threeJobSpec();
    msg.spec.jobs[1].salt = 42;
    msg.spec.jobs[2].concurrent = true;

    SubmitMsg back;
    ASSERT_EQ(parseSubmit(serializeSubmit(msg), back), WireDecode::Ok);
    EXPECT_EQ(back.name, msg.name);
    EXPECT_TRUE(back.detach);
    EXPECT_TRUE(back.resume);
    ASSERT_EQ(back.spec.jobs.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(back.spec.jobs[i].tag, msg.spec.jobs[i].tag);
        EXPECT_EQ(runner::jobKey(back.spec.jobs[i]),
                  runner::jobKey(msg.spec.jobs[i]));
    }
    EXPECT_EQ(runner::sweepSpecHash(back.spec),
              runner::sweepSpecHash(msg.spec));
}

TEST(FarmProtocol, JobDoneRoundTripsResultToTheByte)
{
    JobDoneMsg msg;
    msg.index = 7;
    msg.adopted = true;
    msg.result.key = 0xdeadbeefcafe1234ull;
    msg.result.status = JobStatus::Crashed;
    msg.result.error = "worker died\nwith detail";
    msg.result.termSignal = 9;
    msg.result.attempts = 2;

    JobDoneMsg back;
    ASSERT_EQ(parseJobDone(serializeJobDone(msg), back), WireDecode::Ok);
    EXPECT_EQ(back.index, 7u);
    EXPECT_TRUE(back.adopted);
    // Byte-identity of the embedded result is what manifest identity
    // rests on: compare the serialized forms.
    EXPECT_EQ(runner::serializeJobResult(back.result),
              runner::serializeJobResult(msg.result));
}

TEST(FarmProtocol, StatusRoundTripsAndRendersJson)
{
    FarmStatus st;
    st.build = "9.9.9";
    st.protocol = kFarmProtocolVersion;
    st.workers = 8;
    st.busyWorkers = 3;
    st.queueDepth = 11;
    st.cacheHits = 3;
    st.cacheMisses = 1;
    st.jobsCoalesced = 5;
    st.cacheMaxBytes = 1 << 20;

    FarmStatus back;
    ASSERT_EQ(parseStatus(serializeStatus(st), back), WireDecode::Ok);
    EXPECT_EQ(back.build, "9.9.9");
    EXPECT_EQ(back.workers, 8);
    EXPECT_EQ(back.queueDepth, 11u);
    EXPECT_EQ(back.jobsCoalesced, 5u);
    EXPECT_DOUBLE_EQ(back.cacheHitRate(), 0.75);

    std::string json = statusToJson(back);
    EXPECT_NE(json.find("\"cacheHitRate\": 0.7500"), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"queueDepth\": 11"), std::string::npos);
}

TEST(FarmProtocol, ErrorRoundTrips)
{
    ErrorMsg back;
    ASSERT_EQ(parseError(serializeError("no such sweep\nline2"), back),
              WireDecode::Ok);
    EXPECT_EQ(back.message, "no such sweep\nline2");
}

TEST(FarmProtocol, BusyRoundTrips)
{
    BusyMsg msg;
    msg.reason = "queue-full";
    msg.retryAfterMs = 750;
    msg.queueDepth = 42;

    BusyMsg back;
    ASSERT_EQ(parseBusy(serializeBusy(msg), back), WireDecode::Ok);
    EXPECT_EQ(back.reason, "queue-full");
    EXPECT_EQ(back.retryAfterMs, 750u);
    EXPECT_EQ(back.queueDepth, 42u);
}

TEST(FarmProtocol, DrainReqAndAckRoundTrip)
{
    EXPECT_EQ(parseDrainReq(serializeDrainReq()), WireDecode::Ok);

    DrainAckMsg ack;
    ack.inFlight = 2;
    ack.abandoned = 9;
    ack.sweepsActive = 3;
    DrainAckMsg back;
    ASSERT_EQ(parseDrainAck(serializeDrainAck(ack), back),
              WireDecode::Ok);
    EXPECT_EQ(back.inFlight, 2u);
    EXPECT_EQ(back.abandoned, 9u);
    EXPECT_EQ(back.sweepsActive, 3u);
}

TEST(FarmProtocol, StatusRoundTripsRobustnessCounters)
{
    FarmStatus st;
    st.draining = true;
    st.maxQueuedJobs = 100;
    st.maxSweepsPerClient = 4;
    st.submitsRejected = 7;
    st.idleDisconnects = 2;
    st.slowReaderDisconnects = 1;
    st.connectionsShed = 3;
    st.acceptFailures = 5;
    st.staleCompletions = 1;

    FarmStatus back;
    ASSERT_EQ(parseStatus(serializeStatus(st), back), WireDecode::Ok);
    EXPECT_TRUE(back.draining);
    EXPECT_EQ(back.maxQueuedJobs, 100u);
    EXPECT_EQ(back.maxSweepsPerClient, 4u);
    EXPECT_EQ(back.submitsRejected, 7u);
    EXPECT_EQ(back.idleDisconnects, 2u);
    EXPECT_EQ(back.slowReaderDisconnects, 1u);
    EXPECT_EQ(back.connectionsShed, 3u);
    EXPECT_EQ(back.acceptFailures, 5u);
    EXPECT_EQ(back.staleCompletions, 1u);

    std::string json = statusToJson(back);
    EXPECT_NE(json.find("\"draining\": true"), std::string::npos);
    EXPECT_NE(json.find("\"submitsRejected\": 7"), std::string::npos);
    EXPECT_NE(json.find("\"idleDisconnects\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"slowReaderDisconnects\": 1"),
              std::string::npos);
    EXPECT_NE(json.find("\"staleCompletions\": 1"), std::string::npos);
}

// ---- result cache disk cap --------------------------------------------

TEST(ResultCacheCap, TrimsOldestEntriesUnderTheCap)
{
    std::string dir = freshDir("cachecap");
    SimStats stats;
    stats.cycles = 123;
    stats.instructions = 456;

    std::uint64_t oneEntry;
    {
        runner::ResultCache probe(dir);
        probe.store(1, stats);
        oneEntry = probe.diskBytes();
        ASSERT_GT(oneEntry, 0u);
    }
    std::filesystem::remove_all(dir);

    // Cap at ~3 entries, store 8: the cache must stay under the cap
    // and evict the least-recently-used files.
    runner::ResultCache cache(dir, oneEntry * 3);
    for (std::uint64_t k = 1; k <= 8; ++k)
        cache.store(k, stats);
    EXPECT_LE(cache.diskBytes(), oneEntry * 3);
    EXPECT_GE(cache.evicted(), 5u);

    // The most recent keys survived on disk: a fresh cache over the
    // same directory still hits them.
    runner::ResultCache reopened(dir);
    SimStats out;
    EXPECT_TRUE(reopened.lookup(8, out));
    EXPECT_EQ(out.cycles, 123u);
    EXPECT_FALSE(reopened.lookup(1, out));
}

TEST(ResultCacheCap, QuarantinedFilesArePrunedFirst)
{
    std::string dir = freshDir("cachecorrupt");
    SimStats stats;
    stats.cycles = 9;

    std::uint64_t oneEntry;
    {
        runner::ResultCache cache(dir);
        cache.store(1, stats);
        cache.store(2, stats);
        oneEntry = cache.diskBytes() / 2;
        // Flip a payload byte in entry 1 so the next disk read
        // quarantines it to `.corrupt`.
        std::string path = dir + "/" + runner::keyToHex(1) + ".stats";
        std::string text;
        {
            std::ifstream in(path, std::ios::binary);
            std::ostringstream ss;
            ss << in.rdbuf();
            text = ss.str();
        }
        text[text.size() - 2] ^= 1;
        std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
    }
    {
        runner::ResultCache cache(dir);  // fresh memory: disk reads
        SimStats out;
        EXPECT_FALSE(cache.lookup(1, out));
        EXPECT_EQ(cache.quarantined(), 1u);
    }
    ASSERT_TRUE(std::filesystem::exists(
        dir + "/" + runner::keyToHex(1) + ".corrupt"));

    // A capped cache over the directory (cap below the current
    // footprint) prunes the quarantined file before touching any
    // intact entry.
    runner::ResultCache capped(dir, oneEntry * 3 / 2);
    EXPECT_GE(capped.evicted(), 1u);
    EXPECT_FALSE(std::filesystem::exists(
        dir + "/" + runner::keyToHex(1) + ".corrupt"));
    SimStats out;
    EXPECT_TRUE(capped.lookup(2, out));
}

// ---- the daemon, end to end -------------------------------------------

TEST_F(FarmTest, SubmitMatchesLocalManifestAtAnyWorkerCount)
{
    SweepSpec spec = threeJobSpec();
    SweepResult local = localRun(spec);
    std::string wantJson = runner::jsonManifest(spec, local);
    std::string wantCsv = runner::csvManifest(spec, local);

    for (int workers : { 1, 4 }) {
        FarmServerOptions opts;
        opts.workers = workers;
        opts.cacheDir = freshDir(
            "submit_w" + std::to_string(workers));
        opts.quiet = true;
        ServerRunner server(std::move(opts));

        FarmClient client =
            FarmClient::connectTcpPort(server.port());
        std::size_t events = 0;
        SweepResult res = client.submit(
            spec, "match", false,
            [&](const JobDoneMsg &) { ++events; });

        EXPECT_EQ(events, 3u);
        EXPECT_TRUE(res.allOk());
        EXPECT_EQ(runner::jsonManifest(spec, res), wantJson)
            << "workers=" << workers;
        EXPECT_EQ(runner::csvManifest(spec, res), wantCsv);
    }
}

TEST_F(FarmTest, EveryExecutionPathAgreesOnManifestsAndCounts)
{
    // One spec through every path a job can take: SweepEngine at one
    // and four workers, SweepEngine isolated, and the farm.  Two tags
    // share a job key, one job hangs (armed here for in-process runs
    // and through the environment for every run-job worker) and one
    // cannot fit the SM.  Every path computes the shared key once.
    FaultInjector::instance().armHang("hangapp");
    setenv("SCSIM_FAULT_HANG", "hangapp", 1);

    SweepSpec spec;
    spec.add("a", tinyCfg(), tinyApp("appa"));
    spec.add("a-again", tinyCfg(), tinyApp("appa"));
    GpuConfig hangCfg = tinyCfg();
    hangCfg.hangWindowCycles = 3000;
    spec.add("hang", hangCfg, tinyApp("hangapp"));
    AppSpec huge = tinyApp("hugeapp");
    huge.regsPerThread = 256;
    huge.warpsPerBlock = 16;
    spec.add("huge", tinyCfg(), huge);
    spec.add("b", tinyCfg(), tinyApp("appb"));
    ASSERT_EQ(runner::jobKey(spec.jobs[0]), runner::jobKey(spec.jobs[1]));

    std::vector<std::pair<std::string, SweepResult>> runs;
    for (int jobs : { 1, 4 }) {
        SweepOptions opts;
        opts.jobs = jobs;
        runs.emplace_back("jobs=" + std::to_string(jobs),
                          SweepEngine(opts).run(spec));
    }
    {
        SweepOptions opts;
        opts.jobs = 2;
        opts.isolate = true;
        opts.selfExe = SCSIM_CLI_PATH;
        runs.emplace_back("isolate", SweepEngine(opts).run(spec));
    }
    {
        FarmServerOptions opts;
        opts.workers = 2;
        opts.cacheDir = freshDir("paths");
        opts.quiet = true;
        ServerRunner server(std::move(opts));
        FarmClient client = FarmClient::connectTcpPort(server.port());
        runs.emplace_back("farm", client.submit(spec, "paths", false));
    }

    const SweepResult &want = runs.front().second;
    EXPECT_EQ(want.cacheHits, 1u);
    EXPECT_EQ(want.executed, 4u);
    EXPECT_EQ(want.failed, 2u);
    EXPECT_EQ(want.skipped, 0u);
    EXPECT_EQ(want.results[1].status, JobStatus::Cached);
    EXPECT_EQ(want.results[2].status, JobStatus::Hang);
    EXPECT_EQ(want.results[3].status, JobStatus::Failed);
    const std::string wantJson = runner::jsonManifest(spec, want);
    const std::string wantCsv = runner::csvManifest(spec, want);
    for (const auto &[path, res] : runs) {
        SCOPED_TRACE(path);
        EXPECT_EQ(runner::jsonManifest(spec, res), wantJson);
        EXPECT_EQ(runner::csvManifest(spec, res), wantCsv);
        EXPECT_EQ(res.cacheHits, want.cacheHits);
        EXPECT_EQ(res.executed, want.executed);
        EXPECT_EQ(res.failed, want.failed);
        EXPECT_EQ(res.skipped, want.skipped);
    }
}

TEST_F(FarmTest, ConcurrentDuplicateClientsShareTheComputation)
{
    SweepSpec spec = threeJobSpec();

    FarmServerOptions opts;
    opts.workers = 4;
    opts.cacheDir = freshDir("dup");
    opts.quiet = true;
    ServerRunner server(std::move(opts));
    int port = server.port();

    // Two clients, same spec, concurrently: every job is computed
    // once — the duplicate lands as a cache hit or an in-flight
    // coalesce — and both manifests are identical.
    std::string json1, json2;
    std::thread t1([&] {
        FarmClient c = FarmClient::connectTcpPort(port);
        SweepResult r = c.submit(spec, "dup1", false);
        json1 = runner::jsonManifest(spec, r);
    });
    std::thread t2([&] {
        FarmClient c = FarmClient::connectTcpPort(port);
        SweepResult r = c.submit(spec, "dup2", false);
        json2 = runner::jsonManifest(spec, r);
    });
    t1.join();
    t2.join();
    EXPECT_FALSE(json1.empty());
    EXPECT_EQ(json1, json2);

    FarmClient c = FarmClient::connectTcpPort(port);
    FarmStatus st = c.status();
    EXPECT_EQ(st.jobsCompleted, 6u);
    // 3 unique jobs; the other 3 were deduplicated one way or the
    // other, never simulated twice.
    EXPECT_EQ(st.cacheMisses, 3u);
    EXPECT_EQ(st.cacheHits + st.jobsCoalesced, 3u);
    EXPECT_EQ(st.sweepsCompleted, 2u);
}

TEST_F(FarmTest, CrashedJobIsContainedAndReported)
{
    // appb's worker dies with a real SIGSEGV on every attempt: the
    // job must come back Crashed, the other jobs Ok, and the daemon
    // must survive to serve the next submission.
    setenv("SCSIM_FAULT_CRASH", "appb", 1);

    SweepSpec spec = threeJobSpec();
    FarmServerOptions opts;
    opts.workers = 2;
    opts.cacheDir = freshDir("crash");
    opts.crashAttempts = 2;
    opts.quiet = true;
    ServerRunner server(std::move(opts));

    FarmClient client = FarmClient::connectTcpPort(server.port());
    SweepResult res = client.submit(spec, "crashy", false);
    EXPECT_EQ(res.results[0].status, JobStatus::Ok);
    EXPECT_EQ(res.results[1].status, JobStatus::Crashed);
    EXPECT_TRUE(res.results[1].termSignal == SIGSEGV
                || res.results[1].exitCode != 0)
        << "signal " << res.results[1].termSignal;
    EXPECT_EQ(res.results[2].status, JobStatus::Ok);
    EXPECT_EQ(res.failed, 1u);

    // Same daemon, next client: still alive, still serving.
    unsetenv("SCSIM_FAULT_CRASH");
    FarmClient again = FarmClient::connectTcpPort(server.port());
    FarmStatus st = again.status();
    EXPECT_EQ(st.jobsCrashed, 1u);
    EXPECT_EQ(st.sweepsCompleted, 1u);
}

TEST_F(FarmTest, SigkilledWorkerJobIsRescheduled)
{
    // The first worker to claim appb SIGKILLs itself mid-kernel (the
    // marker file makes it exactly one); the dispatcher's respawn must
    // rerun the job cleanly so the sweep — and its manifest — comes
    // out as if nothing happened.
    std::string dir = freshDir("sigkill");
    std::string marker = dir + "/killed-once";

    SweepSpec spec = threeJobSpec();
    SweepResult local = localRun(spec);

    // Arm the fault only now: localRun spawns the same run-job
    // subprocesses and would otherwise consume the one-shot marker.
    // The token matches every app ("app*"), so whichever worker
    // subprocess wins the marker race is the one that dies.
    setenv("SCSIM_FAULT_CRASH_ONCE",
           (marker + "!app:" + std::to_string(SIGKILL)).c_str(), 1);

    FarmServerOptions opts;
    opts.workers = 2;
    opts.cacheDir = dir + "/cache";
    opts.crashAttempts = 3;
    opts.quiet = true;
    ServerRunner server(std::move(opts));

    FarmClient client = FarmClient::connectTcpPort(server.port());
    SweepResult res = client.submit(spec, "sigkill", false);

    EXPECT_TRUE(std::filesystem::exists(marker))
        << "the fault never fired";
    EXPECT_TRUE(res.allOk());
    int rescheduled = 0;
    for (const JobResult &r : res.results)
        if (r.attempts >= 2)
            ++rescheduled;
    EXPECT_EQ(rescheduled, 1)
        << "exactly one worker should have been SIGKILLed and respawned";
    EXPECT_EQ(runner::jsonManifest(spec, res),
              runner::jsonManifest(spec, local));
}

TEST_F(FarmTest, DaemonRestartResumesFromTheJournal)
{
    SweepSpec spec = threeJobSpec();
    SweepResult local = localRun(spec);
    std::string stateDir = freshDir("resume_state");

    // A previous daemon's life, cut short after two jobs: fabricate
    // its journal exactly as the server would have written it.
    {
        std::uint64_t specHash = runner::sweepSpecHash(spec);
        runner::JournalWriter j(
            stateDir + "/" + runner::keyToHex(specHash) + ".journal",
            specHash, spec.jobs.size(), /*fresh=*/true);
        j.append(0, spec.jobs[0].tag, local.results[0]);
        j.append(2, spec.jobs[2].tag, local.results[2]);
    }

    FarmServerOptions opts;
    opts.workers = 2;
    opts.cacheDir = freshDir("resume_cache");
    opts.stateDir = stateDir;
    opts.quiet = true;
    ServerRunner server(std::move(opts));

    FarmClient client = FarmClient::connectTcpPort(server.port());
    std::size_t adopted = 0;
    SweepResult res = client.submit(
        spec, "resumed", /*resume=*/true, [&](const JobDoneMsg &m) {
            if (m.adopted)
                ++adopted;
        });
    EXPECT_EQ(adopted, 2u);
    EXPECT_EQ(res.resumed, 2u);
    EXPECT_TRUE(res.allOk());
    EXPECT_EQ(runner::jsonManifest(spec, res),
              runner::jsonManifest(spec, local));

    // Without --resume the same journal is ignored and rewritten.
    FarmClient fresh = FarmClient::connectTcpPort(server.port());
    SweepResult rerun = fresh.submit(spec, "fresh", false);
    EXPECT_EQ(rerun.resumed, 0u);
    EXPECT_EQ(runner::jsonManifest(spec, rerun),
              runner::jsonManifest(spec, local));
}

TEST_F(FarmTest, InvalidSpecIsRejectedWholeWithTheDaemonsMessage)
{
    SweepSpec spec = threeJobSpec();
    spec.jobs[2].tag = "a";  // duplicate of job 0

    FarmServerOptions opts;
    opts.workers = 1;
    opts.cacheDir = freshDir("reject");
    opts.quiet = true;
    ServerRunner server(std::move(opts));

    FarmClient client = FarmClient::connectTcpPort(server.port());
    EXPECT_THROW_WITH(client.submit(spec, "bad", false), ConfigError,
                       "duplicate sweep tag");
}

TEST_F(FarmTest, DetachedSubmissionRunsToCompletion)
{
    SweepSpec spec = threeJobSpec();
    FarmServerOptions opts;
    opts.workers = 2;
    opts.cacheDir = freshDir("detach");
    opts.quiet = true;
    ServerRunner server(std::move(opts));

    {
        FarmClient client = FarmClient::connectTcpPort(server.port());
        AcceptMsg accept = client.submitDetached(spec, "detach", false);
        EXPECT_EQ(accept.jobCount, 3u);
        EXPECT_EQ(accept.adopted, 0u);
    }  // client gone; the sweep is the daemon's problem now

    // Poll status until the detached sweep drains.
    FarmClient watcher = FarmClient::connectTcpPort(server.port());
    FarmStatus st;
    for (int i = 0; i < 600; ++i) {
        st = watcher.status();
        if (st.sweepsCompleted >= 1)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    EXPECT_EQ(st.sweepsCompleted, 1u);
    EXPECT_EQ(st.jobsCompleted, 3u);
}

// ---- admission control, liveness and drain ----------------------------

TEST_F(FarmTest, OverloadedQueueRejectsWithBusyAndNoRetriesThrows)
{
    // Queue cap below the spec's job count: admission refuses before
    // any validation or queueing, and a client configured not to
    // retry surfaces the reason.
    FarmServerOptions opts;
    opts.workers = 1;
    opts.cacheDir = freshDir("busythrow");
    opts.maxQueuedJobs = 1;
    opts.quiet = true;
    ServerRunner server(std::move(opts));

    FarmClient client = FarmClient::connectTcpPort(server.port());
    FarmClient::RetryPolicy p;
    p.maxAttempts = 1;
    client.setRetryPolicy(p);
    EXPECT_THROW_WITH(client.submit(threeJobSpec(), "big", false),
                      SimError, "daemon busy");

    // The refusal is retryable, not fatal: the same connection still
    // serves an admissible submission.
    FarmStatus st = client.status();
    EXPECT_EQ(st.submitsRejected, 1u);
    EXPECT_EQ(st.maxQueuedJobs, 1u);

    SweepSpec one;
    one.add("solo", tinyCfg(), tinyApp("appsolo"));
    SweepResult res = client.submit(one, "solo", false);
    EXPECT_TRUE(res.allOk());
}

TEST_F(FarmTest, PerClientSweepCapRetriesUntilTheSlotFrees)
{
    FarmServerOptions opts;
    opts.workers = 1;
    opts.cacheDir = freshDir("clientcap");
    opts.maxSweepsPerClient = 1;
    opts.quiet = true;
    ServerRunner server(std::move(opts));

    FarmClient client = FarmClient::connectTcpPort(server.port());
    // Occupy the one slot with a detached sweep, then submit again on
    // the same connection: busy ("client-cap") until the detached
    // sweep finishes, at which point the backoff loop gets through.
    client.submitDetached(threeJobSpec(), "occupier", false);

    FarmClient::RetryPolicy p;
    p.maxAttempts = 100;
    p.baseDelayMs = 25;
    p.maxDelayMs = 100;
    client.setRetryPolicy(p);
    SweepSpec other;
    other.add("x", tinyCfg(), tinyApp("appx"));
    SweepResult res = client.submit(other, "waiter", false);
    EXPECT_TRUE(res.allOk());

    FarmStatus st = client.status();
    EXPECT_GE(st.submitsRejected, 1u);
    EXPECT_EQ(st.sweepsCompleted, 2u);
}

TEST_F(FarmTest, IdleConnectionIsDisconnectedAndCounted)
{
    FarmServerOptions opts;
    opts.workers = 1;
    opts.cacheDir = freshDir("idle");
    opts.idleTimeoutSec = 0.2;
    opts.quiet = true;
    ServerRunner server(std::move(opts));

    // A slow-loris peer: connects, says nothing, holds the fd.  The
    // daemon must evict it — read() returns EOF once the goodbye (an
    // error frame) is flushed and the socket closed.
    Fd loris = connectTcp(server.port());
    std::string seen;
    long n = 1;
    auto deadline = std::chrono::steady_clock::now()
        + std::chrono::seconds(10);
    while (n != 0 && std::chrono::steady_clock::now() < deadline)
        n = readSome(loris.get(), seen);
    EXPECT_EQ(n, 0) << "daemon never closed the idle connection";
    EXPECT_NE(seen.find("idle timeout"), std::string::npos);

    // An *active* client (us, right now) is not evicted, and the
    // counter shows exactly the one disconnect.
    FarmClient client = FarmClient::connectTcpPort(server.port());
    FarmStatus st = client.status();
    EXPECT_EQ(st.idleDisconnects, 1u);
}

TEST_F(FarmTest, SlowReaderIsShedAndItsSweepSurvivesDetached)
{
    std::string stateDir = freshDir("shed_state");
    SweepSpec spec = threeJobSpec();
    SweepResult local = localRun(spec);

    FarmServerOptions opts;
    opts.workers = 2;
    opts.cacheDir = freshDir("shed_cache");
    opts.stateDir = stateDir;
    opts.maxWriteBufferBytes = 1024;  // shed fast...
    opts.sndbufBytes = 4096;          // ...the kernel can't hide much
    opts.quiet = true;
    ServerRunner server(std::move(opts));

    // A protocol-correct client that never reads: handshake bytes,
    // a submission, then a flood of status requests whose replies it
    // leaves rotting in the pipe.  The daemon's write buffer hits the
    // cap and the session is dropped; its sweep must keep running.
    {
        Fd fd = connectTcp(server.port());
        sendAll(fd.get(),
                runner::envelopeFrame(
                    serializeHello(localHello("client"))));
        SubmitMsg sub;
        sub.name = "abandoned";
        sub.spec = spec;
        sendAll(fd.get(), runner::envelopeFrame(serializeSubmit(sub)));
        std::string statusReq =
            runner::envelopeFrame(serializeStatusReq());
        for (int i = 0; i < 1000; ++i)
            if (!sendAll(fd.get(), statusReq))
                break;  // shed mid-flood: the daemon reset us
        // Hold the fd open WITHOUT reading: closing now would RST the
        // daemon into the ordinary peer-gone path before its write
        // buffer ever fills.  events=0 still reports POLLERR/POLLHUP,
        // which is exactly the daemon shedding us.
        struct pollfd p = { fd.get(), 0, 0 };
        ::poll(&p, 1, 20000);
        EXPECT_TRUE(p.revents & (POLLERR | POLLHUP))
            << "daemon never shed the slow reader";
    }

    // The sweep finishes detached, journaling as it goes.
    FarmClient watcher = FarmClient::connectTcpPort(server.port());
    FarmStatus st;
    for (int i = 0; i < 600; ++i) {
        st = watcher.status();
        if (st.sweepsCompleted >= 1 && st.slowReaderDisconnects >= 1)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    EXPECT_EQ(st.slowReaderDisconnects, 1u);
    EXPECT_EQ(st.sweepsCompleted, 1u);

    // And --resume adopts every journaled result, byte-identical to a
    // local isolated run.
    FarmClient resumer = FarmClient::connectTcpPort(server.port());
    SweepResult res = resumer.submit(spec, "resumed", true);
    EXPECT_EQ(res.resumed, 3u);
    EXPECT_EQ(runner::jsonManifest(spec, res),
              runner::jsonManifest(spec, local));
}

TEST_F(FarmTest, DrainFinishesInFlightAndResumeMatchesLocalManifest)
{
    SweepSpec spec = threeJobSpec();
    SweepResult local = localRun(spec);
    std::string stateDir = freshDir("drain_state");

    // First daemon: submit detached, then drain mid-sweep.  run()
    // must exit on its own with everything finished-or-journaled.
    {
        FarmServerOptions opts;
        opts.workers = 1;
        opts.cacheDir = freshDir("drain_cache1");
        opts.stateDir = stateDir;
        opts.quiet = true;
        ServerRunner server(std::move(opts));

        FarmClient client = FarmClient::connectTcpPort(server.port());
        client.submitDetached(spec, "draining", false);
        DrainAckMsg ack = client.drain();
        EXPECT_GE(ack.sweepsActive, 1u);
        server.waitExit();  // run() returns without stop()

        FarmStatus st = server.server().snapshot();
        EXPECT_TRUE(st.draining);
    }

    // Second daemon over the same state dir: --resume adopts whatever
    // the drain journaled, runs the rest, and the manifest is
    // byte-identical to the local isolated run.
    FarmServerOptions opts;
    opts.workers = 2;
    opts.cacheDir = freshDir("drain_cache2");
    opts.stateDir = stateDir;
    opts.quiet = true;
    ServerRunner server(std::move(opts));

    FarmClient client = FarmClient::connectTcpPort(server.port());
    SweepResult res = client.submit(spec, "resumed", true);
    EXPECT_TRUE(res.allOk());
    EXPECT_EQ(runner::jsonManifest(spec, res),
              runner::jsonManifest(spec, local));
    EXPECT_EQ(runner::csvManifest(spec, res),
              runner::csvManifest(spec, local));
}

TEST_F(FarmTest, DrainCompletesQueuedJobsTheCacheHolds)
{
    // One long job holds the only worker while the drain lands.  Of
    // the four jobs queued behind it, the three whose results the
    // cache already holds must arrive as cache hits, journaled, not be
    // left to --resume.
    std::string cacheDir = freshDir("drain_cached_cache");
    SweepSpec spec = threeJobSpec();
    {
        SweepOptions opts;
        opts.jobs = 2;
        opts.cacheDir = cacheDir;
        SweepEngine(opts).run(spec);
    }
    AppSpec big = tinyApp("big", 20000);
    big.baseInsts = 4000;
    spec.add("big", tinyCfg(), big);
    spec.add("d", tinyCfg(), tinyApp("appd"));

    FarmServerOptions opts;
    opts.workers = 1;
    opts.cacheDir = cacheDir;
    opts.stateDir = freshDir("drain_cached_state");
    opts.jobTimeoutSec = 2.0;  // bounds how long "big" holds the worker
    opts.crashAttempts = 1;
    opts.quiet = true;
    ServerRunner server(std::move(opts));

    std::vector<JobDoneMsg> done;
    std::string error;
    std::thread submitter([&] {
        FarmClient client = FarmClient::connectTcpPort(server.port());
        try {
            client.submit(spec, "drain-cached", false,
                          [&](const JobDoneMsg &m) { done.push_back(m); });
        } catch (const SimError &e) {
            error = e.what();
        }
    });
    // Drain once "big" (the costliest, so claimed first) is running.
    FarmClient probe = FarmClient::connectTcpPort(server.port());
    auto deadline = std::chrono::steady_clock::now()
        + std::chrono::seconds(60);
    while (probe.status().inFlight == 0
           && std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    probe.drain();
    submitter.join();
    server.waitExit();

    std::set<std::size_t> cached;
    for (const JobDoneMsg &m : done)
        if (m.result.cached)
            cached.insert(static_cast<std::size_t>(m.index));
    EXPECT_EQ(cached, (std::set<std::size_t>{ 0, 1, 2 }));
    EXPECT_NE(error.find("interrupted with 4 of 5 jobs journaled"),
              std::string::npos)
        << error;
}

TEST_F(FarmTest, SubmitAfterDrainRequestIsNeverAdmitted)
{
    FarmServerOptions opts;
    opts.workers = 1;
    opts.cacheDir = freshDir("draindeny");
    opts.quiet = true;
    ServerRunner server(std::move(opts));

    // One write carrying hello, drain-req and a submit.  However the
    // daemon's reads slice that, the submit must never be admitted:
    // processed in the same batch as the drain-req it draws busy
    // ("draining"); left unread when the drain latches first, it
    // draws nothing.  An accept is the one forbidden reply.
    Fd fd = connectTcp(server.port());
    SubmitMsg sub;
    sub.name = "late";
    sub.spec = threeJobSpec();
    std::string wire =
        runner::envelopeFrame(serializeHello(localHello("client")))
        + runner::envelopeFrame(serializeDrainReq())
        + runner::envelopeFrame(serializeSubmit(sub));
    ASSERT_TRUE(sendAll(fd.get(), wire));

    std::string bytes;
    while (readSome(fd.get(), bytes) > 0) {
    }  // until the draining daemon closes us out

    FrameAssembler as;
    as.feed(bytes);
    std::string frame;
    bool sawAck = false, sawAccept = false;
    while (as.next(frame)) {
        runner::FrameHeader hdr;
        ASSERT_TRUE(runner::peekFrameHeader(frame, hdr));
        if (hdr.magic == kDrainAckMagic)
            sawAck = true;
        if (hdr.magic == kAcceptMagic)
            sawAccept = true;
    }
    EXPECT_TRUE(sawAck);
    EXPECT_FALSE(sawAccept) << "a submission was admitted mid-drain";
    server.waitExit();
}

TEST_F(FarmTest, StatusReportsWorkerAndCacheConfiguration)
{
    FarmServerOptions opts;
    opts.workers = 3;
    opts.cacheDir = freshDir("statuscfg");
    opts.cacheMaxBytes = 123456;
    opts.quiet = true;
    ServerRunner server(std::move(opts));

    FarmClient client = FarmClient::connectTcpPort(server.port());
    FarmStatus st = client.status();
    EXPECT_EQ(st.workers, 3);
    EXPECT_EQ(st.protocol, kFarmProtocolVersion);
    EXPECT_EQ(st.build, buildVersion());
    EXPECT_EQ(st.cacheMaxBytes, 123456u);
    EXPECT_EQ(st.sessions, 1u);  // us
}

} // namespace
} // namespace scsim::farm
