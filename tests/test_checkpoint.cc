/**
 * @file
 * Checkpoint/restore tests (ctest label `checkpoint`).
 *
 * Covers the snapshot wire record and its corruption handling, the
 * SimEngine checkpoint observer, the save/resume determinism contract
 * (a mid-run snapshot resumed on a fresh simulator must reproduce the
 * golden fingerprint of an uninterrupted run, for every design point),
 * the `run-job` cold-start fallback for every damage class (truncated
 * frame, flipped checksum byte, bumped version, foreign job key,
 * unusable payload), the injected-ENOSPC degrade paths for snapshot
 * and journal writes, and the `version` / `checkpoint --verify` CLI
 * surface.
 *
 * Like `isolation`, the subprocess tests drive the real CLI binary
 * (SCSIM_CLI_PATH); the golden matrix reuses the engine goldens
 * (SCSIM_ENGINE_GOLDENS) and pins its snapshot bytes in
 * SCSIM_SNAPSHOT_DIGESTS.
 */

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_inject.hh"
#include "common/rng.hh"
#include "common/sim_error.hh"
#include "common/text_escape.hh"
#include "expect_throw.hh"
#include "runner/design.hh"
#include "runner/job_key.hh"
#include "runner/journal.hh"
#include "runner/subprocess.hh"
#include "runner/wire.hh"
#include "sim/engine.hh"
#include "stats/stats_io.hh"
#include "workloads/microbench.hh"
#include "workloads/suite.hh"

namespace scsim {
namespace {

using runner::decodeJobResult;
using runner::decodeSnapshot;
using runner::JobResult;
using runner::JobStatus;
using runner::jobKey;
using runner::JournalWriter;
using runner::keyToHex;
using runner::readJournal;
using runner::runSubprocess;
using runner::serializeJob;
using runner::serializeSnapshot;
using runner::SimJob;
using runner::SubprocessResult;
using runner::WireDecode;
using sim::SimEngine;

// ---- shared helpers (mirrors test_isolation / test_engine) ------------

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

SimJob
tinyJob(const std::string &tag = "ckpt")
{
    SimJob job;
    job.tag = tag;
    job.cfg = tinyCfg();
    job.app = tinyApp(tag + "-app");
    return job;
}

std::string
freshDir(const std::string &leaf)
{
    std::string dir = testing::TempDir() + "scsim_ckpt_" + leaf;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

void
spew(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
}

KernelDesc
microWorkload(const std::string &name)
{
    if (name == "fma-unbalanced")
        return makeFmaMicro(FmaLayout::Unbalanced, 512, 8);
    if (name == "imbalance:4")
        return makeImbalanceMicro(4.0, 256, 8);
    if (name == "conflict:0")
        return makeConflictMicro(0, 512, 4);
    ADD_FAILURE() << "unknown micro workload " << name;
    return {};
}

GpuConfig
goldenBase()
{
    GpuConfig cfg = GpuConfig::volta();
    cfg.numSms = 2;
    return cfg;
}

/** design name -> workload name -> pinned hex value, from a
 *  `design<TAB>workload<TAB>hex` file. */
std::map<std::string, std::map<std::string, std::string>>
loadGoldens(const char *path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "missing goldens: " << path;
    std::map<std::string, std::map<std::string, std::string>> out;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        std::istringstream ls(line);
        std::string design, workload, hex;
        std::getline(ls, design, '\t');
        std::getline(ls, workload, '\t');
        std::getline(ls, hex, '\t');
        out[design][workload] = hex;
    }
    return out;
}

/** The Application wrapping SimEngine::run(KernelDesc) performs. */
Application
wrapKernel(const KernelDesc &kernel)
{
    Application app;
    app.name = kernel.name;
    app.kernels.push_back(kernel);
    return app;
}

class CheckpointTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        FaultInjector::instance().reset();
        unsetenv("SCSIM_FAULT_CRASH");
        unsetenv("SCSIM_FAULT_CRASH_ONCE");
        unsetenv("SCSIM_FAULT_SNAPSHOT_WRITE");
    }
    void TearDown() override
    {
        FaultInjector::instance().reset();
        unsetenv("SCSIM_FAULT_SNAPSHOT_WRITE");
    }
};

// ---- snapshot wire record ---------------------------------------------

TEST_F(CheckpointTest, SnapshotRecordRoundTrips)
{
    const std::string state = "run.concurrent b 0\nrun.now u 1234\n";
    std::string frame = serializeSnapshot(0xdeadbeefcafe1234ull, state);

    std::uint64_t key = 0;
    std::string got;
    EXPECT_EQ(decodeSnapshot(frame, key, got), WireDecode::Ok);
    EXPECT_EQ(key, 0xdeadbeefcafe1234ull);
    EXPECT_EQ(got, state);
}

TEST_F(CheckpointTest, TruncatedSnapshotFrameIsCorrupt)
{
    std::string frame = serializeSnapshot(7, "some state lines\n");
    frame.resize(frame.size() - 5);

    std::uint64_t key = 99;
    std::string state = "untouched";
    EXPECT_EQ(decodeSnapshot(frame, key, state), WireDecode::Corrupt);
    EXPECT_EQ(key, 99u) << "outputs must be untouched on failure";
    EXPECT_EQ(state, "untouched");
}

TEST_F(CheckpointTest, FlippedSnapshotByteIsCorrupt)
{
    std::string frame = serializeSnapshot(7, "some state lines\n");
    frame[frame.size() - 3] ^= 0x01;  // inside the payload

    std::uint64_t key = 0;
    std::string state;
    EXPECT_EQ(decodeSnapshot(frame, key, state), WireDecode::Corrupt);
}

TEST_F(CheckpointTest, BumpedSnapshotVersionIsVersionSkew)
{
    std::string frame = serializeSnapshot(7, "some state lines\n");
    auto pos = frame.find(" v1 ");
    ASSERT_NE(pos, std::string::npos);
    frame.replace(pos, 4, " v2 ");

    std::uint64_t key = 0;
    std::string state;
    EXPECT_EQ(decodeSnapshot(frame, key, state),
              WireDecode::VersionSkew);
    EXPECT_EQ(runner::kSnapshotVersion, 1u)
        << "bump the hand-crafted v2 header above with the format";
}

// ---- SimEngine checkpoint observer ------------------------------------

TEST_F(CheckpointTest, CheckpointObserverFiresAndDoesNotPerturbTheRun)
{
    // Reference: no checkpointing at all.
    SimStats ref = SimEngine(goldenBase()).run(microWorkload("conflict:0"));

    SimEngine engine(goldenBase());
    std::vector<std::pair<std::string, Cycle>> snaps;
    sim::EngineObserver obs;
    obs.onCheckpoint = [&](const std::string &payload, Cycle now) {
        snaps.emplace_back(payload, now);
    };
    engine.addObserver(std::move(obs));
    engine.setCheckpointInterval(200);

    SimStats s = engine.run(microWorkload("conflict:0"));
    ASSERT_FALSE(snaps.empty()) << "no checkpoint fired";
    EXPECT_EQ(sim::statsFingerprintHex(s), sim::statsFingerprintHex(ref))
        << "observing checkpoints must be invisible to the simulation";
    for (std::size_t i = 1; i < snaps.size(); ++i)
        EXPECT_GT(snaps[i].second, snaps[i - 1].second);
}

TEST_F(CheckpointTest, ResumeRejectsDamagedPayload)
{
    SimEngine engine(goldenBase());
    Application app = wrapKernel(microWorkload("conflict:0"));
    EXPECT_THROW(engine.sim().resume(app, "not a state payload\n"),
                 CacheError);
}

/** Position of the value of the @p nth `key value` line of @p payload
 *  (npos when there is no such line). */
std::size_t
fieldAt(const std::string &payload, const std::string &key, int nth)
{
    const std::string tag = "\n" + key + " ";
    std::size_t pos = 0;
    for (int i = 0; i <= nth; ++i) {
        pos = payload.find(tag, i == 0 ? 0 : pos + 1);
        if (pos == std::string::npos)
            return pos;
    }
    return pos + tag.size();
}

std::string
getField(const std::string &payload, const std::string &key, int nth)
{
    std::size_t at = fieldAt(payload, key, nth);
    if (at == std::string::npos) {
        ADD_FAILURE() << "no line " << nth << " keyed " << key;
        return {};
    }
    return payload.substr(at, payload.find('\n', at) - at);
}

std::string
setField(std::string payload, const std::string &key, int nth,
         const std::string &value)
{
    std::size_t at = fieldAt(payload, key, nth);
    if (at == std::string::npos) {
        ADD_FAILURE() << "no line " << nth << " keyed " << key;
        return payload;
    }
    payload.replace(at, payload.find('\n', at) - at, value);
    return payload;
}

/** Append every snapshot @p engine takes, one per @p interval cycles,
 *  to @p snaps. */
void
captureSnapshots(SimEngine &engine, Cycle interval,
                 std::vector<std::string> &snaps)
{
    sim::EngineObserver obs;
    obs.onCheckpoint = [&snaps](const std::string &payload, Cycle) {
        snaps.push_back(payload);
    };
    engine.addObserver(std::move(obs));
    engine.setCheckpointInterval(interval);
}

/** Every snapshot of @p kernel under @p cfg, one per @p interval. */
std::vector<std::string>
snapshotsOf(const GpuConfig &cfg, const KernelDesc &kernel, Cycle interval)
{
    std::vector<std::string> snaps;
    SimEngine full(cfg);
    captureSnapshots(full, interval, snaps);
    full.run(kernel);
    return snaps;
}

TEST_F(CheckpointTest, ResumeRejectsDamagedWarpBindings)
{
    // Warp slots and sub-core indices index the warp table, the
    // clusters and the warp masks, so each kind of damage must be
    // refused with CacheError before any of them is used.  This micro
    // fills half of each SM, so its snapshots hold free slots too.
    KernelDesc kernel = microWorkload("conflict:0");
    std::vector<std::string> snaps =
        snapshotsOf(goldenBase(), kernel, 2000);
    ASSERT_FALSE(snaps.empty());
    const std::string snap = snaps[snaps.size() / 2];
    int bound = 0;   // first warp bound to a sub-core
    while (std::stoi(getField(snap, "warp.cluster", bound)) < 0)
        ++bound;
    int boundCluster = std::stoi(getField(snap, "warp.cluster", bound));

    struct Damage
    {
        const char *what;
        std::string payload;
        const char *error;
    };
    const Damage cases[] = {
        { "slot past the table", setField(snap, "ic.slot", 0, "64"),
          "out of range" },
        { "negative slot", setField(snap, "ic.slot", 0, "-1"),
          "out of range" },
        { "slot bound twice",
          setField(snap, "ic.slot", 1, getField(snap, "ic.slot", 0)),
          "bound twice" },
        { "cluster past the SM", setField(snap, "warp.cluster", 0, "4"),
          "out of range" },
        { "negative cluster", setField(snap, "warp.cluster", 0, "-2"),
          "out of range" },
        { "scheduler past the cluster",
          setField(snap, "warp.sched", 0, "1"), "out of range" },
        { "warp names another sub-core",
          setField(snap, "warp.cluster", bound,
                   std::to_string((boundCluster + 1) % 4)),
          "but names" },
        { "free slot past the table",
          setField(snap, "sm.freeSlot", 0, "64"), "out of range" },
        { "writeback for a slot past the table",
          setField(snap, "ev.warp", 0, "99"), "out of range" },
    };
    Application app = wrapKernel(kernel);
    for (const Damage &d : cases) {
        SCOPED_TRACE(d.what);
        ASSERT_TRUE(d.payload != snap);
        SimEngine engine(goldenBase());
        EXPECT_THROW_WITH(engine.sim().resume(app, d.payload), CacheError,
                          d.error);
    }
    EXPECT_EQ(runner::kSnapshotVersion, 1u);
}

TEST_F(CheckpointTest, ResumeRejectsDamagedCollectorBindings)
{
    // A collector unit's warp and the register file's queued reads and
    // writes index the warp table and the collector units, so damage
    // to any of them must be refused with CacheError before use.
    KernelDesc kernel = microWorkload("fma-unbalanced");
    std::vector<std::string> snaps =
        snapshotsOf(goldenBase(), kernel, 997);

    // The nth `key value` line whose value is @p value; -1 if none.
    auto nthWith = [](const std::string &payload, const char *key,
                      const std::string &value) {
        for (int i = 0;; ++i) {
            std::size_t at = fieldAt(payload, key, i);
            if (at == std::string::npos)
                return -1;
            if (payload.compare(at, payload.find('\n', at) - at, value)
                == 0)
                return i;
        }
    };
    // A snapshot with a busy CU, an idle CU and a queued read.
    std::string snap;
    int busy = -1, idle = -1;
    for (const std::string &s : snaps) {
        busy = nthWith(s, "cu.busy", "1");
        idle = nthWith(s, "cu.busy", "0");
        if (busy >= 0 && idle >= 0
            && fieldAt(s, "rf.read.cu", 0) != std::string::npos) {
            snap = s;
            break;
        }
    }
    ASSERT_FALSE(snap.empty());
    // Writes drain within their cycle, so a snapshot's write queues
    // are empty: damage one by queueing a write.
    auto withWrite = [&](const std::string &warp) {
        return setField(snap, "rf.writeq", 0,
                        "1\nrf.write.warp " + warp + "\nrf.write.reg 0");
    };

    // A CU's busy and warp lines come in the same per-CU order.
    const std::pair<const char *, std::string> cases[] = {
        { "busy CU warp past the table",
          setField(snap, "cu.warp", busy, "64") },
        { "busy CU without a warp", setField(snap, "cu.warp", busy, "-1") },
        { "idle CU bound to a warp", setField(snap, "cu.warp", idle, "0") },
        { "write for a warp past the table", withWrite("64") },
        { "write for a negative warp", withWrite("-1") },
        { "read for a CU past the cluster",
          setField(snap, "rf.read.cu", 0, "99") },
        { "read for a negative CU", setField(snap, "rf.read.cu", 0, "-1") },
    };
    Application app = wrapKernel(kernel);
    for (const auto &[what, payload] : cases) {
        SCOPED_TRACE(what);
        ASSERT_TRUE(payload != snap);
        SimEngine engine(goldenBase());
        EXPECT_THROW_WITH(engine.sim().resume(app, payload), CacheError,
                          "out of range");
    }
    EXPECT_EQ(runner::kSnapshotVersion, 1u);
}

TEST_F(CheckpointTest, ResumeRejectsDamagedQueueCounts)
{
    // rf.pendingOps caches the queued request count, and a read's
    // operand mask and an idle CU's pending bits decide when a CU may
    // dispatch.  Loading any of them damaged would leave a cluster that
    // never sleeps or a CU that never readies, so each is refused; so
    // is a GTO greedy warp that cannot index a slot mask.
    KernelDesc kernel = microWorkload("fma-unbalanced");
    std::vector<std::string> snaps =
        snapshotsOf(goldenBase(), kernel, 997);

    // A snapshot with an idle CU and a queued read.
    std::string snap;
    int idle = -1;
    for (const std::string &s : snaps) {
        for (int i = 0; fieldAt(s, "cu.busy", i) != std::string::npos; ++i)
            if (getField(s, "cu.busy", i) == "0") {
                idle = i;
                break;
            }
        if (idle >= 0 && fieldAt(s, "rf.read.cu", 0) != std::string::npos) {
            snap = s;
            break;
        }
        idle = -1;
    }
    ASSERT_FALSE(snap.empty());
    const std::uint64_t pending =
        std::stoull(getField(snap, "rf.pendingOps", 0));

    struct Damage
    {
        const char *what;
        std::string payload;
        const char *error;
    };
    const Damage cases[] = {
        { "pendingOps above the queues",
          setField(snap, "rf.pendingOps", 0, std::to_string(pending + 1)),
          "requests queued" },
        { "pendingOps wrapped below zero",
          setField(snap, "rf.pendingOps", 0, "18446744073709551615"),
          "requests queued" },
        { "read filling no operand", setField(snap, "rf.read.mask", 0, "0"),
          "operand mask" },
        { "read past the third operand",
          setField(snap, "rf.read.mask", 0, "9"), "operand mask" },
        { "idle CU waiting on operands",
          setField(snap, "cu.pending", idle, "2"), "waits on operands" },
        { "greedy warp past the table",
          setField(snap, "gto.greedyWarp", 0, "64"), "out of range" },
    };
    Application app = wrapKernel(kernel);
    for (const Damage &d : cases) {
        SCOPED_TRACE(d.what);
        ASSERT_TRUE(d.payload != snap);
        SimEngine engine(goldenBase());
        EXPECT_THROW_WITH(engine.sim().resume(app, d.payload), CacheError,
                          d.error);
    }
    // The undamaged snapshot still resumes.
    SimEngine engine(goldenBase());
    EXPECT_NO_THROW(engine.sim().resume(app, snap));
}

TEST_F(CheckpointTest, ResumeRejectsMisreadNumbersAndStrayIndices)
{
    // Each value decodes into its field's own type, so a sign on an
    // unsigned field or a value past the type is refused rather than
    // wrapped or truncated.  Register indices retire in a 256-bit
    // scoreboard, shuffle entries are handed out as sub-cores, a
    // kernel's next block is compared against its block count and each
    // SM counts issues into its own row of the stats, so each is
    // range-checked where it is read.
    KernelDesc kernel = microWorkload("fma-unbalanced");
    std::string snap;
    for (const std::string &s : snapshotsOf(goldenBase(), kernel, 997))
        if (fieldAt(s, "ev.reg", 0) != std::string::npos) {
            snap = s;
            break;
        }
    ASSERT_FALSE(snap.empty());
    GpuConfig shuffle = runner::designConfig(goldenBase(), "Shuffle");
    std::vector<std::string> shuffleSnaps = snapshotsOf(shuffle, kernel, 997);
    ASSERT_FALSE(shuffleSnaps.empty());
    const std::string &shuffleSnap = shuffleSnaps[shuffleSnaps.size() / 2];
    // Writes drain within their cycle, so queue one (and count it) to
    // damage it.
    std::string withWrite = setField(
        setField(snap, "rf.writeq", 0,
                 "1\nrf.write.warp 0\nrf.write.reg 256"),
        "rf.pendingOps", 0,
        std::to_string(std::stoull(getField(snap, "rf.pendingOps", 0)) + 1));
    const int numBlocks = kernel.numBlocks;
    // The second SM's issue row, one scheduler short.
    std::string stats = unescapeLine(getField(snap, "run.stats", 0));
    std::size_t row = stats.find("\nissueRow", stats.find("issueRow"));
    std::size_t eol = stats.find('\n', row + 1);
    stats.erase(stats.rfind(' ', eol), eol - stats.rfind(' ', eol));

    struct Damage
    {
        const char *what;
        GpuConfig cfg;
        std::string payload;
        const char *error;
    };
    const Damage cases[] = {
        { "negative unsigned counter", goldenBase(),
          setField(snap, "warp.memIter", 0, "-1"), "bad value" },
        { "register bytes past 32 bits", goldenBase(),
          setField(snap, "warp.regBytes", 0, "4294967296"), "bad value" },
        { "writeback to a register past the scoreboard", goldenBase(),
          setField(snap, "ev.reg", 0, "256"), "out of range" },
        { "writeback to no register", goldenBase(),
          setField(snap, "ev.reg", 0, "-1"), "out of range" },
        { "queued write to a register past the scoreboard", goldenBase(),
          withWrite, "out of range" },
        { "next block past the kernel", goldenBase(),
          setField(snap, "bs.nextBlock", 0, std::to_string(numBlocks + 1)),
          "out of range" },
        { "negative next block", goldenBase(),
          setField(snap, "bs.nextBlock", 0, "-1"), "out of range" },
        { "issue row too short for its SM", goldenBase(),
          setField(snap, "run.stats", 0, escapeLine(stats)),
          "issue matrix shape" },
        { "shuffle entry past the sub-cores", shuffle,
          setField(shuffleSnap, "assign.perm", 0, "4"), "out of range" },
        { "shuffle entry repeated", shuffle,
          setField(shuffleSnap, "assign.perm", 1,
                   getField(shuffleSnap, "assign.perm", 0)),
          "repeats a sub-core" },
    };
    Application app = wrapKernel(kernel);
    for (const Damage &d : cases) {
        SCOPED_TRACE(d.what);
        ASSERT_TRUE(d.payload != snap && d.payload != shuffleSnap);
        SimEngine engine(d.cfg);
        EXPECT_THROW_WITH(engine.sim().resume(app, d.payload), CacheError,
                          d.error);
    }
}

TEST_F(CheckpointTest, SnapshotWithBlockedAndBarrierWarpsResumesExactly)
{
    // At cycle 24000 of this run some warps are hazard-blocked and
    // others wait at a barrier.  The blocked bit is state, saved as each
    // warp's sbBlocked field: under the migration oracle, resuming this
    // snapshot without it moves other warps and changes the result.  The
    // other warp masks are derived and rebuilt on load.
    AppSpec spec = findApp("tpcC-q2", 0.05);
    GpuConfig migrating = goldenBase();
    migrating.idealWarpMigration = true;
    for (const GpuConfig &cfg : { goldenBase(), migrating }) {
        SCOPED_TRACE(cfg.idealWarpMigration ? "migration" : "baseline");
        SimEngine full(cfg);
        std::string snap;
        sim::EngineObserver obs;
        obs.onCheckpoint = [&](const std::string &payload, Cycle now) {
            if (now == 24000)
                snap = payload;
        };
        full.addObserver(std::move(obs));
        full.setCheckpointInterval(24000);
        SimStats ref = full.runApp(spec);
        ASSERT_FALSE(snap.empty());
        EXPECT_NE(snap.find("\nwarp.sbBlocked 1\n"), std::string::npos);
        EXPECT_NE(snap.find("\nwarp.atBarrier 1\n"), std::string::npos);

        SimStats got = SimEngine(cfg).resumeApp(spec, 0, snap);
        EXPECT_EQ(sim::statsFingerprintHex(got),
                  sim::statsFingerprintHex(ref));
    }
}

// ---- golden determinism matrix: snapshot + resume == uninterrupted ----

/** Hex digest of a run's snapshots, in the order they were taken. */
std::string
snapshotDigest(const std::vector<std::string> &snaps)
{
    std::string sums;
    for (const std::string &payload : snaps)
        sums += keyToHex(hashString(payload));
    return keyToHex(hashString(sums));
}

TEST_F(CheckpointTest, ResumedRunMatchesGoldenFingerprintsEverywhere)
{
    // Every snapshot of each run is also folded into a digest pinned in
    // snapshot_digests.txt, so a change to the snapshot writer that
    // moves any byte of any payload fails here.
    auto goldens = loadGoldens(SCSIM_ENGINE_GOLDENS);
    auto digests = loadGoldens(SCSIM_SNAPSHOT_DIGESTS);
    const char *workloads[] = { "fma-unbalanced", "imbalance:4",
                                "conflict:0" };
    GpuConfig base = goldenBase();
    for (const runner::DesignInfo &d : runner::designCatalog()) {
        std::string name = d.name;
        ASSERT_TRUE(goldens.count(name)) << "no goldens for " << name;
        for (const char *w : workloads) {
            KernelDesc kernel = microWorkload(w);

            // Uninterrupted run, capturing every mid-run snapshot.
            SimEngine full(runner::designConfig(base, name));
            std::vector<std::string> snaps;
            captureSnapshots(full, 200, snaps);
            SimStats ref = full.run(kernel);
            EXPECT_EQ(sim::statsFingerprintHex(ref), goldens[name][w])
                << "design '" << name << "' workload '" << w
                << "' diverged from seed behavior";
            ASSERT_FALSE(snaps.empty())
                << "design '" << name << "' workload '" << w
                << "' finished before the first checkpoint";
            // A mismatch prints the line the file would need.
            std::string digest = snapshotDigest(snaps);
            EXPECT_EQ(digest, digests[name][w])
                << name << "\t" << w << "\t" << digest;

            // Resume a fresh simulator from a mid-run snapshot: the
            // rest of the run must land on the same fingerprint.
            SimEngine resumed(runner::designConfig(base, name));
            SimStats got = resumed.sim().resume(
                wrapKernel(kernel), snaps[snaps.size() / 2]);
            EXPECT_EQ(sim::statsFingerprintHex(got), goldens[name][w])
                << "design '" << name << "' workload '" << w
                << "' resumed to a different result";
        }
    }
}

TEST_F(CheckpointTest, SuiteAppSnapshotsMatchPinnedDigests)
{
    // The micros barely touch the caches; this suite app's snapshots
    // carry L1/L2 tag state, global-memory instructions in collector
    // units and six kernels run back to back.  It has no engine golden,
    // so each resumed run is held to its own uninterrupted run.
    auto digests = loadGoldens(SCSIM_SNAPSHOT_DIGESTS);
    const AppSpec spec = findApp("tpcC-q2", 0.01);
    for (const char *name : { "Baseline", "Shuffle+RBA" }) {
        GpuConfig cfg = runner::designConfig(goldenBase(), name);
        SimEngine full(cfg);
        std::vector<std::string> snaps;
        captureSnapshots(full, 2000, snaps);
        SimStats ref = full.runApp(spec);
        ASSERT_GE(snaps.size(), 3u) << name;
        std::string digest = snapshotDigest(snaps);
        EXPECT_EQ(digest, digests[name][spec.name])
            << name << "\t" << spec.name << "\t" << digest;

        SimStats got =
            SimEngine(cfg).resumeApp(spec, 0, snaps[snaps.size() / 2]);
        EXPECT_EQ(sim::statsFingerprintHex(got),
                  sim::statsFingerprintHex(ref))
            << name << " resumed to a different result";
    }
}

TEST_F(CheckpointTest, EverySnapshotPassesTheLoadChecks)
{
    // The load-time consistency checks must accept every state a run
    // reaches.  Each snapshot loads under a cycle budget one past its
    // own cycle, so it runs that cycle (and, in sanitizer builds, the
    // mask audit) and stops with HangError instead of finishing the
    // run.  Toy caches keep each load cheap; no check reads them.
    std::vector<std::pair<std::string, GpuConfig>> configs;
    for (const runner::DesignInfo &d : runner::designCatalog())
        configs.emplace_back(d.name, runner::designConfig(goldenBase(),
                                                          d.name));
    GpuConfig extra = goldenBase();
    extra.idealWarpMigration = true;
    configs.emplace_back("Migration", extra);
    extra = goldenBase();
    extra.scheduler = SchedulerPolicy::LRR;
    extra.assign = AssignPolicy::HashShuffle;
    configs.emplace_back("LRR+HashShuffle", extra);
    extra = GpuConfig::keplerLike();
    extra.numSms = 2;
    configs.emplace_back("SharedPool", extra);
    extra = runner::designConfig(goldenBase(), "RBA");
    extra.rbaScoreLatency = 4;
    extra.issueWidthPerScheduler = 2;
    extra.enableIdleSkip = false;
    configs.emplace_back("StaleRBA+DualIssue", extra);

    const AppSpec spec = findApp("tpcC-q2", 0.01);
    const KernelDesc kernel = microWorkload("imbalance:4");
    const Application micro = wrapKernel(kernel);
    for (auto &[name, cfg] : configs) {
        cfg.l1Bytes = 2048;
        cfg.l2Bytes = 8192;
        // The micro, then the suite app run sequentially and with its
        // kernels concurrent.
        for (int mode = 0; mode < 3; ++mode) {
            const bool suite = mode > 0;
            std::vector<std::pair<std::string, Cycle>> snaps;
            SimEngine full(cfg);
            sim::EngineObserver obs;
            obs.onCheckpoint = [&](const std::string &payload, Cycle now) {
                snaps.emplace_back(payload, now);
            };
            full.addObserver(std::move(obs));
            full.setCheckpointInterval(suite ? 2999 : 1499);
            if (suite)
                full.runApp(spec, 0, mode == 2);
            else
                full.run(kernel);
            ASSERT_FALSE(snaps.empty()) << name;
            for (const auto &[payload, now] : snaps) {
                GpuConfig budget = cfg;
                budget.maxCycles = now + 1;
                SimEngine engine(budget);
                EXPECT_THROW(suite ? engine.resumeApp(spec, 0, payload)
                                   : engine.sim().resume(micro, payload),
                             HangError)
                    << name << " mode " << mode << " snapshot at cycle "
                    << now;
            }
        }
    }
}

TEST_F(CheckpointTest, SnapshotWithSleepingClusterResumesExactly)
{
    // A low-IPC app: most sub-cores sleep between writebacks.  Sleep
    // state is not part of the snapshot; a restored cluster starts
    // awake and must reach the same result.
    AppSpec spec = findApp("tpcC-q2", 0.05);
    SimEngine full(goldenBase());
    std::string sleepySnap;
    sim::EngineObserver obs;
    obs.onCheckpoint = [&](const std::string &payload, Cycle) {
        const GpuSim &sim = full.sim();
        for (int s = 0; s < full.config().numSms; ++s)
            for (int c = 0; c < sim.sm(s).numClusters(); ++c)
                if (sleepySnap.empty() && sim.sm(s).cluster(c).asleep())
                    sleepySnap = payload;
    };
    full.addObserver(std::move(obs));
    full.setCheckpointInterval(20000);   // ~260k-cycle run
    SimStats ref = full.runApp(spec);
    ASSERT_FALSE(sleepySnap.empty())
        << "no checkpoint caught a sleeping cluster";
    EXPECT_EQ(sleepySnap.find("sleep"), std::string::npos)
        << "sleep state must stay out of the snapshot";
    EXPECT_EQ(runner::kSnapshotVersion, 1u);

    SimStats got = SimEngine(goldenBase()).resumeApp(spec, 0, sleepySnap);
    EXPECT_EQ(sim::statsFingerprintHex(got), sim::statsFingerprintHex(ref));
}

// ---- run-job cold-start fallback for every damage class ---------------

/** Run @p job through `run-job` with checkpointing against @p dir. */
SubprocessResult
runJobCli(const SimJob &job, const std::string &dir)
{
    return runSubprocess({ SCSIM_CLI_PATH, "run-job",
                           "--checkpoint-cycles", "200", "--state-dir",
                           dir },
                         serializeJob(job), 120.0);
}

/** In-process reference payload for @p job. */
std::string
referencePayload(const SimJob &job)
{
    SimEngine engine(job.cfg);
    return serializeStatsPayload(
        engine.runApp(job.app, job.salt, job.concurrent));
}

/** Assert the job succeeded and matched the in-process reference. */
void
expectCleanResult(const SubprocessResult &sub, const SimJob &job)
{
    ASSERT_TRUE(sub.exitedCleanly())
        << "exit " << sub.exitCode << " signal " << sub.termSignal
        << "\n" << sub.stderrTail;
    JobResult r;
    ASSERT_EQ(decodeJobResult(sub.stdoutText, r), WireDecode::Ok);
    EXPECT_EQ(r.status, JobStatus::Ok) << r.error;
    EXPECT_EQ(serializeStatsPayload(r.stats), referencePayload(job));
}

/** Seed a damaged snapshot, run the job, expect quarantine + success. */
void
expectColdStartRecovery(const std::string &leaf,
                        const std::string &snapshotBytes,
                        const SimJob &job = tinyJob())
{
    std::string dir = freshDir(leaf);
    std::string snap = dir + "/" + keyToHex(jobKey(job)) + ".snap";
    spew(snap, snapshotBytes);

    SubprocessResult sub = runJobCli(job, dir);
    expectCleanResult(sub, job);
    EXPECT_TRUE(std::filesystem::exists(snap + ".corrupt"))
        << "damaged snapshot was not quarantined\n" << sub.stderrTail;
    EXPECT_FALSE(std::filesystem::exists(snap))
        << "snapshot must be unlinked once the job has a result";
}

TEST_F(CheckpointTest, RunJobStartsColdOnTruncatedSnapshot)
{
    std::string frame =
        serializeSnapshot(jobKey(tinyJob()), "run.concurrent b 0\n");
    frame.resize(frame.size() / 2);
    expectColdStartRecovery("truncated", frame);
}

TEST_F(CheckpointTest, RunJobStartsColdOnFlippedChecksumByte)
{
    std::string frame =
        serializeSnapshot(jobKey(tinyJob()), "run.concurrent b 0\n");
    frame[frame.size() - 2] ^= 0x01;
    expectColdStartRecovery("flipped", frame);
}

TEST_F(CheckpointTest, RunJobStartsColdOnVersionSkewedSnapshot)
{
    std::string frame =
        serializeSnapshot(jobKey(tinyJob()), "run.concurrent b 0\n");
    auto pos = frame.find(" v1 ");
    ASSERT_NE(pos, std::string::npos);
    frame.replace(pos, 4, " v9 ");
    expectColdStartRecovery("skewed", frame);
}

TEST_F(CheckpointTest, RunJobStartsColdOnForeignJobSnapshot)
{
    expectColdStartRecovery(
        "foreign",
        serializeSnapshot(jobKey(tinyJob()) + 1, "run.concurrent b 0\n"));
}

TEST_F(CheckpointTest, RunJobStartsColdOnUnusableState)
{
    // Valid frame, right job — but a payload the simulator rejects.
    expectColdStartRecovery(
        "unusable",
        serializeSnapshot(jobKey(tinyJob()), "not a state payload\n"));
}

TEST_F(CheckpointTest, RunJobStartsColdOnSnapshotThatCannotProgress)
{
    // Every load check passes, but one busy collector unit waits on an
    // operand slot no queued read will fill (its pending mask was empty,
    // so no read for it is queued): the resumed run can only hang.
    SimJob job = tinyJob();
    job.cfg.hangWindowCycles = 5000;
    SimEngine full(job.cfg);
    std::vector<std::string> snaps;
    captureSnapshots(full, 200, snaps);
    full.runApp(job.app, job.salt, job.concurrent);

    std::string stuck;
    for (const std::string &snap : snaps) {
        for (std::size_t at = snap.find("\ncu.busy 1\ncu.warp ");
             stuck.empty() && at != std::string::npos;
             at = snap.find("\ncu.busy 1\ncu.warp ", at + 1)) {
            std::size_t pending = snap.find("\ncu.pending ", at + 1);
            if (snap.compare(pending, 14, "\ncu.pending 0\n") == 0) {
                stuck = snap;
                stuck[pending + 12] = '4';
            }
        }
        if (!stuck.empty())
            break;
    }
    ASSERT_FALSE(stuck.empty()) << "no snapshot has a ready busy unit";
    ASSERT_THROW(SimEngine(job.cfg).resumeApp(job.app, job.salt, stuck),
                 HangError);

    expectColdStartRecovery("stuck", serializeSnapshot(jobKey(job), stuck),
                            job);
}

TEST_F(CheckpointTest, RunJobSucceedsWithoutAnySnapshot)
{
    SimJob job = tinyJob();
    std::string dir = freshDir("nosnap");
    SubprocessResult sub = runJobCli(job, dir);
    expectCleanResult(sub, job);
    EXPECT_FALSE(std::filesystem::exists(
        dir + "/" + keyToHex(jobKey(job)) + ".snap"));
}

// ---- injected-ENOSPC degrade paths ------------------------------------

TEST_F(CheckpointTest, SnapshotWriteFaultDegradesButJobSucceeds)
{
    // Workers inherit the environment: every snapshot write fails as
    // if the disk were full.  The job must still finish correctly.
    setenv("SCSIM_FAULT_SNAPSHOT_WRITE", "1:1000000", 1);
    SimJob job = tinyJob();
    std::string dir = freshDir("enospc");

    SubprocessResult sub = runJobCli(job, dir);
    expectCleanResult(sub, job);
    EXPECT_NE(sub.stderrTail.find("continuing without checkpoints"),
              std::string::npos)
        << "expected exactly one degrade warning\n" << sub.stderrTail;
}

TEST_F(CheckpointTest, SnapshotFaultEnvParserRejectsGarbage)
{
    FaultInjector &fi = FaultInjector::instance();
    EXPECT_FALSE(fi.armSnapshotWriteFromEnv(nullptr));
    EXPECT_FALSE(fi.armSnapshotWriteFromEnv(""));
    EXPECT_FALSE(fi.armSnapshotWriteFromEnv("zero"));
    EXPECT_FALSE(fi.armSnapshotWriteFromEnv("3:"));
    EXPECT_TRUE(fi.armSnapshotWriteFromEnv("2"));
    EXPECT_TRUE(fi.armSnapshotWriteFromEnv("2:5"));
}

TEST_F(CheckpointTest, JournalDegradesToNoOpOnDiskFull)
{
    std::string dir = freshDir("journal");
    std::string path = dir + "/sweep.journal";
    FaultInjector::instance().armJournalWriteFaults(1, 1u << 20);

    JobResult r;
    r.status = JobStatus::Ok;
    JournalWriter w(path, 0x1234, 3, /*fresh=*/true);
    EXPECT_FALSE(w.degraded());
    EXPECT_NO_THROW(w.append(0, "a", r));  // fails -> warn + latch
    EXPECT_TRUE(w.degraded());
    EXPECT_NO_THROW(w.append(1, "b", r));  // silent no-op now

    // Only the first append even reached the injector.
    EXPECT_EQ(FaultInjector::instance().journalWriteAttempts(), 1u);

    // On disk: the header survived, no records, still parsable.
    auto contents = readJournal(path);
    EXPECT_EQ(contents.specHash, 0x1234u);
    EXPECT_TRUE(contents.records.empty());
    EXPECT_EQ(contents.dropped, 0u);
}

TEST_F(CheckpointTest, JournalKeepsRecordsWrittenBeforeDiskFilled)
{
    std::string dir = freshDir("journal_tail");
    std::string path = dir + "/sweep.journal";
    FaultInjector::instance().armJournalWriteFaults(2, 1);

    JobResult r;
    r.status = JobStatus::Ok;
    JournalWriter w(path, 0x5678, 3, /*fresh=*/true);
    w.append(0, "a", r);   // durable
    w.append(1, "b", r);   // ENOSPC -> degrade
    w.append(2, "c", r);   // no-op
    EXPECT_TRUE(w.degraded());

    auto contents = readJournal(path);
    ASSERT_EQ(contents.records.size(), 1u);
    EXPECT_EQ(contents.records[0].tag, "a");
}

// ---- CLI surface -------------------------------------------------------

TEST_F(CheckpointTest, VersionPrintsSnapshotFormat)
{
    SubprocessResult sub =
        runSubprocess({ SCSIM_CLI_PATH, "version" }, "", 30.0);
    ASSERT_TRUE(sub.exitedCleanly());
    EXPECT_NE(sub.stdoutText.find("snapshot format: v1"),
              std::string::npos)
        << sub.stdoutText;
}

TEST_F(CheckpointTest, CheckpointVerifyAcceptsGoodRejectsBad)
{
    std::string dir = freshDir("verify");
    std::string good = dir + "/good.snap";
    std::string bad = dir + "/bad.snap";
    std::string frame = serializeSnapshot(42, "run.concurrent b 0\n");
    spew(good, frame);
    frame[frame.size() - 2] ^= 0x01;
    spew(bad, frame);

    SubprocessResult ok = runSubprocess(
        { SCSIM_CLI_PATH, "checkpoint", "--file", good, "--verify" },
        "", 30.0);
    EXPECT_TRUE(ok.exitedCleanly()) << ok.stderrTail;

    SubprocessResult rej = runSubprocess(
        { SCSIM_CLI_PATH, "checkpoint", "--file", bad, "--verify" },
        "", 30.0);
    EXPECT_EQ(rej.termSignal, 0);
    EXPECT_NE(rej.exitCode, 0)
        << "corrupt snapshot must fail verification";
}

} // namespace
} // namespace scsim
