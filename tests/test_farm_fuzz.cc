/**
 * @file
 * Deterministic fuzzer for the farm wire surface and the snapshot
 * reader.
 *
 * A seeded PRNG mutates valid protocol frames — truncation, bitflips,
 * byte substitution, envelope length lies, garbage preambles, spliced
 * and interleaved frames — and feeds the damage to exactly the code a
 * hostile or broken peer would reach: FrameAssembler (in arbitrary
 * read()-chunk sizes) and every protocol parser, with requireRecord's
 * decode policy on top.  The contract under test is "classify, never
 * crash": every input must come back as Ok, VersionSkew, Corrupt, a
 * poisoned stream, or a typed ConfigError/SimError — no aborts, no
 * reads past the buffer (the asan/tsan presets run this binary), no
 * unbounded memory.
 *
 * The same mutators, plus lying list counts and off-range values,
 * damage mid-run snapshot payloads, which are re-framed so the wire
 * checksum passes and the damage reaches StateReader and
 * GpuSim::resume (the SnapshotFuzz tests).
 *
 * The seed is fixed, so a failure reproduces exactly; the iteration
 * counts put well over 10k mutated frames through the stack per run.
 * Labeled `fuzz` in CTest and included in the sanitizer presets.
 */

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/sim_error.hh"
#include "farm/protocol.hh"
#include "runner/design.hh"
#include "runner/wire.hh"
#include "sim/engine.hh"
#include "workloads/suite.hh"

namespace scsim::farm {
namespace {

using runner::FrameAssembler;
using runner::JobResult;
using runner::JobStatus;
using runner::SweepSpec;
using runner::WireDecode;

using Rng = std::mt19937_64;

/** One PRNG for the whole binary: mutation k of frame j of test i is
 *  the same bytes every run, on every machine. */
constexpr std::uint64_t kFuzzSeed = 0x5c51f4112e5eedULL;

std::size_t
randBelow(Rng &rng, std::size_t n)
{
    return n ? static_cast<std::size_t>(rng() % n) : 0;
}

// ---- corpus: one valid frame of every record kind ---------------------

SweepSpec
smallSpec()
{
    AppSpec app;
    app.name = "fuzzapp";
    app.suite = "test";
    app.numBlocks = 4;
    app.warpsPerBlock = 4;
    app.baseInsts = 60;
    app.footprintMB = 1;

    GpuConfig cfg = GpuConfig::volta();
    cfg.numSms = 2;

    SweepSpec spec;
    spec.add("fz-a", cfg, app);
    app.numBlocks = 8;
    spec.add("fz-b", cfg, app);
    return spec;
}

JobResult
sampleResult()
{
    JobResult r;
    r.key = 0x1122334455667788ULL;
    r.status = JobStatus::Ok;
    r.wallMs = 12.5;
    r.attempts = 1;
    r.stats.cycles = 123456;
    r.stats.instructions = 7890;
    r.stats.threadInstructions = 7890 * 32;
    return r;
}

/** Every record the protocol can utter, each one valid. */
std::vector<std::string>
corpus()
{
    std::vector<std::string> frames;
    frames.push_back(serializeHello(localHello("client")));
    frames.push_back(serializeHello(localHello("server")));

    SubmitMsg sub;
    sub.name = "fuzz-sweep";
    sub.detach = true;
    sub.resume = true;
    sub.spec = smallSpec();
    frames.push_back(serializeSubmit(sub));

    AcceptMsg acc;
    acc.sweepId = 7;
    acc.specHash = 0xfeedfacecafebeefULL;
    acc.jobCount = 2;
    acc.adopted = 1;
    frames.push_back(serializeAccept(acc));

    JobDoneMsg done;
    done.index = 1;
    done.adopted = true;
    done.result = sampleResult();
    frames.push_back(serializeJobDone(done));

    JobDoneMsg crashed;
    crashed.index = 0;
    crashed.result.status = JobStatus::Crashed;
    crashed.result.error = "worker killed by signal 9";
    crashed.result.termSignal = 9;
    crashed.result.attempts = 3;
    frames.push_back(serializeJobDone(crashed));

    SweepDoneMsg fin;
    fin.executed = 2;
    fin.cacheHits = 1;
    fin.failed = 1;
    fin.resumed = 1;
    frames.push_back(serializeSweepDone(fin));

    frames.push_back(serializeStatusReq());

    FarmStatus st;
    st.build = "fuzz-build";
    st.protocol = kFarmProtocolVersion;
    st.uptimeMs = 987654;
    st.workers = 4;
    st.busyWorkers = 2;
    st.queueDepth = 5;
    st.inFlight = 2;
    st.draining = true;
    st.maxQueuedJobs = 64;
    st.maxSweepsPerClient = 2;
    st.submitsRejected = 3;
    st.idleDisconnects = 1;
    st.slowReaderDisconnects = 1;
    st.connectionsShed = 1;
    st.acceptFailures = 2;
    st.staleCompletions = 1;
    frames.push_back(serializeStatus(st));

    frames.push_back(serializeError("spec rejected: empty sweep"));

    BusyMsg busy;
    busy.reason = "queue-full";
    busy.retryAfterMs = 500;
    busy.queueDepth = 64;
    frames.push_back(serializeBusy(busy));

    frames.push_back(serializeDrainReq());

    DrainAckMsg ack;
    ack.inFlight = 2;
    ack.abandoned = 5;
    ack.sweepsActive = 1;
    frames.push_back(serializeDrainAck(ack));

    return frames;
}

// ---- mutators ---------------------------------------------------------

std::string
mutTruncate(Rng &rng, std::string s)
{
    s.resize(randBelow(rng, s.size() + 1));
    return s;
}

std::string
mutBitflips(Rng &rng, std::string s)
{
    if (s.empty())
        return s;
    std::size_t flips = 1 + randBelow(rng, 8);
    for (std::size_t i = 0; i < flips; ++i)
        s[randBelow(rng, s.size())] ^=
            static_cast<char>(1u << randBelow(rng, 8));
    return s;
}

std::string
mutSubstitute(Rng &rng, std::string s)
{
    if (s.empty())
        return s;
    std::size_t n = 1 + randBelow(rng, 16);
    for (std::size_t i = 0; i < n; ++i)
        s[randBelow(rng, s.size())] = static_cast<char>(rng() & 0xff);
    return s;
}

std::string
mutInsert(Rng &rng, std::string s)
{
    std::size_t at = randBelow(rng, s.size() + 1);
    std::size_t n = 1 + randBelow(rng, 32);
    std::string junk;
    for (std::size_t i = 0; i < n; ++i)
        junk.push_back(static_cast<char>(rng() & 0xff));
    s.insert(at, junk);
    return s;
}

std::string
mutDeleteSlice(Rng &rng, std::string s)
{
    if (s.empty())
        return s;
    std::size_t at = randBelow(rng, s.size());
    std::size_t n = 1 + randBelow(rng, s.size() - at);
    s.erase(at, n);
    return s;
}

std::string
mutSplice(Rng &rng, std::string s)
{
    if (s.size() < 2)
        return s;
    std::size_t at = randBelow(rng, s.size());
    std::size_t n = 1 + randBelow(rng, s.size() - at);
    std::size_t to = randBelow(rng, s.size());
    s.insert(to, s.substr(at, n));
    return s;
}

std::string
mutGarbagePreamble(Rng &rng, std::string s)
{
    std::size_t n = 1 + randBelow(rng, 64);
    std::string junk;
    for (std::size_t i = 0; i < n; ++i)
        junk.push_back(static_cast<char>(rng() & 0xff));
    return junk + s;
}

using Mutator = std::string (*)(Rng &, std::string);

constexpr Mutator kMutators[] = {
    mutTruncate,     mutBitflips, mutSubstitute,      mutInsert,
    mutDeleteSlice,  mutSplice,   mutGarbagePreamble,
};

std::string
mutate(Rng &rng, std::string s)
{
    return kMutators[randBelow(rng, std::size(kMutators))](
        rng, std::move(s));
}

/** Envelope @p frame with a lying byte count some of the time. */
std::string
envelopeMaybeLying(Rng &rng, const std::string &frame)
{
    switch (rng() % 4) {
    case 0: {  // claim fewer bytes: tail bleeds into the next envelope
        std::size_t claim = randBelow(rng, frame.size() + 1);
        return "frame " + std::to_string(claim) + "\n" + frame;
    }
    case 1: {  // claim more bytes: swallows part of the next frame
        std::size_t claim = frame.size() + 1 + randBelow(rng, 4096);
        return "frame " + std::to_string(claim) + "\n" + frame;
    }
    case 2:  // no envelope at all: raw record on the stream
        return frame;
    default:
        return runner::envelopeFrame(frame);
    }
}

// ---- the parser under the frame: dispatch + classify ------------------

struct Tally
{
    std::uint64_t frames = 0;       //!< frames pushed at the parsers
    std::uint64_t ok = 0;
    std::uint64_t skew = 0;
    std::uint64_t corrupt = 0;
    std::uint64_t noHeader = 0;     //!< peekFrameHeader said no
    std::uint64_t unknownMagic = 0;
    std::uint64_t threw = 0;        //!< typed ConfigError/SimError
};

void
classify(WireDecode d, Tally &t)
{
    switch (d) {
    case WireDecode::Ok: ++t.ok; break;
    case WireDecode::VersionSkew: ++t.skew; break;
    case WireDecode::Corrupt: ++t.corrupt; break;
    }
}

/**
 * What a real peer does with an arriving frame: peek the header,
 * parse by magic, and let requireRecord apply the decode policy.
 * Anything other than a clean classification or a typed SimError is a
 * fuzzing finding (crash, sanitizer report, or foreign exception).
 */
void
exerciseFrame(const std::string &frame, Tally &t)
{
    ++t.frames;
    runner::FrameHeader hdr;
    if (!runner::peekFrameHeader(frame, hdr)) {
        ++t.noHeader;
        return;
    }

    try {
        WireDecode d = WireDecode::Corrupt;
        if (hdr.magic == kHelloMagic) {
            HelloMsg m;
            d = parseHello(frame, m);
        } else if (hdr.magic == kSubmitMagic) {
            SubmitMsg m;
            d = parseSubmit(frame, m);
        } else if (hdr.magic == kAcceptMagic) {
            AcceptMsg m;
            d = parseAccept(frame, m);
        } else if (hdr.magic == kJobDoneMagic) {
            JobDoneMsg m;
            d = parseJobDone(frame, m);
        } else if (hdr.magic == kSweepDoneMagic) {
            SweepDoneMsg m;
            d = parseSweepDone(frame, m);
        } else if (hdr.magic == kStatusReqMagic) {
            d = parseStatusReq(frame);
        } else if (hdr.magic == kStatusMagic) {
            FarmStatus m;
            d = parseStatus(frame, m);
        } else if (hdr.magic == kErrorMagic) {
            ErrorMsg m;
            d = parseError(frame, m);
        } else if (hdr.magic == kBusyMagic) {
            BusyMsg m;
            d = parseBusy(frame, m);
        } else if (hdr.magic == kDrainReqMagic) {
            d = parseDrainReq(frame);
        } else if (hdr.magic == kDrainAckMagic) {
            DrainAckMsg m;
            d = parseDrainAck(frame, m);
        } else {
            ++t.unknownMagic;
            return;
        }
        classify(d, t);
        // The decode policy layer must also only classify or throw.
        try {
            requireRecord(d, frame, "fuzz");
        } catch (const ConfigError &) {
        }
    } catch (const SimError &) {
        ++t.threw;  // parseSubmit's embedded GpuConfig::set, etc.
    }
}

// ---- tests ------------------------------------------------------------

/** The corpus itself is valid: every frame parses Ok via its own
 *  parser.  Guards the fuzzer against silently fuzzing garbage. */
TEST(FarmFuzz, CorpusIsValid)
{
    Tally t;
    for (const std::string &frame : corpus())
        exerciseFrame(frame, t);
    EXPECT_EQ(t.ok, t.frames);
    EXPECT_EQ(t.noHeader, 0u);
    EXPECT_EQ(t.unknownMagic, 0u);
    EXPECT_EQ(t.threw, 0u);
}

/**
 * Mutated single frames against every parser.  ~8k mutated frames;
 * each must classify (Ok/skew/corrupt), throw a typed error, or fail
 * header-peek — never crash.
 */
TEST(FarmFuzz, MutatedFramesNeverCrashTheParsers)
{
    Rng rng(kFuzzSeed);
    const std::vector<std::string> seeds = corpus();
    Tally t;

    constexpr int kIterations = 8000;
    for (int i = 0; i < kIterations; ++i) {
        std::string frame = seeds[randBelow(rng, seeds.size())];
        // Stack 1-3 mutations so damage compounds.
        std::size_t rounds = 1 + randBelow(rng, 3);
        for (std::size_t r = 0; r < rounds; ++r)
            frame = mutate(rng, std::move(frame));
        exerciseFrame(frame, t);
    }

    EXPECT_EQ(t.frames, static_cast<std::uint64_t>(kIterations));
    // The mutators leave some frames intact-enough to parse (e.g. a
    // splice past the payload end), but the overwhelming bulk must be
    // caught by the checksum.  If `corrupt` collapses toward zero the
    // checksum has stopped covering the payload.
    EXPECT_GT(t.corrupt + t.noHeader + t.unknownMagic + t.threw + t.skew,
              static_cast<std::uint64_t>(kIterations) / 2);
}

/**
 * Mutated byte streams against FrameAssembler, fed in random chunk
 * sizes, with every popped frame dispatched to the parsers.  Covers
 * envelope length lies, interleaved/spliced frames and garbage
 * preambles; checks the poison contract (a corrupt stream never
 * yields another frame) and bounded buffering at every step.
 */
TEST(FarmFuzz, MutatedStreamsNeverCrashTheAssembler)
{
    Rng rng(kFuzzSeed ^ 0xa55a);
    const std::vector<std::string> seeds = corpus();
    Tally t;
    std::uint64_t streams = 0, poisoned = 0, framesMutated = 0;

    constexpr int kIterations = 1500;
    for (int i = 0; i < kIterations; ++i) {
        // 1-4 frames per stream, enveloped with occasional lies.
        std::string stream;
        std::size_t nFrames = 1 + randBelow(rng, 4);
        for (std::size_t f = 0; f < nFrames; ++f)
            stream += envelopeMaybeLying(
                rng, seeds[randBelow(rng, seeds.size())]);
        framesMutated += nFrames;

        // Then damage the raw transport bytes most of the time.
        if (rng() % 8 != 0) {
            std::size_t rounds = 1 + randBelow(rng, 2);
            for (std::size_t r = 0; r < rounds; ++r)
                stream = mutate(rng, std::move(stream));
        }

        FrameAssembler in;
        std::size_t off = 0;
        while (off < stream.size()) {
            std::size_t chunk =
                std::min(stream.size() - off, 1 + randBelow(rng, 257));
            in.feed(stream.data() + off, chunk);
            off += chunk;

            std::string frame;
            while (in.next(frame))
                exerciseFrame(frame, t);
            if (in.corrupt()) {
                // Poison is terminal: no more frames, no residue
                // growth from further feeds.
                EXPECT_FALSE(in.next(frame));
                in.feed(stream.data() + off, stream.size() - off);
                EXPECT_FALSE(in.next(frame));
                EXPECT_EQ(in.buffered(), 0u);
                ++poisoned;
                break;
            }
            // Buffering stays bounded by the frame cap plus one
            // envelope line, mutated or not.
            EXPECT_LE(in.buffered(), in.maxFrameBytes() + 64);
        }
        ++streams;
    }

    EXPECT_EQ(streams, static_cast<std::uint64_t>(kIterations));
    EXPECT_GT(poisoned, 0u);
    EXPECT_GT(t.frames, 0u);
    // Combined with the single-frame test this run pushed >10k
    // mutated inputs through the protocol stack.
    EXPECT_GE(framesMutated + 8000, 10000u);
}

/**
 * Adversarial envelopes with valid payloads: a peer that speaks
 * perfect records inside a lying transport.  All damage must land on
 * the envelope layer (poison / short frame -> Corrupt), and an
 * undamaged prefix must still deliver its frames.
 */
TEST(FarmFuzz, LyingEnvelopesAroundValidRecords)
{
    Rng rng(kFuzzSeed ^ 0xbeef);
    const std::vector<std::string> seeds = corpus();

    constexpr int kIterations = 2000;
    for (int i = 0; i < kIterations; ++i) {
        const std::string &good = seeds[randBelow(rng, seeds.size())];
        const std::string &bad = seeds[randBelow(rng, seeds.size())];

        // valid envelope, then a lying one, then another valid one.
        std::string stream = runner::envelopeFrame(good);
        std::size_t lie = randBelow(rng, bad.size() + 4096);
        stream += "frame " + std::to_string(lie) + "\n" + bad;
        stream += runner::envelopeFrame(good);

        FrameAssembler in;
        in.feed(stream);
        std::string frame;
        ASSERT_TRUE(in.next(frame));  // undamaged prefix delivers
        EXPECT_EQ(frame, good);

        Tally t;
        while (in.next(frame))
            exerciseFrame(frame, t);
        // Whatever the lie produced, it classified; nothing crashed.
        EXPECT_LE(t.ok, 2u);
    }
}

// ---- snapshot payloads -------------------------------------------------

/** One small machine per design: two SMs, toy caches (so a payload is
 *  a few KB), and a hang window short enough that a resumed state
 *  which can no longer progress is classified within a few thousand
 *  cycles. */
GpuConfig
snapshotConfig(const char *design)
{
    GpuConfig cfg = GpuConfig::volta();
    cfg.numSms = 2;
    cfg.l1Bytes = 2048;
    cfg.l2Bytes = 8192;
    cfg = runner::designConfig(cfg, design);
    cfg.hangWindowCycles = 4000;
    cfg.maxCycles = 200000;
    return cfg;
}

/** Replace one line's value with one a damaged or hand-edited
 *  snapshot might carry: a lying list count, a sign, a width overflow,
 *  a small value off its field's range, or no number at all. */
std::string
mutLineValue(Rng &rng, std::string s)
{
    std::size_t at = s.find('\n', randBelow(rng, s.size()));
    if (at == std::string::npos || at + 1 >= s.size())
        return s;
    std::size_t sp = s.find(' ', at + 1);
    std::size_t eol = s.find('\n', at + 1);
    if (sp == std::string::npos || eol == std::string::npos || sp > eol)
        return s;
    static const char *const kValues[] = {
        "-1", "0", "1", "2", "3", "7", "64", "255", "256", "65536",
        "4294967296", "9223372036854775808", "18446744073709551615",
        "+5", "1e3", "",
    };
    s.replace(sp + 1, eol - sp - 1,
              kValues[randBelow(rng, std::size(kValues))]);
    return s;
}

struct SnapshotSeed
{
    GpuConfig cfg;
    std::string payload;
};

/** Mid-run snapshots of a small synthetic app under a few designs:
 *  stateful policies (GTO, RBA, Shuffle and SRR assignment), split
 *  and pooled sub-cores, busy collector units, queued reads and
 *  pending writebacks. */
std::vector<SnapshotSeed>
snapshotCorpus(const AppSpec &app)
{
    std::vector<SnapshotSeed> seeds;
    for (const char *design :
         { "Baseline", "Shuffle+RBA", "SRR", "Fully-Connected" }) {
        GpuConfig cfg = snapshotConfig(design);
        std::vector<std::string> snaps;
        sim::SimEngine engine(cfg);
        sim::EngineObserver obs;
        obs.onCheckpoint = [&](const std::string &payload, Cycle) {
            snaps.push_back(payload);
        };
        engine.addObserver(std::move(obs));
        engine.setCheckpointInterval(97);
        engine.runApp(app);
        for (std::size_t i = 0; i < snaps.size(); i += 1 + snaps.size() / 4)
            seeds.push_back({ cfg, snaps[i] });
    }
    return seeds;
}

AppSpec
snapshotApp()
{
    AppSpec app = smallSpec().jobs.front().app;
    app.name = "snapfuzz";
    return app;
}

TEST(SnapshotFuzz, CorpusResumes)
{
    const AppSpec app = snapshotApp();
    for (const SnapshotSeed &seed : snapshotCorpus(app))
        EXPECT_NO_THROW(sim::SimEngine(seed.cfg).resumeApp(app, 0,
                                                           seed.payload));
}

/**
 * Mutated snapshot payloads, re-framed so their checksum holds, into
 * GpuSim::resume.  Each must resume, or throw CacheError (the reader
 * refused it), or HangError: a value that parses and lies in its
 * range can still describe a machine that never progresses (say, a
 * collector unit waiting on a read no bank queues), which only the
 * watchdog can see.  Nothing may crash, assert or trip a sanitizer.
 */
TEST(SnapshotFuzz, MutatedSnapshotsResumeOrAreRefused)
{
    Rng rng(kFuzzSeed ^ 0x5a9);
    const AppSpec app = snapshotApp();
    const std::vector<SnapshotSeed> seeds = snapshotCorpus(app);
    ASSERT_GE(seeds.size(), 6u);

    std::uint64_t resumed = 0, refused = 0, hung = 0;
    constexpr int kIterations = 1000;
    for (int i = 0; i < kIterations; ++i) {
        const SnapshotSeed &seed = seeds[randBelow(rng, seeds.size())];
        std::string payload = seed.payload;
        int rounds = 1 + static_cast<int>(randBelow(rng, 3));
        for (int r = 0; r < rounds; ++r)
            payload = randBelow(rng, 2) ? mutLineValue(rng, payload)
                                        : mutate(rng, payload);
        std::uint64_t key = 0;
        std::string body;
        ASSERT_EQ(runner::decodeSnapshot(
                      runner::serializeSnapshot(42, payload), key, body),
                  WireDecode::Ok);
        try {
            sim::SimEngine(seed.cfg).resumeApp(app, 0, body);
            ++resumed;
        } catch (const CacheError &) {
            ++refused;
        } catch (const HangError &) {
            ++hung;
        } catch (const std::exception &e) {
            ADD_FAILURE() << "iteration " << i << ": " << e.what();
        }
    }
    EXPECT_EQ(resumed + refused + hung,
              static_cast<std::uint64_t>(kIterations));
    // Most damage is caught by the reader itself.
    EXPECT_GT(refused, static_cast<std::uint64_t>(kIterations) / 2);
}

} // namespace
} // namespace scsim::farm
