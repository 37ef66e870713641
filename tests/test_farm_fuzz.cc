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
 * WireDigests pins the bytes of one record of every wire kind (each
 * corpus frame, `status --json`, a journal file, a cache entry).
 * WireStrict re-frames one lying value per decoder (a sign, a wrapping
 * length) and expects it refused; WireFuzz drives seeded value and byte
 * damage, re-framed past the checksum, through every record decoder,
 * result-cache lookup and the journal reader.
 *
 * The seed is fixed, so a failure reproduces exactly; the iteration
 * counts put well over 10k mutated frames through the stack per run.
 * Labeled `fuzz` in CTest and included in the sanitizer presets.
 */

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <random>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "common/sim_error.hh"
#include "farm/protocol.hh"
#include "runner/design.hh"
#include "runner/job_key.hh"
#include "runner/journal.hh"
#include "runner/result_cache.hh"
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

/** A daemon status with every degradation counter off zero. */
FarmStatus
corpusStatus()
{
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
    return st;
}

/** A hello from @p role, with a fixed build name so its bytes do not
 *  follow the project version. */
HelloMsg
corpusHello(const char *role)
{
    HelloMsg m = localHello(role);
    m.build = "fuzz-build";
    return m;
}

/** Every record the protocol can utter, each one valid. */
std::vector<std::string>
corpus()
{
    std::vector<std::string> frames;
    frames.push_back(serializeHello(corpusHello("client")));
    frames.push_back(serializeHello(corpusHello("server")));

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

    frames.push_back(serializeStatus(corpusStatus()));

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

/** Values a damaged or hand-edited record might carry: a lying count
 *  or length, a sign, a width overflow, a small value off its field's
 *  range, or no number at all. */
constexpr const char *kSnapshotValues[] = {
    "-1", "0", "1", "2", "3", "7", "64", "255", "256", "65536",
    "4294967296", "9223372036854775808", "18446744073709551615",
    "+5", "1e3", "",
};

/** The same for wire records, plus hashes, names, several words (the
 *  sized-block lines `job <index> <bytes>`) and stray spaces. */
constexpr const char *kWireValues[] = {
    "-1", "0", "1", "2", "7", "127", "128", "255", "256", "65536",
    "2147483648", "4294967296", "9223372036854775808",
    "18446744073709551615", "18446744073709551616", "+5", "1e3", "-0",
    "nan", "", " 1", "1 ", "-12", "0x1", "ffffffffffffffff",
    "FFFFFFFFFFFFFFFF", "feedfacecafebee", "ok", "crashed", "bogus",
    "0 -1", "0 18446744073709551615", "1 1", "0 99999", "0 0", "1 junk 7",
};

/** Replace the value of the line after a random newline of @p s with
 *  one of @p values. */
std::string
mutLineValue(Rng &rng, std::string s,
             std::span<const char *const> values = kSnapshotValues)
{
    std::size_t at = s.find('\n', randBelow(rng, s.size()));
    if (at == std::string::npos || at + 1 >= s.size())
        return s;
    std::size_t sp = s.find(' ', at + 1);
    std::size_t eol = s.find('\n', at + 1);
    if (sp == std::string::npos || eol == std::string::npos || sp > eol)
        return s;
    s.replace(sp + 1, eol - sp - 1, values[randBelow(rng, values.size())]);
    return s;
}

/** One to three rounds of value damage (any line, the first included)
 *  or byte damage on @p payload. */
std::string
mutPayload(Rng &rng, std::string payload)
{
    std::size_t rounds = 1 + randBelow(rng, 3);
    for (std::size_t r = 0; r < rounds; ++r)
        payload = randBelow(rng, 3)
            ? mutLineValue(rng, "\n" + payload, kWireValues).substr(1)
            : mutate(rng, std::move(payload));
    return payload;
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
 * parse by magic (the farm messages, and the job, job-result and stats
 * records they embed), and let requireRecord apply the decode policy.
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
        } else if (hdr.magic == "scsim-job") {
            runner::SimJob job;
            d = runner::parseJob(frame, job);
        } else if (hdr.magic == "scsim-jobres") {
            JobResult r;
            d = runner::decodeJobResult(frame, r);
        } else if (hdr.magic == "scsim-result") {
            SimStats stats;
            d = runner::decodeStats(frame, stats);
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

// ---- pinned wire bytes --------------------------------------------------

std::string
readAll(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

std::string
freshDir(const std::string &leaf)
{
    std::string dir = testing::TempDir() + "scsim_wire_" + leaf;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

/** A crashed job's result: the error, signal and attempt fields set. */
JobResult
crashedResult()
{
    JobResult r;
    r.key = 0x0123456789abcdefULL;
    r.status = JobStatus::Crashed;
    r.error = "worker killed by signal 9\nstderr: boom";
    r.exitCode = -1;
    r.termSignal = 9;
    r.attempts = 3;
    return r;
}

/** A journal file holding two records, as JournalWriter leaves it. */
std::string
journalBytes()
{
    std::string path = freshDir("journal") + "/sweep.journal";
    {
        runner::JournalWriter w(path, 0xfeedfacecafebeefULL, 2, true);
        w.append(1, "fz-b", sampleResult());
        w.append(0, "fz a\nsecond line", crashedResult());
    }
    return readAll(path);
}

/** One result-cache entry on disk, as ResultCache::store leaves it. */
std::string
cacheEntryBytes()
{
    std::string dir = freshDir("cache");
    std::uint64_t key = sampleResult().key;
    runner::ResultCache(dir).store(key, sampleResult().stats);
    return readAll(dir + "/" + runner::keyToHex(key) + ".stats");
}

/** Every wire record kind, by name: the bytes a format change moves. */
std::vector<std::pair<std::string, std::string>>
pinnedRecords()
{
    std::vector<std::pair<std::string, std::string>> records;
    const std::vector<std::string> frames = corpus();
    for (std::size_t i = 0; i < frames.size(); ++i) {
        runner::FrameHeader hdr;
        EXPECT_TRUE(runner::peekFrameHeader(frames[i], hdr));
        records.emplace_back("frame" + std::to_string(i) + "." + hdr.magic,
                             frames[i]);
    }
    records.emplace_back("status-json", statusToJson(corpusStatus()));
    records.emplace_back("journal", journalBytes());
    records.emplace_back("cache-entry", cacheEntryBytes());
    return records;
}

/**
 * Each record's FNV digest against tests/goldens/wire_digests.txt
 * (`name<TAB>hex`).  Farm peers, journals and caches written by another
 * build of the same format versions read these bytes, so a change that
 * moves one must bump its format version and re-pin; a mismatch prints
 * the line the file would need.
 */
TEST(WireDigests, EveryRecordMatchesItsPin)
{
    std::map<std::string, std::string> pins;
    std::ifstream in(SCSIM_WIRE_DIGESTS);
    ASSERT_TRUE(in.good()) << "missing " << SCSIM_WIRE_DIGESTS;
    std::string line;
    while (std::getline(in, line)) {
        auto tab = line.find('\t');
        if (tab != std::string::npos)
            pins[line.substr(0, tab)] = line.substr(tab + 1);
    }
    const auto records = pinnedRecords();
    for (const auto &[name, bytes] : records) {
        std::string digest = runner::keyToHex(hashString(bytes));
        EXPECT_EQ(digest, pins[name]) << name << "\t" << digest;
    }
    EXPECT_EQ(pins.size(), records.size());
}

// ---- strict values past the checksum ------------------------------------

/** @p frame with its payload passed through @p edit and re-framed under
 *  the same magic and version, so the checksum holds and the damage
 *  reaches the decoder (a checksum detects damage; it does not vouch
 *  for the sender). */
template <class Edit>
std::string
reframe(const std::string &frame, Edit &&edit)
{
    runner::FrameHeader hdr;
    EXPECT_TRUE(runner::peekFrameHeader(frame, hdr));
    return runner::frameRecord(hdr.magic.c_str(), hdr.version,
                               edit(frame.substr(frame.find('\n') + 1)));
}

/** @p frame with the value of its first `key ...` payload line set to
 *  @p value. */
std::string
withValue(const std::string &frame, const std::string &key,
          const std::string &value)
{
    return reframe(frame, [&](std::string payload) {
        std::size_t at = payload.rfind(key + " ", 0) == 0
            ? 0
            : payload.find("\n" + key + " ");
        EXPECT_NE(at, std::string::npos) << key;
        if (at != 0)
            ++at;
        std::size_t from = at + key.size() + 1;
        payload.replace(from, payload.find('\n', from) - from, value);
        return payload;
    });
}

TEST(WireStrict, StatusRefusesNegativeCounts)
{
    const std::string frame = serializeStatus(corpusStatus());
    FarmStatus out;
    EXPECT_EQ(parseStatus(withValue(frame, "workers", "-1"), out),
              WireDecode::Corrupt);
    EXPECT_EQ(parseStatus(withValue(frame, "jobsfailed", "-1"), out),
              WireDecode::Corrupt);
    EXPECT_EQ(parseStatus(withValue(frame, "workers", "7"), out),
              WireDecode::Ok);
    EXPECT_EQ(out.workers, 7);
}

TEST(WireStrict, AcceptRefusesSignedHashAndId)
{
    AcceptMsg acc;
    acc.sweepId = 7;
    acc.specHash = 0xfeedfacecafebeefULL;
    const std::string frame = serializeAccept(acc);
    AcceptMsg out;
    EXPECT_EQ(parseAccept(withValue(frame, "spec", "-1"), out),
              WireDecode::Corrupt);
    EXPECT_EQ(parseAccept(withValue(frame, "spec", "0x1"), out),
              WireDecode::Corrupt);
    EXPECT_EQ(parseAccept(withValue(frame, "sweep", "-7"), out),
              WireDecode::Corrupt);
}

TEST(WireStrict, SubmitRefusesAWrappingBlockLength)
{
    SubmitMsg sub;
    sub.spec.jobs.push_back(smallSpec().jobs.front());
    const std::string frame = serializeSubmit(sub);
    SubmitMsg out;
    EXPECT_EQ(parseSubmit(withValue(frame, "job", "0 -1"), out),
              WireDecode::Corrupt);
    EXPECT_EQ(parseSubmit(withValue(frame, "job",
                                    "0 18446744073709551615"),
                          out),
              WireDecode::Corrupt);
    EXPECT_EQ(parseSubmit(frame, out), WireDecode::Ok);
}

TEST(WireStrict, JobDoneRefusesALyingResultLength)
{
    JobDoneMsg done;
    done.result = sampleResult();
    const std::string frame = serializeJobDone(done);
    JobDoneMsg out;
    EXPECT_EQ(parseJobDone(withValue(frame, "result", "-1"), out),
              WireDecode::Corrupt);
    EXPECT_EQ(parseJobDone(withValue(frame, "result", "99999999"), out),
              WireDecode::Corrupt);
}

TEST(WireStrict, EnvelopeRefusesASignedLength)
{
    const std::string frame = serializeStatusReq();
    FrameAssembler in;
    in.feed("frame +" + std::to_string(frame.size()) + "\n" + frame);
    std::string got;
    EXPECT_FALSE(in.next(got));
    EXPECT_TRUE(in.corrupt());
}

TEST(WireStrict, JobRecordRefusesWrappedSaltBoolAndRaggedPattern)
{
    const runner::SimJob job = smallSpec().jobs.front();
    const std::string frame = runner::serializeJob(job);
    runner::SimJob out;
    EXPECT_EQ(runner::parseJob(withValue(frame, "salt", "-1"), out),
              WireDecode::Corrupt);
    EXPECT_EQ(runner::parseJob(withValue(frame, "concurrent", "7"), out),
              WireDecode::Corrupt);
    EXPECT_EQ(runner::parseJob(withValue(frame, "app.divPattern",
                                         "1 junk 7"),
                               out),
              WireDecode::Corrupt);
    EXPECT_EQ(runner::parseJob(withValue(frame, "cfg", "numSms +7"), out),
              WireDecode::Corrupt);
    EXPECT_EQ(runner::parseJob(withValue(frame, "app.divPattern", "1 2"),
                               out),
              WireDecode::Ok);
    EXPECT_EQ(out.app.divPattern, (std::vector<double>{ 1, 2 }));
}

TEST(WireStrict, JobResultRefusesNegativeAttemptsAndKey)
{
    const std::string frame = runner::serializeJobResult(sampleResult());
    JobResult out;
    EXPECT_EQ(runner::decodeJobResult(withValue(frame, "attempts", "-5"),
                                      out),
              WireDecode::Corrupt);
    EXPECT_EQ(runner::decodeJobResult(withValue(frame, "key", "-12"), out),
              WireDecode::Corrupt);
}

/** A two-record journal at @p leaf with its text passed through
 *  @p edit. */
template <class Edit>
std::string
editedJournal(const std::string &leaf, Edit &&edit)
{
    std::string path = freshDir(leaf) + "/sweep.journal";
    std::string text = edit(journalBytes());
    std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
    return path;
}

TEST(WireStrict, JournalHeaderRefusesSignedCountAndHash)
{
    auto header = [](const char *from, const char *to) {
        return editedJournal("header", [&](std::string text) {
            std::size_t at = text.find(from);
            EXPECT_LT(at, text.find('\n')) << from;
            return text.replace(at, std::string(from).size(), to);
        });
    };
    EXPECT_THROW(runner::readJournal(header(" jobs 2\n", " jobs -2\n")),
                 CacheError);
    EXPECT_THROW(runner::readJournal(header(" spec feedfacecafebeef ",
                                            " spec -abc ")),
                 CacheError);
    EXPECT_EQ(runner::readJournal(header(" jobs 2\n", " jobs 3\n")).jobCount,
              3u);
}

TEST(WireStrict, JournalRefusesAWrappingRecordLength)
{
    // The record's jobres bytes end the file with no newline: a length
    // read as 2^64 - 1 would take them all and wrap the position back.
    const std::string path = editedJournal("reclen", [](std::string text) {
        std::size_t line = text.find("\nrecord ") + 1;
        std::size_t eol = text.find('\n', line);
        std::string body = text.substr(eol + 1);
        body = body.substr(0, body.find("\nrecord "));
        return text.substr(0, line) + "record 1 -1 fz-b\n" + body;
    });
    runner::JournalContents j = runner::readJournal(path);
    EXPECT_TRUE(j.records.empty());
    EXPECT_EQ(j.dropped, 1u);
}

// ---- value damage past the checksum -------------------------------------

/** Every frame kind of the wire, farm messages and the job, job-result
 *  and stats records they embed. */
std::vector<std::string>
wireCorpus()
{
    std::vector<std::string> frames = corpus();
    frames.push_back(runner::serializeJob(smallSpec().jobs.back()));
    frames.push_back(runner::serializeJobResult(sampleResult()));
    frames.push_back(runner::serializeJobResult(crashedResult()));
    frames.push_back(runner::serializeStats(sampleResult().stats));
    return frames;
}

/**
 * Value damage — signs, overflows, lying counts and block lengths,
 * ragged lists, bad hashes and names — and byte damage, re-framed so
 * the checksum holds, against every record decoder.  Each input must
 * decode or be refused (Corrupt or a typed error); the undamaged header
 * means none is skew.
 */
TEST(WireFuzz, ValueDamagePastTheChecksumDecodesOrIsRefused)
{
    Rng rng(kFuzzSeed ^ 0x7a1);
    const std::vector<std::string> seeds = wireCorpus();
    Tally t;
    constexpr int kIterations = 4000;
    for (int i = 0; i < kIterations; ++i)
        exerciseFrame(reframe(seeds[randBelow(rng, seeds.size())],
                              [&](std::string p) {
                                  return mutPayload(rng, std::move(p));
                              }),
                      t);
    EXPECT_EQ(t.frames, static_cast<std::uint64_t>(kIterations));
    EXPECT_EQ(t.noHeader + t.unknownMagic + t.skew, 0u);
    EXPECT_GT(t.corrupt, static_cast<std::uint64_t>(kIterations) / 4);
    EXPECT_GT(t.ok, 0u);
}

/**
 * Damaged result-cache entries on disk, through lookup: an entry that
 * decodes is a hit, a corrupt one is quarantined (moved aside, counted)
 * and misses, and nothing else happens.
 */
TEST(WireFuzz, DamagedCacheEntriesHitOrAreQuarantined)
{
    Rng rng(kFuzzSeed ^ 0xcac4e);
    const std::string good = cacheEntryBytes();
    const std::uint64_t key = sampleResult().key;
    std::uint64_t hits = 0, quarantined = 0;
    constexpr int kIterations = 300;
    for (int i = 0; i < kIterations; ++i) {
        std::string entry = randBelow(rng, 4)
            ? reframe(good,
                      [&](std::string p) {
                          return mutPayload(rng, std::move(p));
                      })
            : mutate(rng, good);
        const std::string dir = freshDir("cachefuzz");
        const std::string path =
            dir + "/" + runner::keyToHex(key) + ".stats";
        std::ofstream(path, std::ios::binary | std::ios::trunc) << entry;

        runner::ResultCache cache(dir);
        SimStats out, direct;
        const WireDecode d = runner::decodeStats(entry, direct);
        const bool hit = cache.lookup(key, out);
        EXPECT_EQ(hit, d == WireDecode::Ok) << i;
        EXPECT_EQ(cache.quarantined(), d == WireDecode::Corrupt ? 1u : 0u)
            << i;
        EXPECT_EQ(std::filesystem::exists(path), d != WireDecode::Corrupt)
            << i;
        hits += hit;
        quarantined += cache.quarantined();
    }
    EXPECT_GT(hits, 0u);
    EXPECT_GT(quarantined, static_cast<std::uint64_t>(kIterations) / 4);
}

/**
 * Damaged journals through readJournal and adoptJournal: header damage
 * is refused with CacheError; record damage (lying index or length,
 * a job-result record that lies inside a valid checksum, torn bytes)
 * keeps the intact records before it and drops the rest.
 */
TEST(WireFuzz, DamagedJournalsRecoverOrAreRefused)
{
    Rng rng(kFuzzSeed ^ 0x10a4);
    const SweepSpec spec = smallSpec();
    const std::uint64_t specHash = runner::sweepSpecHash(spec);
    const JobResult results[] = { sampleResult(), crashedResult() };
    const std::string path = freshDir("journalfuzz") + "/sweep.journal";
    { runner::JournalWriter(path, specHash, spec.jobs.size(), true); }
    const std::string header = readAll(path);

    std::uint64_t refused = 0, adoptedAny = 0, dropped = 0;
    constexpr int kIterations = 300;
    for (int i = 0; i < kIterations; ++i) {
        std::string text = header;
        for (std::size_t j = 0; j < spec.jobs.size(); ++j) {
            std::string res = runner::serializeJobResult(results[j]);
            if (randBelow(rng, 3) == 0)
                res = reframe(res, [&](std::string p) {
                    return mutPayload(rng, std::move(p));
                });
            text += "record " + std::to_string(j) + " "
                + std::to_string(res.size()) + " " + spec.jobs[j].tag
                + "\n" + res + "\n";
        }
        if (randBelow(rng, 2))
            text = randBelow(rng, 2) ? mutLineValue(rng, text, kWireValues)
                                     : mutate(rng, std::move(text));
        std::ofstream(path, std::ios::binary | std::ios::trunc) << text;

        try {
            runner::JournalContents j = runner::readJournal(path);
            EXPECT_LE(j.records.size() + j.dropped, spec.jobs.size()) << i;
            dropped += j.dropped;
            std::vector<std::optional<JobResult>> adopted;
            if (runner::adoptJournal(path, spec, specHash, adopted).empty())
                for (const auto &slot : adopted)
                    adoptedAny += slot.has_value();
        } catch (const CacheError &) {
            ++refused;
        }
    }
    EXPECT_GT(refused, 0u);
    EXPECT_GT(dropped, 0u);
    EXPECT_GT(adoptedAny, 0u);
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
