/** @file Tests for the banked register file arbiter. */

#include <deque>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "common/state_io.hh"
#include "core/reg_file.hh"

namespace scsim {
namespace {

/** One arbitration cycle's grants, collected through the callbacks. */
struct Grants
{
    std::vector<ReadRequest> reads;
    std::vector<WriteRequest> writes;
    int conflictCycles = 0;     //!< banks left with waiting readers
};

Grants
grant(RegFileArbiter &arb)
{
    Grants g;
    g.conflictCycles =
        arb.arbitrate([&](const ReadRequest &r) { g.reads.push_back(r); },
                      [&](const WriteRequest &w) { g.writes.push_back(w); })
            .conflictCycles;
    return g;
}

TEST(RegFileArbiter, BankSwizzle)
{
    RegFileArbiter arb(2);
    EXPECT_EQ(arb.bankOf(0, 0), 0);
    EXPECT_EQ(arb.bankOf(1, 0), 1);
    // Mod 2 the swizzle is the plain parity mapping: slot flips it.
    EXPECT_EQ(arb.bankOf(0, 1), 1);
    EXPECT_EQ(arb.bankOf(7, 3), (7 + 3) % 2);

    RegFileArbiter arb8(8);
    EXPECT_EQ(arb8.bankOf(5, 10), (5 + 7 * 10) % 8);
}

TEST(RegFileArbiter, OneReadPerBankPerCycle)
{
    RegFileArbiter arb(2);
    arb.pushRead(0, ReadRequest{ 0, 1 });
    arb.pushRead(0, ReadRequest{ 1, 1 });
    arb.pushRead(1, ReadRequest{ 2, 1 });

    Grants g = grant(arb);
    EXPECT_EQ(g.reads.size(), 2u);        // one per bank
    EXPECT_EQ(g.conflictCycles, 1);       // bank 0 still has a reader
    EXPECT_EQ(arb.readQueueLen(0), 1);
    EXPECT_EQ(arb.readQueueLen(1), 0);

    g = grant(arb);
    EXPECT_EQ(g.reads.size(), 1u);
    EXPECT_EQ(g.conflictCycles, 0);
    EXPECT_FALSE(arb.anyPending());
}

TEST(RegFileArbiter, ReadsAreFifoPerBank)
{
    RegFileArbiter arb(1);
    arb.pushRead(0, ReadRequest{ 7, 1 });
    arb.pushRead(0, ReadRequest{ 8, 2 });
    Grants g = grant(arb);
    ASSERT_EQ(g.reads.size(), 1u);
    EXPECT_EQ(g.reads[0].cu, 7);
    g = grant(arb);
    ASSERT_EQ(g.reads.size(), 1u);
    EXPECT_EQ(g.reads[0].cu, 8);
}

TEST(RegFileArbiter, WritePortIsIndependent)
{
    RegFileArbiter arb(2);
    arb.pushRead(0, ReadRequest{ 0, 1 });
    arb.pushWrite(0, WriteRequest{ 3, 12 });
    Grants g = grant(arb);
    // Same bank grants both its read and its write this cycle.
    EXPECT_EQ(g.reads.size(), 1u);
    ASSERT_EQ(g.writes.size(), 1u);
    EXPECT_EQ(g.writes[0].warp, 3);
    EXPECT_EQ(g.writes[0].reg, 12);
    EXPECT_EQ(g.conflictCycles, 0);
}

TEST(RegFileArbiter, WritesQueuePerBank)
{
    RegFileArbiter arb(1);
    arb.pushWrite(0, WriteRequest{ 1, 1 });
    arb.pushWrite(0, WriteRequest{ 2, 2 });
    Grants g = grant(arb);
    ASSERT_EQ(g.writes.size(), 1u);
    EXPECT_EQ(g.writes[0].warp, 1);
    EXPECT_TRUE(arb.anyPending());
    g = grant(arb);
    ASSERT_EQ(g.writes.size(), 1u);
    EXPECT_EQ(g.writes[0].warp, 2);
}

TEST(RegFileArbiter, ReadIdleTracksQueues)
{
    RegFileArbiter arb(2);
    EXPECT_TRUE(arb.readIdle(0));
    arb.pushRead(0, ReadRequest{ 0, 1 });
    EXPECT_FALSE(arb.readIdle(0));
    EXPECT_TRUE(arb.readIdle(1));
}

TEST(RegFileArbiter, ResetDrainsEverything)
{
    RegFileArbiter arb(2);
    arb.pushRead(0, ReadRequest{ 0, 1 });
    arb.pushWrite(1, WriteRequest{ 0, 3 });
    arb.reset();
    EXPECT_FALSE(arb.anyPending());
    EXPECT_EQ(arb.readQueueLen(0), 0);
}

/** Sweep bank counts: each bank grants at most one read per cycle. */
class ArbiterSweep : public ::testing::TestWithParam<int> {};

TEST_P(ArbiterSweep, GrantInvariant)
{
    int banks = GetParam();
    RegFileArbiter arb(banks);
    // Two requests on every bank.
    for (int b = 0; b < banks; ++b) {
        arb.pushRead(b, ReadRequest{ b, 1 });
        arb.pushRead(b, ReadRequest{ b + 100, 1 });
    }
    Grants g = grant(arb);
    EXPECT_EQ(static_cast<int>(g.reads.size()), banks);
    EXPECT_EQ(g.conflictCycles, banks);
    g = grant(arb);
    EXPECT_EQ(static_cast<int>(g.reads.size()), banks);
    EXPECT_EQ(g.conflictCycles, 0);
    EXPECT_FALSE(arb.anyPending());
}

INSTANTIATE_TEST_SUITE_P(Banks, ArbiterSweep,
                         ::testing::Values(1, 2, 4, 8));

TEST(RegFileArbiter, PowerOfTwoMaskAgreesWithModulo)
{
    // The masked and the divided forms of the swizzle are one mapping.
    for (int banks : { 1, 2, 3, 4, 6, 8, 16 })
        for (RegIndex reg = 0; reg < 64; ++reg)
            for (WarpSlot w = 0; w < 64; ++w)
                ASSERT_EQ(swizzleBank(reg, w, banks),
                          static_cast<int>((static_cast<unsigned>(reg)
                                            + 7u * static_cast<unsigned>(w))
                                           % static_cast<unsigned>(banks)))
                    << banks << " banks, r" << reg << " slot " << w;
}

// ---- FIFO ring -------------------------------------------------------------

std::vector<int>
contents(const FifoRing<int> &q)
{
    std::vector<int> out;
    for (std::size_t i = 0; i < q.size(); ++i)
        out.push_back(q[i]);
    return out;
}

TEST(FifoRing, WrapsAroundInPlace)
{
    FifoRing<int> q;
    for (int i = 0; i < 4; ++i)
        q.push_back(i);   // fills the first ring of four
    q.pop_front();
    q.pop_front();
    q.push_back(4);
    q.push_back(5);       // wraps to the front slots, no growth
    EXPECT_EQ(contents(q), (std::vector<int>{ 2, 3, 4, 5 }));
    for (int expect = 2; expect <= 5; ++expect) {
        ASSERT_FALSE(q.empty());
        EXPECT_EQ(q.front(), expect);
        q.pop_front();
    }
    EXPECT_TRUE(q.empty());
}

TEST(FifoRing, GrowthWhileWrappedKeepsFifoOrder)
{
    FifoRing<int> q;
    for (int i = 0; i < 4; ++i)
        q.push_back(i);
    q.pop_front();
    q.pop_front();
    q.pop_front();
    for (int i = 4; i < 7; ++i)
        q.push_back(i);   // wrapped: 3 sits at the back of the buffer
    q.push_back(7);       // full and wrapped: grows to eight
    q.push_back(8);
    EXPECT_EQ(contents(q), (std::vector<int>{ 3, 4, 5, 6, 7, 8 }));
    q.clear();
    EXPECT_TRUE(q.empty());
    q.push_back(9);
    EXPECT_EQ(q.front(), 9);
}

TEST(FifoRing, MatchesDequeUnderRandomTraffic)
{
    Rng rng(11);
    FifoRing<int> q;
    std::deque<int> ref;
    for (int step = 0; step < 20000; ++step) {
        if (ref.empty() || rng.next(3) != 0) {
            q.push_back(step);
            ref.push_back(step);
        } else {
            ASSERT_EQ(q.front(), ref.front());
            q.pop_front();
            ref.pop_front();
        }
        ASSERT_EQ(q.size(), ref.size());
    }
    EXPECT_EQ(contents(q), std::vector<int>(ref.begin(), ref.end()));
}

// ---- fused arbitration -----------------------------------------------------

/** The arbiter as it was with std::deque queues and grant lists: per
 *  bank pop a write and a read, count a conflict when a reader is left
 *  waiting, and apply every read grant before every write grant. */
struct DequeArbiter
{
    explicit DequeArbiter(int banks) : readQ(banks), writeQ(banks) {}

    Grants
    arbitrate()
    {
        Grants out;
        for (std::size_t b = 0; b < readQ.size(); ++b) {
            if (!writeQ[b].empty()) {
                out.writes.push_back(writeQ[b].front());
                writeQ[b].pop_front();
            }
            if (!readQ[b].empty()) {
                out.reads.push_back(readQ[b].front());
                readQ[b].pop_front();
            }
            if (!readQ[b].empty())
                ++out.conflictCycles;
        }
        return out;
    }

    std::vector<std::deque<ReadRequest>> readQ;
    std::vector<std::deque<WriteRequest>> writeQ;
};

/** One applied grant, tagged read (cu, mask) or write (warp, reg). */
std::string
describe(char kind, int a, int b)
{
    return std::string(1, kind) + std::to_string(a) + "/"
        + std::to_string(b);
}

class FusedArbitration : public ::testing::TestWithParam<int> {};

TEST_P(FusedArbitration, AppliesTheOldGrantSequence)
{
    const int banks = GetParam();
    RegFileArbiter arb(banks);
    DequeArbiter ref(banks);
    Rng rng(static_cast<std::uint64_t>(banks) * 977);
    for (int cycle = 0; cycle < 5000; ++cycle) {
        // Bursty traffic so queues build up, wrap and grow.
        int pushes = static_cast<int>(rng.next(cycle % 97 < 60 ? 5 : 1));
        for (int i = 0; i < pushes; ++i) {
            int bank = static_cast<int>(rng.next(
                static_cast<std::uint64_t>(banks)));
            if (rng.next(3) == 0) {
                WriteRequest w{ static_cast<WarpSlot>(rng.next(64)),
                                static_cast<RegIndex>(rng.next(255)) };
                arb.pushWrite(bank, w);
                ref.writeQ[static_cast<std::size_t>(bank)].push_back(w);
            } else {
                ReadRequest r{ static_cast<int>(rng.next(16)),
                               static_cast<std::uint32_t>(1 + rng.next(7)) };
                arb.pushRead(bank, r);
                ref.readQ[static_cast<std::size_t>(bank)].push_back(r);
            }
        }
        Grants old = ref.arbitrate();
        std::vector<std::string> expect, got;
        for (const ReadRequest &g : old.reads)
            expect.push_back(describe('r', g.cu, static_cast<int>(
                                                     g.operandMask)));
        for (const WriteRequest &g : old.writes)
            expect.push_back(describe('w', g.warp, g.reg));
        ArbTally t = arb.arbitrate(
            [&](const ReadRequest &g) {
                got.push_back(describe('r', g.cu,
                                       static_cast<int>(g.operandMask)));
            },
            [&](const WriteRequest &g) {
                got.push_back(describe('w', g.warp, g.reg));
            });
        ASSERT_EQ(got, expect) << "cycle " << cycle;
        ASSERT_EQ(t.reads, static_cast<int>(old.reads.size()));
        ASSERT_EQ(t.writes, static_cast<int>(old.writes.size()));
        ASSERT_EQ(t.conflictCycles, old.conflictCycles);
        ASSERT_EQ(arb.pendingOps(), arb.queuedOps());
    }
}

INSTANTIATE_TEST_SUITE_P(Banks, FusedArbitration,
                         ::testing::Values(1, 2, 3, 4, 8));

TEST(RegFileArbiter, SnapshotListsQueuesInFifoOrderAndRoundTrips)
{
    // Wrap bank 0's ring before saving: the snapshot must list the
    // queue oldest first, exactly as iterating a deque did.
    RegFileArbiter arb(2);
    for (int cu = 0; cu < 4; ++cu)
        arb.pushRead(0, ReadRequest{ cu, 1 });
    grant(arb);
    grant(arb);
    arb.pushRead(0, ReadRequest{ 4, 2 });
    arb.pushRead(0, ReadRequest{ 5, 4 });
    arb.pushWrite(1, WriteRequest{ 9, 17 });
    StateWriter w;
    RegFileArbiter::visitState(std::as_const(arb), w, 8, 64);
    EXPECT_EQ(w.payload(),
              "rf.readq 4\n"
              "rf.read.cu 2\nrf.read.mask 1\n"
              "rf.read.cu 3\nrf.read.mask 1\n"
              "rf.read.cu 4\nrf.read.mask 2\n"
              "rf.read.cu 5\nrf.read.mask 4\n"
              "rf.readq 0\n"
              "rf.writeq 0\n"
              "rf.writeq 1\n"
              "rf.write.warp 9\nrf.write.reg 17\n"
              "rf.pendingOps 5\n");

    RegFileArbiter back(2);
    StateReader r(w.payload());
    RegFileArbiter::visitState(back, r, 8, 64);
    StateWriter again;
    RegFileArbiter::visitState(std::as_const(back), again, 8, 64);
    EXPECT_EQ(again.payload(), w.payload());
    std::vector<int> order;
    while (back.anyPending())
        for (const ReadRequest &req : grant(back).reads)
            order.push_back(req.cu);
    EXPECT_EQ(order, (std::vector<int>{ 2, 3, 4, 5 }));
}

} // namespace
} // namespace scsim
