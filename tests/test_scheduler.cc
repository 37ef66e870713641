/** @file Tests for the warp issue schedulers (LRR, GTO, RBA). */

#include <algorithm>
#include <array>
#include <numeric>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "core/scheduler.hh"

namespace scsim {
namespace {

/** Small harness: a warp table where slot i has ageRank and next inst. */
class SchedulerTest : public ::testing::Test
{
  protected:
    SchedulerTest()
    {
        warps_.resize(8);
        for (int i = 0; i < 8; ++i) {
            WarpContext &w = warps_[static_cast<std::size_t>(i)];
            w.slot = i;
            w.active = true;
            w.ageRank = static_cast<std::uint32_t>(i);
        }
        qlen_ = { 0, 0 };
        ctx_.warps = warps_.data();
        ctx_.bankQueueLen = qlen_.data();
        ctx_.numBanks = 2;
    }

    void
    setInst(int slot, const Instruction &inst)
    {
        progs_[static_cast<std::size_t>(slot)].code = { inst,
            Instruction::exit() };
        warps_[static_cast<std::size_t>(slot)].prog =
            &progs_[static_cast<std::size_t>(slot)];
        warps_[static_cast<std::size_t>(slot)].pc = 0;
    }

    std::vector<WarpContext> warps_;
    std::array<WarpProgram, 8> progs_;
    std::vector<int> qlen_;
    PickContext ctx_;
};

TEST_F(SchedulerTest, GtoPicksOldestFirst)
{
    GtoScheduler gto;
    EXPECT_EQ(gto.pick({ 3, 1, 5 }, ctx_), 1);
}

TEST_F(SchedulerTest, GtoStaysGreedy)
{
    GtoScheduler gto;
    gto.notifyIssued(5, 0);
    EXPECT_EQ(gto.pick({ 3, 1, 5 }, ctx_), 5);
    // Greedy warp not ready -> falls back to oldest.
    EXPECT_EQ(gto.pick({ 3, 2 }, ctx_), 2);
}

TEST_F(SchedulerTest, GtoAgeRankBeatsSlotNumber)
{
    // Slot 7 is older (smaller ageRank) than slot 0.
    warps_[7].ageRank = 0;
    warps_[0].ageRank = 9;
    GtoScheduler gto;
    EXPECT_EQ(gto.pick({ 0, 7 }, ctx_), 7);
}

TEST_F(SchedulerTest, LrrRotates)
{
    LrrScheduler lrr;
    EXPECT_EQ(lrr.pick({ 1, 3, 5 }, ctx_), 1);
    lrr.notifyIssued(1, 0);
    EXPECT_EQ(lrr.pick({ 1, 3, 5 }, ctx_), 3);
    lrr.notifyIssued(3, 0);
    EXPECT_EQ(lrr.pick({ 1, 3, 5 }, ctx_), 5);
    lrr.notifyIssued(5, 0);
    // Wraps back to the lowest slot.
    EXPECT_EQ(lrr.pick({ 1, 3, 5 }, ctx_), 1);
}

TEST_F(SchedulerTest, RbaScoreSumsQueueLengths)
{
    // slot 0: regs 0,1,2 -> banks 0,1,0.
    Instruction fma = Instruction::alu(Opcode::FMA, 0, 0, 1, 2);
    int q[2] = { 3, 1 };
    EXPECT_EQ(rbaScore(fma, 0, q, 2), 3 + 1 + 3);
    // Same instruction from an odd slot flips the banks.
    EXPECT_EQ(rbaScore(fma, 1, q, 2), 1 + 3 + 1);
}

TEST_F(SchedulerTest, RbaScoreClampsToFiveBits)
{
    Instruction fma = Instruction::alu(Opcode::FMA, 0, 0, 2, 4);
    int q[2] = { 30, 0 };
    EXPECT_EQ(rbaScore(fma, 0, q, 2), 31);
}

TEST_F(SchedulerTest, RbaPrefersIdleBanks)
{
    // Warp 0's operands hit bank 0 (busy); warp 1's hit bank 1 (idle).
    setInst(0, Instruction::alu(Opcode::FMUL, 0, 0, 2));
    setInst(1, Instruction::alu(Opcode::FMUL, 1, 1, 3));
    qlen_ = { 4, 0 };
    RbaScheduler rba;
    // Warp 0 reads banks (0+0)=0,(2+0)=0 -> score 8; warp 1 reads
    // (1+1)=0? no: (1+1)%2=0,(3+1)%2=0 -> also bank 0.  Use slot 2:
    setInst(2, Instruction::alu(Opcode::FMUL, 1, 1, 3));
    // slot 2: (1+2)%2=1,(3+2)%2=1 -> bank 1, score 0.
    EXPECT_EQ(rba.pick({ 0, 2 }, ctx_), 2);
}

TEST_F(SchedulerTest, RbaTieBreaksByAge)
{
    setInst(3, Instruction::alu(Opcode::IADD, 0, 2));
    setInst(5, Instruction::alu(Opcode::IADD, 0, 2));
    qlen_ = { 0, 0 };
    warps_[3].ageRank = 9;
    warps_[5].ageRank = 2;   // older despite higher slot
    RbaScheduler rba;
    EXPECT_EQ(rba.pick({ 3, 5 }, ctx_), 5);
}

TEST_F(SchedulerTest, RbaEqualsOldestWhenScoresEqual)
{
    for (int s : { 0, 1, 2 })
        setInst(s, Instruction::alu(Opcode::IADD, 0, 2));
    qlen_ = { 2, 2 };   // uniform -> every score identical
    RbaScheduler rba;
    GtoScheduler gto;
    EXPECT_EQ(rba.pick({ 2, 0, 1 }, ctx_), gto.pick({ 2, 0, 1 }, ctx_));
}

TEST_F(SchedulerTest, FactoryProducesConfiguredPolicy)
{
    EXPECT_NE(dynamic_cast<LrrScheduler *>(
                  makeScheduler(SchedulerPolicy::LRR).get()),
              nullptr);
    EXPECT_NE(dynamic_cast<GtoScheduler *>(
                  makeScheduler(SchedulerPolicy::GTO).get()),
              nullptr);
    EXPECT_NE(dynamic_cast<RbaScheduler *>(
                  makeScheduler(SchedulerPolicy::RBA).get()),
              nullptr);
}

TEST(SchedulerPick, MaskPickEqualsListPickForGtoAndRba)
{
    // One scheduler table of up to 64 warps: unique ages (a random
    // permutation), random instructions and bank queues, and a random
    // candidate subset presented as a shuffled list.  The mask pick
    // must choose the warp the list pick chooses, whatever the order.
    Rng rng(2024);
    std::vector<WarpContext> warps(64);
    std::vector<WarpProgram> progs(64);
    std::vector<std::uint32_t> ages(64);
    std::iota(ages.begin(), ages.end(), 0u);
    for (int trial = 0; trial < 4000; ++trial) {
        std::shuffle(ages.begin(), ages.end(), rng);
        const int banks = 1 + static_cast<int>(rng.next(4));
        std::array<int, 4> qlen{};
        for (int &q : qlen)
            q = static_cast<int>(rng.next(trial % 2 ? 12 : 3));
        for (std::size_t i = 0; i < warps.size(); ++i) {
            auto reg = [&] {
                return static_cast<RegIndex>(rng.next(5) == 0
                                                 ? kNoReg
                                                 : rng.next(32));
            };
            progs[i].code = { Instruction::alu(Opcode::FMA, 0, reg(), reg(),
                                               reg()) };
            warps[i].slot = static_cast<WarpSlot>(i);
            warps[i].prog = &progs[i];
            warps[i].ageRank = ages[i];
        }
        PickContext ctx;
        ctx.warps = warps.data();
        ctx.bankQueueLen = qlen.data();
        ctx.numBanks = banks;

        std::uint64_t cand = rng() & rng();   // about a quarter set
        if ((cand & (cand - 1)) == 0)
            cand |= 0b11;                    // the cluster needs two+
        std::vector<WarpSlot> list;
        for (WarpSlot s = 0; s < 64; ++s)
            if (cand & slotBit(s))
                list.push_back(s);
        std::shuffle(list.begin(), list.end(), rng);

        GtoScheduler gto;
        ASSERT_TRUE(gto.picksFromMask());
        if (rng.next(2))
            gto.notifyIssued(static_cast<WarpSlot>(rng.next(64)), 0);
        ASSERT_EQ(gto.pickMask(cand, ctx), gto.pick(list, ctx))
            << "trial " << trial;
        RbaScheduler rba;
        ASSERT_TRUE(rba.picksFromMask());
        ASSERT_EQ(rba.pickMask(cand, ctx), rba.pick(list, ctx))
            << "trial " << trial;
    }
}

TEST(SchedulerPick, OnlyRbaReadsBankQueuesAndLrrPicksFromLists)
{
    EXPECT_FALSE(makeScheduler(SchedulerPolicy::LRR)->readsBankQueues());
    EXPECT_FALSE(makeScheduler(SchedulerPolicy::GTO)->readsBankQueues());
    EXPECT_TRUE(makeScheduler(SchedulerPolicy::RBA)->readsBankQueues());
    EXPECT_FALSE(makeScheduler(SchedulerPolicy::LRR)->picksFromMask());
}

} // namespace
} // namespace scsim
