/** @file Tests for collector units and the operand collector. */

#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/state_io.hh"
#include "core/operand_collector.hh"

namespace scsim {
namespace {

class CollectorTest : public ::testing::Test
{
  protected:
    CollectorTest() : arb_(2), oc_(2) {}

    /** One arbitration cycle's read grants. */
    std::vector<ReadRequest>
    grantReads()
    {
        std::vector<ReadRequest> reads;
        arb_.arbitrate(
            [&](const ReadRequest &r) { reads.push_back(r); },
            [](const WriteRequest &) {});
        return reads;
    }

    RegFileArbiter arb_;
    OperandCollector oc_;
};

TEST_F(CollectorTest, AllocateEnqueuesDistinctReads)
{
    Instruction fma = Instruction::alu(Opcode::FMA, 0, 0, 1, 2);
    int cu = oc_.allocate(/*warp=*/0, fma, arb_, 5);
    ASSERT_GE(cu, 0);
    EXPECT_EQ(oc_.freeCount(), 1);
    EXPECT_FALSE(oc_.unit(cu).ready());
    // r0 and r2 -> bank 0, r1 -> bank 1 for slot 0.
    EXPECT_EQ(arb_.readQueueLen(0), 2);
    EXPECT_EQ(arb_.readQueueLen(1), 1);
}

TEST_F(CollectorTest, DuplicateRegistersShareOneRead)
{
    Instruction sq = Instruction::alu(Opcode::FMUL, 1, 3, 3);
    int cu = oc_.allocate(0, sq, arb_, 0);
    ASSERT_GE(cu, 0);
    EXPECT_EQ(arb_.readQueueLen(0) + arb_.readQueueLen(1), 1);

    std::vector<ReadRequest> reads = grantReads();
    ASSERT_EQ(reads.size(), 1u);
    // The single grant fills both operand slots.
    EXPECT_EQ(reads[0].operandMask, 0b011u);
    oc_.operandArrived(cu, reads[0].operandMask);
    EXPECT_TRUE(oc_.unit(cu).ready());
}

TEST_F(CollectorTest, ReadyAfterAllOperandsArrive)
{
    Instruction fma = Instruction::alu(Opcode::FMA, 0, 0, 1, 2);
    int cu = oc_.allocate(0, fma, arb_, 0);
    // Two arbitration rounds drain the conflicting bank.
    for (const auto &r : grantReads())
        oc_.operandArrived(r.cu, r.operandMask);
    EXPECT_FALSE(oc_.unit(cu).ready());
    for (const auto &r : grantReads())
        oc_.operandArrived(r.cu, r.operandMask);
    EXPECT_TRUE(oc_.unit(cu).ready());
}

TEST_F(CollectorTest, ZeroSourceInstructionIsImmediatelyReady)
{
    Instruction mov = Instruction::alu(Opcode::MOV, 4);
    int cu = oc_.allocate(0, mov, arb_, 0);
    ASSERT_GE(cu, 0);
    EXPECT_TRUE(oc_.unit(cu).ready());
    EXPECT_FALSE(arb_.anyPending());
}

TEST_F(CollectorTest, AllocateFailsWhenFull)
{
    Instruction i = Instruction::alu(Opcode::IADD, 0, 1);
    EXPECT_GE(oc_.allocate(0, i, arb_, 0), 0);
    EXPECT_GE(oc_.allocate(1, i, arb_, 0), 0);
    EXPECT_FALSE(oc_.hasFree());
    EXPECT_EQ(oc_.allocate(2, i, arb_, 0), -1);
}

TEST_F(CollectorTest, ReleaseRecycles)
{
    Instruction i = Instruction::alu(Opcode::MOV, 4);
    int cu = oc_.allocate(0, i, arb_, 0);
    oc_.release(cu);
    EXPECT_EQ(oc_.freeCount(), 2);
    EXPECT_GE(oc_.allocate(1, i, arb_, 0), 0);
}

TEST_F(CollectorTest, BanksIdleQuery)
{
    Instruction i = Instruction::alu(Opcode::FADD, 0, 1, 2);
    EXPECT_TRUE(oc_.banksIdle(0, i, arb_));
    oc_.allocate(0, i, arb_, 0);   // reads now queued
    EXPECT_FALSE(oc_.banksIdle(0, i, arb_));
}

TEST_F(CollectorTest, SlotChangesBankMapping)
{
    // Same instruction on an odd slot flips the banks.
    Instruction i = Instruction::alu(Opcode::FADD, 0, 2, 4);
    oc_.allocate(/*warp=*/1, i, arb_, 0);
    EXPECT_EQ(arb_.readQueueLen(1), 2);   // (2+1)%2 = (4+1)%2 = 1
    EXPECT_EQ(arb_.readQueueLen(0), 0);
}

TEST_F(CollectorTest, ResetFreesEverything)
{
    Instruction i = Instruction::alu(Opcode::IADD, 0, 1);
    oc_.allocate(0, i, arb_, 0);
    oc_.reset();
    EXPECT_EQ(oc_.freeCount(), 2);
    EXPECT_FALSE(oc_.unit(0).busy);
}

TEST_F(CollectorTest, DeathOnBadRelease)
{
    EXPECT_DEATH(oc_.release(0), "free CU");
}

TEST_F(CollectorTest, DeathOnDuplicateOperandArrival)
{
    Instruction i = Instruction::alu(Opcode::IADD, 0, 1);
    int cu = oc_.allocate(0, i, arb_, 0);
    oc_.operandArrived(cu, 1u);
    EXPECT_DEATH(oc_.operandArrived(cu, 1u), "twice");
}

TEST_F(CollectorTest, ReadyMaskTracksAllocationArrivalAndRelease)
{
    EXPECT_EQ(oc_.readyMask(), 0u);
    Instruction fadd = Instruction::alu(Opcode::FADD, 0, 0, 1);
    int cu = oc_.allocate(0, fadd, arb_, 0);
    ASSERT_EQ(cu, 0);
    EXPECT_EQ(oc_.readyMask(), 0u);        // two reads outstanding
    oc_.operandArrived(cu, 0b01);
    EXPECT_EQ(oc_.readyMask(), 0u);        // one still outstanding
    oc_.operandArrived(cu, 0b10);
    EXPECT_EQ(oc_.readyMask(), 0b01u);
    // No source registers: ready from the moment it is allocated.
    int mov = oc_.allocate(1, Instruction::alu(Opcode::MOV, 4), arb_, 0);
    ASSERT_EQ(mov, 1);
    EXPECT_EQ(oc_.readyMask(), 0b11u);
    oc_.release(cu);
    EXPECT_EQ(oc_.readyMask(), 0b10u);
    oc_.release(mov);
    EXPECT_EQ(oc_.readyMask(), 0u);
    oc_.allocate(2, Instruction::alu(Opcode::MOV, 4), arb_, 0);
    oc_.reset();
    EXPECT_EQ(oc_.readyMask(), 0u);
}

TEST_F(CollectorTest, ReadyMaskIsRebuiltOnLoad)
{
    // CU 0 waits on a read, CU 1 is ready to dispatch.
    oc_.allocate(0, Instruction::alu(Opcode::FADD, 0, 0, 1), arb_, 0);
    oc_.allocate(1, Instruction::alu(Opcode::MOV, 4), arb_, 0);
    StateWriter w;
    OperandCollector::visitState(std::as_const(oc_), w, 64);

    OperandCollector back(2);
    StateReader r(w.payload());
    OperandCollector::visitState(back, r, 64);
    EXPECT_EQ(back.readyMask(), 0b10u);
    EXPECT_EQ(back.freeCount(), 0);

    oc_.release(1);
    StateWriter w2;
    OperandCollector::visitState(std::as_const(oc_), w2, 64);
    StateReader r2(w2.payload());
    // Over a collector that had state.
    OperandCollector::visitState(back, r2, 64);
    EXPECT_EQ(back.readyMask(), 0u);
    EXPECT_EQ(back.freeCount(), 1);
}

} // namespace
} // namespace scsim
