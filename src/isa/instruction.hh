/**
 * @file
 * Warp-level instruction representation.
 *
 * The simulator is trace-driven at warp granularity, mirroring
 * Accel-Sim's SASS mode: each instruction carries its compiler-
 * assigned register operands (so bank mappings are faithful) and, for
 * memory operations, a synthetic address-pattern descriptor that
 * substitutes for recorded addresses.
 */

#ifndef SCSIM_ISA_INSTRUCTION_HH
#define SCSIM_ISA_INSTRUCTION_HH

#include <array>
#include <cstdint>
#include <string>

#include "common/types.hh"

namespace scsim {

/** Opcode classes; enough resolution to steer unit/latency choice. */
enum class Opcode : std::uint8_t
{
    FMA,     //!< fused multiply-add (FP32)
    FADD,    //!< FP32 add
    FMUL,    //!< FP32 multiply
    IADD,    //!< integer ALU
    IMAD,    //!< integer multiply-add
    MOV,     //!< register move
    SFU,     //!< transcendental (rcp/sqrt/sin...)
    TENSOR,  //!< tensor-core MMA
    LDG,     //!< load from global memory
    STG,     //!< store to global memory
    LDS,     //!< load from shared memory
    STS,     //!< store to shared memory
    BAR,     //!< thread-block-wide barrier
    EXIT,    //!< warp termination
    NumOpcodes
};

/** Execution pipe classes. */
enum class UnitKind : std::uint8_t { SP, SFU, Tensor, LdSt, None };

/** Memory space targeted by a memory instruction. */
enum class MemSpace : std::uint8_t { Global, Shared };

const char *toString(Opcode op);
const char *toString(UnitKind k);

/** Parse an opcode mnemonic; fatal on unknown string. */
Opcode opcodeFromString(const std::string &s);

/** Which execution pipe retires this opcode. */
UnitKind unitOf(Opcode op);

/** True for LDG/STG/LDS/STS. */
bool isMemory(Opcode op);

/** True for LDG/LDS (produce a register value from memory). */
bool isLoad(Opcode op);

/**
 * Synthetic memory-access descriptor.
 *
 * Addresses are generated as
 *   region<<40 | (base + gwid*stride + iter*step) % footprint   (strided)
 *   region<<40 | hash(gwid, iter, seed) % footprint             (random)
 * where gwid is the global warp id and iter counts this warp's
 * dynamic accesses.  @c sectors models intra-warp coalescing: the
 * number of 32-byte transactions the access splits into (1 =
 * perfectly coalesced, 32 = fully scattered).
 */
struct MemInfo
{
    MemSpace space = MemSpace::Global;
    std::uint8_t region = 0;
    std::uint8_t sectors = 4;     //!< 128B line = 4 sectors per warp
    std::uint32_t strideBytes = 128;
    std::uint32_t stepBytes = 128;
    std::uint64_t footprintBytes = 1ULL << 24;
    bool randomAccess = false;
};

/**
 * One warp instruction.  Register indices are per-thread architectural
 * registers; kNoReg marks an unused slot.
 */
struct Instruction
{
    Opcode op = Opcode::IADD;
    RegIndex dst = kNoReg;
    std::array<RegIndex, 3> srcs = { kNoReg, kNoReg, kNoReg };
    MemInfo mem;                  //!< valid iff isMemory(op)

    int numSrcs() const;

    /** Does this opcode read operands through a collector unit? */
    bool
    usesCollector() const
    {
        return op != Opcode::BAR && op != Opcode::EXIT;
    }

    // ---- convenience constructors ------------------------------------
    static Instruction
    alu(Opcode op, RegIndex dst, RegIndex a = kNoReg,
        RegIndex b = kNoReg, RegIndex c = kNoReg)
    {
        Instruction i;
        i.op = op;
        i.dst = dst;
        i.srcs = { a, b, c };
        return i;
    }

    static Instruction
    load(Opcode op, RegIndex dst, RegIndex addrReg, MemInfo mem)
    {
        Instruction i;
        i.op = op;
        i.dst = dst;
        i.srcs = { addrReg, kNoReg, kNoReg };
        i.mem = mem;
        return i;
    }

    static Instruction
    store(Opcode op, RegIndex addrReg, RegIndex dataReg, MemInfo mem)
    {
        Instruction i;
        i.op = op;
        i.srcs = { addrReg, dataReg, kNoReg };
        i.mem = mem;
        return i;
    }

    static Instruction
    barrier()
    {
        Instruction i;
        i.op = Opcode::BAR;
        return i;
    }

    static Instruction
    exit()
    {
        Instruction i;
        i.op = Opcode::EXIT;
        return i;
    }
};

/** Checkpointing (common/state_io.hh): every field of @p inst. */
template <class Self, class V> void visitInstructionState(Self &inst, V &v);

} // namespace scsim

#endif // SCSIM_ISA_INSTRUCTION_HH
