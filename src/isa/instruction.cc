#include "isa/instruction.hh"

#include "common/logging.hh"
#include "common/state_io.hh"

namespace scsim {

const char *
toString(Opcode op)
{
    switch (op) {
      case Opcode::FMA:    return "FMA";
      case Opcode::FADD:   return "FADD";
      case Opcode::FMUL:   return "FMUL";
      case Opcode::IADD:   return "IADD";
      case Opcode::IMAD:   return "IMAD";
      case Opcode::MOV:    return "MOV";
      case Opcode::SFU:    return "SFU";
      case Opcode::TENSOR: return "TENSOR";
      case Opcode::LDG:    return "LDG";
      case Opcode::STG:    return "STG";
      case Opcode::LDS:    return "LDS";
      case Opcode::STS:    return "STS";
      case Opcode::BAR:    return "BAR";
      case Opcode::EXIT:   return "EXIT";
      case Opcode::NumOpcodes: break;
    }
    return "?";
}

const char *
toString(UnitKind k)
{
    switch (k) {
      case UnitKind::SP:     return "SP";
      case UnitKind::SFU:    return "SFU";
      case UnitKind::Tensor: return "Tensor";
      case UnitKind::LdSt:   return "LdSt";
      case UnitKind::None:   return "None";
    }
    return "?";
}

Opcode
opcodeFromString(const std::string &s)
{
    for (int i = 0; i < static_cast<int>(Opcode::NumOpcodes); ++i) {
        auto op = static_cast<Opcode>(i);
        if (s == toString(op))
            return op;
    }
    scsim_fatal("unknown opcode mnemonic '%s'", s.c_str());
}

UnitKind
unitOf(Opcode op)
{
    switch (op) {
      case Opcode::FMA:
      case Opcode::FADD:
      case Opcode::FMUL:
      case Opcode::IADD:
      case Opcode::IMAD:
      case Opcode::MOV:
        return UnitKind::SP;
      case Opcode::SFU:
        return UnitKind::SFU;
      case Opcode::TENSOR:
        return UnitKind::Tensor;
      case Opcode::LDG:
      case Opcode::STG:
      case Opcode::LDS:
      case Opcode::STS:
        return UnitKind::LdSt;
      case Opcode::BAR:
      case Opcode::EXIT:
      case Opcode::NumOpcodes:
        return UnitKind::None;
    }
    return UnitKind::None;
}

bool
isMemory(Opcode op)
{
    return op == Opcode::LDG || op == Opcode::STG || op == Opcode::LDS
        || op == Opcode::STS;
}

bool
isLoad(Opcode op)
{
    return op == Opcode::LDG || op == Opcode::LDS;
}

int
Instruction::numSrcs() const
{
    int n = 0;
    for (RegIndex r : srcs)
        if (r != kNoReg)
            ++n;
    return n;
}

template <class Self, class V>
void
visitInstructionState(Self &inst, V &v)
{
    const FieldRange reg = inRange(kNoReg, kMaxRegs - 1, "register");
    v.field("inst.op", inst.op, below(Opcode::NumOpcodes));
    v.field("inst.dst", inst.dst, reg);
    for (auto &src : inst.srcs)
        v.field("inst.src", src, reg);
    v.field("inst.mem.space", inst.mem.space,
            inRange(0, static_cast<std::int64_t>(MemSpace::Shared)));
    v.field("inst.mem.region", inst.mem.region);
    v.field("inst.mem.sectors", inst.mem.sectors);
    v.field("inst.mem.stride", inst.mem.strideBytes);
    v.field("inst.mem.step", inst.mem.stepBytes);
    // Addresses are taken modulo the footprint (genAddress).
    v.field("inst.mem.footprint", inst.mem.footprintBytes,
            inRange(1, std::numeric_limits<std::int64_t>::max(),
                    "footprint"));
    v.field("inst.mem.random", inst.mem.randomAccess);
}

template void visitInstructionState(const Instruction &, StateWriter &);
template void visitInstructionState(Instruction &, StateReader &);

} // namespace scsim
