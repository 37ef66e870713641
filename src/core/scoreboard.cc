#include "core/scoreboard.hh"

#include "common/logging.hh"
#include "common/state_io.hh"

namespace scsim {

void
Scoreboard::markIssue(const Instruction &inst)
{
    if (inst.dst == kNoReg)
        return;
    auto idx = static_cast<std::size_t>(inst.dst);
    scsim_assert(!pending_[idx], "WAW hazard slipped past ready()");
    pending_.set(idx);
    ++count_;
}

void
Scoreboard::completeWrite(RegIndex reg)
{
    scsim_assert(reg != kNoReg, "completing write to no register");
    auto idx = static_cast<std::size_t>(reg);
    scsim_assert(pending_[idx], "completing a write that never issued");
    pending_.reset(idx);
    --count_;
}

bool
Scoreboard::pending(RegIndex reg) const
{
    return reg != kNoReg && pending_[static_cast<std::size_t>(reg)];
}

void
Scoreboard::reset()
{
    pending_.reset();
    count_ = 0;
}

template <class Self, class V>
void
Scoreboard::visitState(Self &self, V &v)
{
    for (std::size_t word = 0; word < kMaxRegs / 64; ++word) {
        std::uint64_t bits = 0;
        for (std::size_t b = 0; b < 64; ++b)
            bits |= std::uint64_t{ self.pending_.test(word * 64 + b) } << b;
        v.field("sb.word", bits);
        if constexpr (V::kReads)
            for (std::size_t b = 0; b < 64; ++b)
                self.pending_.set(word * 64 + b, (bits >> b) & 1);
    }
    if constexpr (V::kReads)
        self.count_ = static_cast<int>(self.pending_.count());
}

template void Scoreboard::visitState(const Scoreboard &, StateWriter &);
template void Scoreboard::visitState(Scoreboard &, StateReader &);

} // namespace scsim
