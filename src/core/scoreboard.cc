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

void
Scoreboard::saveState(StateWriter &w) const
{
    for (int word = 0; word < kMaxRegs / 64; ++word) {
        std::uint64_t bits = 0;
        for (int b = 0; b < 64; ++b)
            if (pending_[static_cast<std::size_t>(word * 64 + b)])
                bits |= std::uint64_t(1) << b;
        w.u64("sb.word", bits);
    }
}

void
Scoreboard::loadState(StateReader &r)
{
    pending_.reset();
    count_ = 0;
    for (int word = 0; word < kMaxRegs / 64; ++word) {
        std::uint64_t bits = r.u64("sb.word");
        for (int b = 0; b < 64; ++b) {
            if (bits & (std::uint64_t(1) << b)) {
                pending_.set(static_cast<std::size_t>(word * 64 + b));
                ++count_;
            }
        }
    }
}

} // namespace scsim
