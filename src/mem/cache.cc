#include "mem/cache.hh"

#include <bit>

#include "common/logging.hh"
#include "common/state_io.hh"

namespace scsim {

Cache::Cache(std::uint64_t bytes, int lineBytes, int ways)
{
    scsim_assert(lineBytes > 0 && std::has_single_bit(
                     static_cast<unsigned>(lineBytes)),
                 "line size must be a power of two");
    lineShift_ = std::countr_zero(static_cast<unsigned>(lineBytes));
    std::uint64_t numLines = bytes / static_cast<std::uint64_t>(lineBytes);
    scsim_assert(numLines > 0, "cache smaller than one line");
    numWays_ = static_cast<int>(
        std::min<std::uint64_t>(static_cast<std::uint64_t>(ways),
                                numLines));
    numSets_ = static_cast<int>(
        numLines / static_cast<std::uint64_t>(numWays_));
    if (numSets_ == 0)
        numSets_ = 1;
    lines_.resize(static_cast<std::size_t>(numSets_)
                  * static_cast<std::size_t>(numWays_));
}

bool
Cache::access(Addr addr)
{
    ++accesses_;
    ++tick_;
    Addr lineAddr = addr >> lineShift_;
    std::size_t set = static_cast<std::size_t>(
        lineAddr % static_cast<Addr>(numSets_));
    Line *base = &lines_[set * static_cast<std::size_t>(numWays_)];

    Line *victim = base;
    for (int w = 0; w < numWays_; ++w) {
        Line &line = base[w];
        if (line.valid && line.tag == lineAddr) {
            line.lastUse = tick_;
            return true;
        }
        if (!line.valid) {
            victim = &line;
        } else if (victim->valid && line.lastUse < victim->lastUse) {
            victim = &line;
        }
    }
    ++misses_;
    victim->valid = true;
    victim->tag = lineAddr;
    victim->lastUse = tick_;
    return false;
}

bool
Cache::contains(Addr addr) const
{
    Addr lineAddr = addr >> lineShift_;
    std::size_t set = static_cast<std::size_t>(
        lineAddr % static_cast<Addr>(numSets_));
    const Line *base = &lines_[set * static_cast<std::size_t>(numWays_)];
    for (int w = 0; w < numWays_; ++w)
        if (base[w].valid && base[w].tag == lineAddr)
            return true;
    return false;
}

void
Cache::reset()
{
    for (auto &line : lines_)
        line = Line{};
    tick_ = accesses_ = misses_ = 0;
}

template <class Self, class V>
void
Cache::visitState(Self &self, V &v)
{
    v.field("cache.tick", self.tick_);
    v.field("cache.accesses", self.accesses_);
    v.field("cache.misses", self.misses_);
    for (auto &line : self.lines_) {
        v.field("line.valid", line.valid);
        v.field("line.tag", line.tag);
        v.field("line.lastUse", line.lastUse);
    }
}

template void Cache::visitState(const Cache &, StateWriter &);
template void Cache::visitState(Cache &, StateReader &);

} // namespace scsim
