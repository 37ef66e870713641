#include "mem/mem_system.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/state_io.hh"

namespace scsim {

Addr
genAddress(const MemInfo &mem, std::uint64_t gwid, std::uint64_t iter,
           std::uint64_t seed)
{
    Addr offset;
    if (mem.randomAccess) {
        std::uint64_t h = seed ^ (gwid * 0x9e3779b97f4a7c15ULL)
            ^ (iter * 0xbf58476d1ce4e5b9ULL)
            ^ (static_cast<std::uint64_t>(mem.region) << 56);
        std::uint64_t s = h;
        offset = splitmix64(s) % mem.footprintBytes;
        offset &= ~Addr(31);   // sector aligned
    } else {
        offset = (gwid * mem.strideBytes + iter * mem.stepBytes)
            % mem.footprintBytes;
    }
    return (static_cast<Addr>(mem.region) << 40) | offset;
}

MemSystem::MemSystem(const GpuConfig &cfg)
    : cfg_(cfg),
      l2_(cfg.l2Bytes, cfg.l1LineBytes, cfg.l2Ways),
      seed_(cfg.seed * 0x2545f4914f6cdd1dULL + 0x9e3779b97f4a7c15ULL)
{
    l1s_.reserve(static_cast<std::size_t>(cfg.numSms));
    for (int i = 0; i < cfg.numSms; ++i)
        l1s_.emplace_back(cfg.l1Bytes, cfg.l1LineBytes, cfg.l1Ways);

    double sms = static_cast<double>(cfg.numSms);
    l2SectorTime_ = 1.0 / (cfg.l2SectorsPerCyclePerSm * sms);
    dramSectorTime_ = 1.0 / (cfg.dramSectorsPerCyclePerSm * sms);
}

Cycle
MemSystem::access(int smId, const MemInfo &mem, std::uint64_t gwid,
                  std::uint64_t iter, Cycle now)
{
    if (mem.space == MemSpace::Shared) {
        // Local scratchpad: latency plus bank-conflict serialization.
        int conflicts = std::max<int>(1, mem.sectors);
        return now + static_cast<Cycle>(cfg_.smemLatency)
            + static_cast<Cycle>(conflicts - 1);
    }

    Cache &l1 = l1s_[static_cast<std::size_t>(smId)];
    Addr base = genAddress(mem, gwid, iter, seed_);
    int sectors = std::max<int>(1, mem.sectors);
    double worst = static_cast<double>(cfg_.l1HitLatency);
    double nowD = static_cast<double>(now);

    for (int s = 0; s < sectors; ++s) {
        Addr addr;
        if (mem.randomAccess && sectors > 1) {
            // Scattered lanes: each sector lands on its own line.
            MemInfo scat = mem;
            addr = genAddress(scat, gwid * 131 + static_cast<Addr>(s),
                              iter, seed_ ^ 0xabcdefULL);
        } else {
            addr = base + static_cast<Addr>(s) * 32;
        }
        ++l1Accesses_;
        if (l1.access(addr))
            continue;
        ++l1Misses_;

        // L2 bandwidth slot.
        double t2 = std::max(l2Free_, nowD);
        l2Free_ = t2 + l2SectorTime_;
        double lat;
        if (l2_.access(addr)) {
            lat = (t2 - nowD) + static_cast<double>(cfg_.l2HitLatency);
        } else {
            double td = std::max(dramFree_, t2);
            dramFree_ = td + dramSectorTime_;
            lat = (td - nowD) + static_cast<double>(cfg_.dramLatency);
        }
        worst = std::max(worst, lat);
    }
    return now + static_cast<Cycle>(worst + 0.999);
}

void
MemSystem::exportStats(SimStats &stats) const
{
    stats.l1Accesses = l1Accesses_;
    stats.l1Misses = l1Misses_;
    stats.l2Accesses = l2_.accesses();
    stats.l2Misses = l2_.misses();
}

void
MemSystem::reset()
{
    for (auto &l1 : l1s_)
        l1.reset();
    l2_.reset();
    l2Free_ = dramFree_ = 0.0;
    l1Accesses_ = l1Misses_ = 0;
}

template <class Self, class V>
void
MemSystem::visitState(Self &self, V &v)
{
    for (auto &l1 : self.l1s_)
        Cache::visitState(l1, v);
    Cache::visitState(self.l2_, v);
    v.field("mem.l2Free", self.l2Free_);
    v.field("mem.dramFree", self.dramFree_);
    v.field("mem.l1Accesses", self.l1Accesses_);
    v.field("mem.l1Misses", self.l1Misses_);
}

template void MemSystem::visitState(const MemSystem &, StateWriter &);
template void MemSystem::visitState(MemSystem &, StateReader &);

} // namespace scsim
