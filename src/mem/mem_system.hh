/**
 * @file
 * GPU memory hierarchy: per-SM sector L1s, shared L2, DRAM.
 *
 * Latency + bandwidth model: every global access is split into 32-byte
 * sectors; each sector probes the issuing SM's L1, on miss consumes an
 * L2 bandwidth slot (and on L2 miss a DRAM slot), accumulating queuing
 * delay behind earlier traffic.  The access completes when its slowest
 * sector returns.  Shared-memory accesses are serviced locally with a
 * fixed latency plus bank-conflict serialization.
 *
 * Bandwidth is expressed per SM so scaled-down simulations (fewer SMs
 * than the 80 of the real V100) retain a representative
 * compute-to-bandwidth ratio.
 */

#ifndef SCSIM_MEM_MEM_SYSTEM_HH
#define SCSIM_MEM_MEM_SYSTEM_HH

#include <cstdint>
#include <vector>

#include "config/gpu_config.hh"
#include "isa/instruction.hh"
#include "mem/cache.hh"
#include "stats/stats.hh"

namespace scsim {

/** Deterministic synthetic address for a memory instruction. */
Addr genAddress(const MemInfo &mem, std::uint64_t gwid,
                std::uint64_t iter, std::uint64_t seed);

class MemSystem
{
  public:
    explicit MemSystem(const GpuConfig &cfg);

    /**
     * Issue one warp-level access.
     * @param smId  issuing SM (selects the L1)
     * @param mem   access descriptor
     * @param gwid  global warp id (address generation)
     * @param iter  the warp's dynamic memory-access counter
     * @param now   issue cycle
     * @return cycle at which the access (all sectors) completes
     */
    Cycle access(int smId, const MemInfo &mem, std::uint64_t gwid,
                 std::uint64_t iter, Cycle now);

    /** Fold cache counters into @p stats. */
    void exportStats(SimStats &stats) const;

    void reset();

    /** Checkpointing (common/state_io.hh): caches, bandwidth clocks,
     *  L1 counters. */
    template <class Self, class V> static void visitState(Self &self, V &v);

  private:
    const GpuConfig &cfg_;
    std::vector<Cache> l1s_;
    Cache l2_;
    double l2Free_ = 0.0;     //!< next free L2 bandwidth slot (cycles)
    double dramFree_ = 0.0;
    double l2SectorTime_;     //!< cycles per sector of L2 bandwidth
    double dramSectorTime_;
    std::uint64_t seed_;

    std::uint64_t l1Accesses_ = 0;
    std::uint64_t l1Misses_ = 0;
};

} // namespace scsim

#endif // SCSIM_MEM_MEM_SYSTEM_HH
