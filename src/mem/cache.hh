/**
 * @file
 * Set-associative cache model with true-LRU replacement.
 *
 * Only tag state is modeled (the simulator never carries data).  Used
 * for both the per-SM L1 sector lookups and the shared L2.
 */

#ifndef SCSIM_MEM_CACHE_HH
#define SCSIM_MEM_CACHE_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace scsim {

class Cache
{
  public:
    /**
     * @param bytes      total capacity
     * @param lineBytes  line size (power of two)
     * @param ways       associativity; capped to the line count
     */
    Cache(std::uint64_t bytes, int lineBytes, int ways);

    /**
     * Look up @p addr, allocating its line on miss (LRU victim).
     * @return true on hit.
     */
    bool access(Addr addr);

    /** Probe without side effects. */
    bool contains(Addr addr) const;

    void reset();

    int numSets() const { return numSets_; }
    int numWays() const { return numWays_; }
    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t misses() const { return misses_; }

    /** Checkpointing (common/state_io.hh): LRU clock, counters and the
     *  tag array. */
    template <class Self, class V> static void visitState(Self &self, V &v);

  private:
    struct Line
    {
        Addr tag = ~Addr(0);
        std::uint64_t lastUse = 0;
        bool valid = false;
    };

    int lineShift_;
    int numSets_;
    int numWays_;
    std::uint64_t tick_ = 0;
    std::uint64_t accesses_ = 0;
    std::uint64_t misses_ = 0;
    std::vector<Line> lines_;   //!< [set * numWays + way]
};

} // namespace scsim

#endif // SCSIM_MEM_CACHE_HH
