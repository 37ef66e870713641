/**
 * @file
 * Warp -> sub-core assignment policies (Section IV-B).
 *
 * Assignment happens once, when a thread block's warps are loaded into
 * the sub-cores' warp PC tables, and is never revisited — the source
 * of the issue-imbalance pathology.  The assignment counter W is
 * per-SM state that continues across blocks, exactly like the
 * hardware's 2-bit up-counter.
 *
 * Policies:
 *  - RoundRobin: subcore = W mod N (hardware baseline).
 *  - SRR: subcore = (W + floor(W/N)) mod N (paper eq. 1) — spreads a
 *    "one long warp every N" pattern perfectly.
 *  - Shuffle: random permutation per group of N warps, so per-sub-core
 *    counts never differ by more than one.
 *  - HashTable: the Fig 7 hardware engine — a T-entry x 8-bit table
 *    whose nibbles drive the two select lines of the sub-core mux
 *    through two 4-bit shift registers; one entry covers 4 consecutive
 *    warps and the table wraps after 4*T warps.  Can be programmed
 *    with the SRR pattern or with random permutations (Shuffle).
 */

#ifndef SCSIM_CORE_ASSIGN_HH
#define SCSIM_CORE_ASSIGN_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hh"
#include "config/gpu_config.hh"

namespace scsim {

class StateReader;
class StateWriter;

class SubcoreAssigner
{
  public:
    explicit SubcoreAssigner(int numSubcores) : n_(numSubcores) {}
    virtual ~SubcoreAssigner() = default;

    /** Sub-core for the next warp loaded into this SM. */
    virtual int nextSubcore() = 0;

    virtual void reset() = 0;

    /** Checkpointing (common/state_io.hh). */
    virtual void visitState(StateWriter &) const = 0;
    virtual void visitState(StateReader &) = 0;

    int numSubcores() const { return n_; }

  protected:
    int n_;
};

/** A policy driven by the assignment counter W alone. */
class CountingAssigner : public SubcoreAssigner
{
  public:
    using SubcoreAssigner::SubcoreAssigner;
    void reset() override { w_ = 0; }
    void visitState(StateWriter &w) const override { visit(*this, w); }
    void visitState(StateReader &r) override { visit(*this, r); }

  protected:
    template <class Self, class V> static void visit(Self &self, V &v);

    std::uint64_t w_ = 0;
};

class RoundRobinAssigner : public CountingAssigner
{
  public:
    using CountingAssigner::CountingAssigner;
    int nextSubcore() override;
};

class SrrAssigner : public CountingAssigner
{
  public:
    using CountingAssigner::CountingAssigner;
    int nextSubcore() override;
};

class ShuffleAssigner : public SubcoreAssigner
{
  public:
    ShuffleAssigner(int numSubcores, std::uint64_t seed);
    int nextSubcore() override;
    void reset() override;
    void visitState(StateWriter &w) const override { visit(*this, w); }
    void visitState(StateReader &r) override { visit(*this, r); }

  private:
    /** A load refuses a permutation that is not one of 0..n-1. */
    template <class Self, class V> static void visit(Self &self, V &v);
    void refill();

    std::uint64_t seed_;
    Rng rng_;
    std::vector<int> perm_;
    std::size_t pos_ = 0;
};

class HashTableAssigner : public CountingAssigner
{
  public:
    /**
     * @param entries  table size (4 or 16)
     * Only 4 sub-cores are supported: the hardware mux has exactly two
     * select lines.
     */
    HashTableAssigner(int numSubcores, int entries);

    int nextSubcore() override;
    void visitState(StateWriter &w) const override { visit(*this, w); }
    void visitState(StateReader &r) override { visit(*this, r); }

    /** Load the SRR pattern (repeats every 16 warps; 4 entries). */
    void programSrr();

    /** Load one random permutation of {0..3} per entry. */
    void programShuffle(Rng &rng);

    /** Raw table access (tests and exotic hash functions). */
    void
    setEntry(int idx, std::uint8_t value)
    {
        table_[static_cast<std::size_t>(idx)] = value;
    }
    std::uint8_t
    entry(int idx) const
    {
        return table_[static_cast<std::size_t>(idx)];
    }
    int entries() const { return static_cast<int>(table_.size()); }

    /** Encode 4 consecutive assignments into one table entry. */
    static std::uint8_t encodeEntry(const int subcores[4]);

  private:
    template <class Self, class V> static void visit(Self &self, V &v);

    std::vector<std::uint8_t> table_;
};

/**
 * Build @p cfg's assignment policy (a switch on the enum, so a policy
 * added to AssignPolicy without a case fails -Wswitch).  @p seed feeds
 * Shuffle's RNG (and the per-SM hash-table programming for
 * HashShuffle); the hash-table size comes from cfg.hashTableEntries.
 */
std::unique_ptr<SubcoreAssigner>
makeAssigner(const GpuConfig &cfg, int numSubcores, std::uint64_t seed);

std::unique_ptr<SubcoreAssigner>
makeAssigner(AssignPolicy policy, int numSubcores, int hashEntries,
             std::uint64_t seed);

} // namespace scsim

#endif // SCSIM_CORE_ASSIGN_HH
