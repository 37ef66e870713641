#include "core/assign.hh"

#include <numeric>

#include "common/logging.hh"
#include "common/state_io.hh"

namespace scsim {

int
RoundRobinAssigner::nextSubcore()
{
    return static_cast<int>(w_++ % static_cast<std::uint64_t>(n_));
}

int
SrrAssigner::nextSubcore()
{
    std::uint64_t n = static_cast<std::uint64_t>(n_);
    int sub = static_cast<int>((w_ + w_ / n) % n);
    ++w_;
    return sub;
}

void
RoundRobinAssigner::saveState(StateWriter &w) const
{
    w.u64("assign.w", w_);
}

void
RoundRobinAssigner::loadState(StateReader &r)
{
    w_ = r.u64("assign.w");
}

void
SrrAssigner::saveState(StateWriter &w) const
{
    w.u64("assign.w", w_);
}

void
SrrAssigner::loadState(StateReader &r)
{
    w_ = r.u64("assign.w");
}

ShuffleAssigner::ShuffleAssigner(int numSubcores, std::uint64_t seed)
    : SubcoreAssigner(numSubcores), seed_(seed), rng_(seed)
{
    refill();
}

void
ShuffleAssigner::refill()
{
    perm_.resize(static_cast<std::size_t>(n_));
    std::iota(perm_.begin(), perm_.end(), 0);
    rng_.shuffle(perm_);
    pos_ = 0;
}

int
ShuffleAssigner::nextSubcore()
{
    if (pos_ == perm_.size())
        refill();
    return perm_[pos_++];
}

void
ShuffleAssigner::reset()
{
    rng_ = Rng(seed_);
    refill();
}

void
ShuffleAssigner::saveState(StateWriter &w) const
{
    Rng::State st = rng_.state();
    for (std::uint64_t word : st.s)
        w.u64("assign.rng", word);
    for (int p : perm_)
        w.i64("assign.perm", p);
    w.u64("assign.pos", pos_);
}

void
ShuffleAssigner::loadState(StateReader &r)
{
    Rng::State st;
    for (std::uint64_t &word : st.s)
        word = r.u64("assign.rng");
    rng_.setState(st);
    perm_.resize(static_cast<std::size_t>(n_));
    for (int &p : perm_)
        p = static_cast<int>(r.i64("assign.perm"));
    pos_ = r.u64("assign.pos");
    if (pos_ > perm_.size())
        scsim_throw(CacheError, "snapshot: shuffle pos %zu out of range",
                    pos_);
}

HashTableAssigner::HashTableAssigner(int numSubcores, int entries)
    : SubcoreAssigner(numSubcores),
      table_(static_cast<std::size_t>(entries), 0)
{
    scsim_assert(numSubcores == 4,
                 "the hash-table engine drives a 4:1 mux (2 selects)");
    scsim_assert(entries == 4 || entries == 16,
                 "hash table holds 4 or 16 entries");
}

std::uint8_t
HashTableAssigner::encodeEntry(const int subcores[4])
{
    std::uint8_t upper = 0;   // select line 0 (bit 0 of the sub-core id)
    std::uint8_t lower = 0;   // select line 1 (bit 1 of the sub-core id)
    for (int j = 0; j < 4; ++j) {
        upper = static_cast<std::uint8_t>(
            upper | ((subcores[j] & 1) << j));
        lower = static_cast<std::uint8_t>(
            lower | (((subcores[j] >> 1) & 1) << j));
    }
    return static_cast<std::uint8_t>((upper << 4) | lower);
}

int
HashTableAssigner::nextSubcore()
{
    std::uint64_t group = (w_ / 4) % table_.size();
    int j = static_cast<int>(w_ % 4);
    ++w_;
    std::uint8_t e = table_[group];
    int sel0 = (e >> (4 + j)) & 1;
    int sel1 = (e >> j) & 1;
    return (sel1 << 1) | sel0;
}

void
HashTableAssigner::saveState(StateWriter &w) const
{
    w.u64("assign.w", w_);
    // The table is programmed deterministically at construction, but a
    // test may have repatched it through setEntry — persist it too.
    for (std::uint8_t e : table_)
        w.u64("assign.entry", e);
}

void
HashTableAssigner::loadState(StateReader &r)
{
    w_ = r.u64("assign.w");
    for (std::uint8_t &e : table_)
        e = static_cast<std::uint8_t>(r.u64("assign.entry"));
}

void
HashTableAssigner::programSrr()
{
    // SRR for N=4 reduces to: group g assigns [g, g+1, g+2, g+3] mod 4.
    for (std::size_t g = 0; g < table_.size(); ++g) {
        int subs[4];
        for (int j = 0; j < 4; ++j)
            subs[j] = static_cast<int>((g + static_cast<std::size_t>(j))
                                       % 4);
        table_[g] = encodeEntry(subs);
    }
}

void
HashTableAssigner::programShuffle(Rng &rng)
{
    for (std::size_t g = 0; g < table_.size(); ++g) {
        std::vector<int> perm(4);
        std::iota(perm.begin(), perm.end(), 0);
        rng.shuffle(perm);
        int subs[4] = { perm[0], perm[1], perm[2], perm[3] };
        table_[g] = encodeEntry(subs);
    }
}

std::unique_ptr<SubcoreAssigner>
makeAssigner(const GpuConfig &cfg, int numSubcores, std::uint64_t seed)
{
    return makeAssigner(cfg.assign, numSubcores, cfg.hashTableEntries,
                        seed);
}

std::unique_ptr<SubcoreAssigner>
makeAssigner(AssignPolicy policy, int numSubcores, int hashEntries,
             std::uint64_t seed)
{
    switch (policy) {
      case AssignPolicy::RoundRobin:
        return std::make_unique<RoundRobinAssigner>(numSubcores);
      case AssignPolicy::SRR:
        return std::make_unique<SrrAssigner>(numSubcores);
      case AssignPolicy::Shuffle:
        return std::make_unique<ShuffleAssigner>(numSubcores, seed);
      case AssignPolicy::HashSRR: {
        auto a = std::make_unique<HashTableAssigner>(numSubcores,
                                                     hashEntries);
        a->programSrr();
        return a;
      }
      case AssignPolicy::HashShuffle: {
        auto a = std::make_unique<HashTableAssigner>(numSubcores,
                                                     hashEntries);
        Rng rng(seed);
        a->programShuffle(rng);
        return a;
      }
    }
    scsim_panic("assignment policy %d has no case",
                static_cast<int>(policy));
}

} // namespace scsim
