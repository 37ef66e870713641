#include "core/assign.hh"

#include <algorithm>
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

template <class Self, class V>
void
CountingAssigner::visit(Self &self, V &v)
{
    v.field("assign.w", self.w_);
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

template <class Self, class V>
void
ShuffleAssigner::visit(Self &self, V &v)
{
    Rng::State st = self.rng_.state();
    for (auto &word : st.s)
        v.field("assign.rng", word);
    // Entries are handed out as sub-core indices.
    for (auto &p : self.perm_)
        v.field("assign.perm", p, below(self.n_));
    v.field("assign.pos", self.pos_, inRange(0, self.n_));
    if constexpr (V::kReads) {
        self.rng_.setState(st);
        std::vector<int> sorted = self.perm_;
        std::sort(sorted.begin(), sorted.end());
        if (std::adjacent_find(sorted.begin(), sorted.end())
            != sorted.end())
            scsim_throw(CacheError,
                        "snapshot: shuffle permutation repeats a "
                        "sub-core");
    }
}

HashTableAssigner::HashTableAssigner(int numSubcores, int entries)
    : CountingAssigner(numSubcores),
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

template <class Self, class V>
void
HashTableAssigner::visit(Self &self, V &v)
{
    CountingAssigner::visit(self, v);
    // The table is programmed deterministically at construction, but a
    // test may have repatched it through setEntry — persist it too.
    for (auto &e : self.table_)
        v.field("assign.entry", e);
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

template void CountingAssigner::visit(const CountingAssigner &,
                                      StateWriter &);
template void CountingAssigner::visit(CountingAssigner &, StateReader &);
template void ShuffleAssigner::visit(const ShuffleAssigner &,
                                     StateWriter &);
template void ShuffleAssigner::visit(ShuffleAssigner &, StateReader &);
template void HashTableAssigner::visit(const HashTableAssigner &,
                                       StateWriter &);
template void HashTableAssigner::visit(HashTableAssigner &, StateReader &);

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
