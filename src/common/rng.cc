#include "common/rng.hh"

#include <bit>
#include <cstring>

#include "common/logging.hh"

namespace scsim {

std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
hashString(std::string_view s)
{
    constexpr std::uint64_t kPrime = 0x100000001b3ULL;
    std::uint64_t h = 0xcbf29ce484222325ULL;
    std::size_t i = 0;
    // The same bytes in order, loaded eight at a time: sanitizer builds
    // instrument every load, and multi-MB snapshots are hashed often.
    if constexpr (std::endian::native == std::endian::little) {
        for (; i + 8 <= s.size(); i += 8) {
            std::uint64_t w;
            std::memcpy(&w, s.data() + i, sizeof(w));
            for (int b = 0; b < 8; ++b, w >>= 8) {
                h ^= w & 0xff;
                h *= kPrime;
            }
        }
    }
    for (; i < s.size(); ++i) {
        h ^= static_cast<unsigned char>(s[i]);
        h *= kPrime;
    }
    return h;
}

namespace {

inline std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &word : s_)
        word = splitmix64(sm);
}

Rng::result_type
Rng::operator()()
{
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

std::uint64_t
Rng::next(std::uint64_t bound)
{
    scsim_assert(bound > 0, "next() bound must be positive");
    // Lemire-style rejection to remove modulo bias.
    std::uint64_t threshold = (~bound + 1) % bound;
    for (;;) {
        std::uint64_t r = (*this)();
        if (r >= threshold)
            return r % bound;
    }
}

std::int64_t
Rng::range(std::int64_t lo, std::int64_t hi)
{
    scsim_assert(lo <= hi, "range() requires lo <= hi");
    return lo + static_cast<std::int64_t>(
        next(static_cast<std::uint64_t>(hi - lo) + 1));
}

double
Rng::nextDouble()
{
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

bool
Rng::chance(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return nextDouble() < p;
}

} // namespace scsim
