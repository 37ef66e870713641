/**
 * @file
 * parseNumber: the one strict text-to-number parse behind the config,
 * app-line and stats-payload decoders.
 */

#ifndef SCSIM_COMMON_PARSE_NUMBER_HH
#define SCSIM_COMMON_PARSE_NUMBER_HH

#include <cctype>
#include <charconv>
#include <cmath>
#include <string_view>
#include <type_traits>

namespace scsim {

/**
 * Parse all of @p text as one decimal number into @p out.  It takes
 * what stream extraction takes (leading whitespace, one '+'), but
 * refuses what the stream lets through: a sign on an unsigned type
 * (the stream reads "-1" as its wrap-around), trailing text, and for
 * a floating type a non-finite value.  A value out of the type's range
 * fails too, an underflowing one such as 1e-400 included.  @p out is
 * untouched on failure.
 */
template <class T>
bool
parseNumber(std::string_view text, T &out)
{
    std::size_t i = 0;
    while (i < text.size()
           && std::isspace(static_cast<unsigned char>(text[i])))
        ++i;
    if (i < text.size() && text[i] == '+') {
        ++i;
        if (i < text.size() && text[i] == '-')
            return false;
    }
    const char *last = text.data() + text.size();
    T v{};
    auto [end, ec] = std::from_chars(text.data() + i, last, v);
    if (ec != std::errc() || end != last)
        return false;
    if constexpr (std::is_floating_point_v<T>) {
        if (!std::isfinite(v))
            return false;
    }
    out = v;
    return true;
}

} // namespace scsim

#endif // SCSIM_COMMON_PARSE_NUMBER_HH
