/**
 * @file
 * Key-checked `key value` text: simulator state snapshots and the wire
 * records of the sweep, journal and farm layers.
 *
 * Every such record names each field once, in one visitor template.
 * A snapshot component's `visitState(Self &self, V &v)` and a wire
 * record's field list are instantiated over a const object and a
 * StateWriter to append the lines, and over a mutable object and a
 * reader to decode the same lines, so the two directions cannot drift
 * apart.  Checks that span several fields run once the fields are all
 * read, under `if constexpr (V::kReads)`.
 *
 * Two readers share one strict value decode (decodeValue): a number
 * decodes into the field's own type in exactly the writer's spelling
 * (no sign on an unsigned field, no leading '+' or space, nothing after
 * it, nothing past the type's range), then into the field's range when
 * one is given.
 *
 *  - StateReader (snapshots) names the key it expects at every line, in
 *    order, and throws CacheError naming the field at the first line
 *    that disagrees — wrong key, bad or out-of-range value, truncated
 *    payload — so a version-skewed or damaged snapshot fails loudly
 *    instead of silently misassigning state.
 *  - FieldReader (wire records) offers each line to the record's field
 *    list by key, in any order; a line no field claims is the caller's
 *    (a sized block, another codec's line) or is skipped, and a field
 *    with no line keeps its default.  That leniency lets a record grow
 *    a field within one format version.  A refused value marks the
 *    reader bad(); the caller maps that to its own error.
 *
 * The format is deliberately textual: records are framed and
 * FNV-checksummed at the wire layer (runner/wire.hh), so this layer
 * optimizes for debuggability (`scsim_cli checkpoint show` prints a
 * snapshot payload as-is) over density.  Integers are decimal, bools
 * 0/1, enums their underlying integer (or a name, through byName),
 * doubles %.17g, which round-trips IEEE-754 binary64 exactly, strings
 * escapeLine'd, and 64-bit keys and hashes (asHex) exactly 16 hex
 * digits.
 */

#ifndef SCSIM_COMMON_STATE_IO_HH
#define SCSIM_COMMON_STATE_IO_HH

#include <cctype>
#include <charconv>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/parse_number.hh"
#include "common/text_escape.hh"

namespace scsim {

/** The closed range [lo, hi] a decoded number must fall in; @c what
 *  names the value in the reader's error. */
struct FieldRange
{
    std::int64_t lo;
    std::int64_t hi;
    const char *what;
};

inline FieldRange
inRange(std::int64_t lo, std::int64_t hi, const char *what = "value")
{
    return { lo, hi, what };
}

/** [0, @p n): an index into @p n entries (an enum's count included). */
template <class N>
FieldRange
below(N n)
{
    return { 0, static_cast<std::int64_t>(n) - 1, "value" };
}

/** @p obj with @p Self's constness: a visitState body reaches what
 *  its component owns through a pointer as const when it is const. */
template <class Self, class T>
std::conditional_t<std::is_const_v<Self>, const T &, T &>
likeSelf(T &obj)
{
    return obj;
}

/** A 64-bit key or hash, spelled as exactly 16 hex digits. */
template <class U>
struct Hex
{
    U &value;
};

template <class U>
Hex<U>
asHex(U &value)
{
    return { value };
}

/** An enum spelled by its name: @p names[i] names the value i. */
template <class E>
struct ByName
{
    E &value;
    std::span<const char *const> names;
};

template <class E>
ByName<E>
byName(E &value, std::span<const char *const> names)
{
    return { value, names };
}

/** A fixed word of a one-line record: written as-is, read back only
 *  as itself. */
struct Keyword
{
    std::string_view text;
};

template <class T>
inline constexpr bool kIsHex = false;
template <class U>
inline constexpr bool kIsHex<Hex<U>> = true;

template <class T>
inline constexpr bool kIsByName = false;
template <class E>
inline constexpr bool kIsByName<ByName<E>> = true;

template <class T>
inline constexpr bool kIsVector = false;
template <class E>
inline constexpr bool kIsVector<std::vector<E>> = true;

/** Append @p v in its field spelling (see the file comment). */
template <class T>
void
appendValue(std::string &out, const T &v)
{
    char tmp[64];
    if constexpr (std::is_same_v<T, std::string>) {
        out += escapeLine(v);
    } else if constexpr (std::is_same_v<T, Keyword>) {
        out += v.text;
    } else if constexpr (kIsHex<T>) {
        std::snprintf(tmp, sizeof(tmp), "%016" PRIx64,
                      static_cast<std::uint64_t>(v.value));
        out += tmp;
    } else if constexpr (kIsByName<T>) {
        out += v.names[static_cast<std::size_t>(v.value)];
    } else if constexpr (std::is_enum_v<T>) {
        appendValue(out, static_cast<std::underlying_type_t<T>>(v));
    } else if constexpr (std::is_floating_point_v<T>) {
        int n = std::snprintf(tmp, sizeof(tmp), "%.17g",
                              static_cast<double>(v));
        out.append(tmp, static_cast<std::size_t>(n));
    } else {
        using Wide = std::conditional_t<std::is_signed_v<T>, long long,
                                        unsigned long long>;
        auto res = std::to_chars(tmp, tmp + sizeof(tmp),
                                 static_cast<Wide>(v));
        out.append(tmp, static_cast<std::size_t>(res.ptr - tmp));
    }
}

/** Exactly 16 lower-case hex digits, as the writer spells them, into
 *  @p out; no sign, prefix or space. */
inline bool
parseHex64(std::string_view text, std::uint64_t &out)
{
    if (text.size() != 16)
        return false;
    std::uint64_t v = 0;
    for (char c : text) {
        int digit = c >= '0' && c <= '9'   ? c - '0'
                    : c >= 'a' && c <= 'f' ? c - 'a' + 10
                                           : -1;
        if (digit < 0)
            return false;
        v = v << 4 | static_cast<std::uint64_t>(digit);
    }
    out = v;
    return true;
}

/** Outcome of decodeValue. */
enum class Decoded
{
    Ok,
    Malformed,   //!< not the field's spelling, or past its type
    OutOfRange,  //!< a number of the right type outside the range
};

/**
 * Decode @p text, one value in its writer's spelling, into @p out
 * (untouched unless Ok).  A number takes no leading '+' or space:
 * writers never produce them.  Bools are 0 or 1; enums decode their
 * underlying integer, so @p range decides which values name one.  A
 * floating value must be finite, and is held to @p range too.  A
 * std::vector is its elements separated by single spaces.
 */
template <class T>
Decoded
decodeValue(std::string_view text, T &out,
            std::optional<FieldRange> range = {})
{
    if constexpr (std::is_same_v<T, std::string>) {
        out = unescapeLine(std::string(text));
    } else if constexpr (kIsVector<T>) {
        T values;
        while (!text.empty()) {
            std::size_t sp = text.find(' ');
            typename T::value_type e{};
            if (decodeValue(text.substr(0, sp), e) != Decoded::Ok)
                return Decoded::Malformed;
            values.push_back(e);
            text = sp == std::string_view::npos ? std::string_view()
                                                : text.substr(sp + 1);
            if (sp != std::string_view::npos && text.empty())
                return Decoded::Malformed;  // trailing space
        }
        out = std::move(values);
    } else if constexpr (std::is_same_v<T, Keyword>) {
        return text == out.text ? Decoded::Ok : Decoded::Malformed;
    } else if constexpr (kIsHex<T>) {
        return parseHex64(text, out.value) ? Decoded::Ok
                                           : Decoded::Malformed;
    } else if constexpr (kIsByName<T>) {
        for (std::size_t i = 0; i < out.names.size(); ++i)
            if (text == out.names[i]) {
                out.value = static_cast<std::remove_cvref_t<
                    decltype(out.value)>>(i);
                return Decoded::Ok;
            }
        return Decoded::Malformed;
    } else {
        if (text.empty() || text.front() == '+'
            || std::isspace(static_cast<unsigned char>(text.front())))
            return Decoded::Malformed;
        if constexpr (std::is_floating_point_v<T>) {
            T v{};
            if (!parseNumber(text, v))
                return Decoded::Malformed;
            if (range && (v < static_cast<T>(range->lo)
                          || v > static_cast<T>(range->hi)))
                return Decoded::OutOfRange;
            out = v;
        } else {
            using Raw = typename std::conditional_t<
                std::is_same_v<T, bool>, std::type_identity<unsigned char>,
                std::conditional_t<std::is_enum_v<T>,
                                   std::underlying_type<T>,
                                   std::type_identity<T>>>::type;
            if constexpr (std::is_same_v<T, bool>)
                range = inRange(0, 1, "bool");
            Raw raw{};
            if (!parseNumber(text, raw))
                return Decoded::Malformed;
            if (range
                && (std::cmp_less(raw, range->lo)
                    || std::cmp_greater(raw, range->hi)))
                return Decoded::OutOfRange;
            out = static_cast<T>(raw);
        }
    }
    return Decoded::Ok;
}

/**
 * Decode @p text as space-separated words into @p out..., the last
 * taking the rest of the line (so it alone may hold spaces).  False,
 * with the outputs partly written, when a word is missing or refused.
 */
template <class... T>
bool
decodeWords(std::string_view text, T &&...out)
{
    constexpr std::size_t kCount = sizeof...(T);
    std::size_t i = 0;
    auto one = [&](auto &target) {
        std::string_view word = text;
        if (++i < kCount) {
            std::size_t sp = text.find(' ');
            if (sp == std::string_view::npos)
                return false;
            word = text.substr(0, sp);
            text.remove_prefix(sp + 1);
        }
        return decodeValue(word, target) == Decoded::Ok;
    };
    return (one(out) && ...);
}

/** Appends `key value` lines to a growing payload. */
class StateWriter
{
  public:
    static constexpr bool kReads = false;

    /** One `key value` line; the range is the reader's to check. */
    template <class T>
    void
    field(std::string_view key, const T &v, std::optional<FieldRange> = {})
    {
        words(key, v);
    }

    /** One `key word word...` line: @p values in their field spellings,
     *  each after one space (a std::vector, each element). */
    template <class... T>
    void
    words(std::string_view key, const T &...values)
    {
        buf_ += key;
        auto one = [this](const auto &v) {
            if constexpr (kIsVector<std::remove_cvref_t<decltype(v)>>) {
                for (const auto &e : v) {
                    buf_ += ' ';
                    appendValue(buf_, e);
                }
            } else {
                buf_ += ' ';
                appendValue(buf_, v);
            }
        };
        (one(values), ...);
        buf_ += '\n';
    }

    /** @p bytes verbatim: the sized block a line just announced. */
    void block(std::string_view bytes) { buf_ += bytes; }

    /** A `countKey n` line, then @p visitItem on each of the n items. */
    template <class C, class F>
    void
    list(const char *countKey, const C &items, F &&visitItem)
    {
        field(countKey, items.size());
        for (std::size_t i = 0; i < items.size(); ++i)
            visitItem(items[i]);
    }

    /** @p ptr as its index into @p table; -1 for null. */
    template <class T>
    void
    element(const char *key, const T *ptr, const std::vector<T> &table,
            bool nullable)
    {
        std::int64_t idx = -1;
        for (std::size_t i = 0; ptr && i < table.size(); ++i)
            if (&table[i] == ptr)
                idx = static_cast<std::int64_t>(i);
        scsim_assert(idx >= 0 || (nullable && !ptr),
                     "snapshot field '%s' points outside its table", key);
        field(key, idx);
    }

    const std::string &payload() const { return buf_; }
    std::string take() { return std::move(buf_); }

  private:
    std::string buf_;
};

/**
 * Sequential reader over a StateWriter payload: the same calls as the
 * writer, each consuming the line it names and throwing CacheError
 * when the payload disagrees.
 */
class StateReader
{
  public:
    static constexpr bool kReads = true;

    explicit StateReader(std::string_view payload)
        : data_(payload)
    {
    }

    /** One field in decodeValue's spelling; @p range bounds a number. */
    template <class T>
    void
    field(const char *key, T &out, std::optional<FieldRange> range = {})
    {
        std::string_view text = value(key);
        switch (decodeValue(text, out, range)) {
          case Decoded::Ok:
            return;
          case Decoded::Malformed:
            scsim_throw(CacheError, "snapshot field '%s': bad value '%.*s'",
                        key, static_cast<int>(text.size()), text.data());
          case Decoded::OutOfRange:
            if constexpr (std::is_same_v<T, bool>)
                range = inRange(0, 1, "bool");
            scsim_throw(CacheError,
                        "snapshot field '%s': %s %.*s out of range "
                        "[%lld, %lld]",
                        key, range->what,
                        static_cast<int>(text.size()), text.data(),
                        static_cast<long long>(range->lo),
                        static_cast<long long>(range->hi));
        }
    }

    /** Replaces @p items with the counted items; @p visitItem reads
     *  each into a default-constructed element. */
    template <class C, class F>
    void
    list(const char *countKey, C &items, F &&visitItem)
    {
        std::uint64_t n = 0;
        field(countKey, n);
        items.clear();
        for (std::uint64_t i = 0; i < n; ++i) {
            typename C::value_type item{};
            visitItem(item);
            items.push_back(std::move(item));
        }
    }

    /** Points @p ptr at the @p table entry the line indexes; -1 is
     *  null, refused unless @p nullable. */
    template <class T>
    void
    element(const char *key, const T *&ptr, const std::vector<T> &table,
            bool nullable)
    {
        std::int64_t idx = -1;
        field(key, idx,
              inRange(nullable ? -1 : 0,
                      static_cast<std::int64_t>(table.size()) - 1,
                      "table index"));
        ptr = idx < 0 ? nullptr : &table[static_cast<std::size_t>(idx)];
    }

    /** Whole payload consumed?  Trailing data is corruption. */
    void
    expectEnd() const
    {
        if (pos_ < data_.size())
            scsim_throw(CacheError,
                        "snapshot payload has %zu trailing bytes",
                        data_.size() - pos_);
    }

  private:
    /** Next line's value, after checking its key is @p key. */
    std::string_view
    value(const char *key)
    {
        if (pos_ >= data_.size())
            scsim_throw(CacheError,
                        "snapshot truncated: expected field '%s'", key);
        std::size_t eol = data_.find('\n', pos_);
        if (eol == std::string_view::npos)
            scsim_throw(CacheError,
                        "snapshot field '%s': unterminated line", key);
        std::string_view line = data_.substr(pos_, eol - pos_);
        pos_ = eol + 1;
        std::size_t sp = line.find(' ');
        if (sp == std::string_view::npos)
            scsim_throw(CacheError,
                        "snapshot field '%s': malformed line '%.*s'",
                        key, static_cast<int>(line.size()),
                        line.data());
        std::string_view gotKey = line.substr(0, sp);
        if (gotKey != key)
            scsim_throw(CacheError,
                        "snapshot field mismatch: expected '%s', found "
                        "'%.*s'",
                        key, static_cast<int>(gotKey.size()),
                        gotKey.data());
        return line.substr(sp + 1);
    }

    std::string_view data_;
    std::size_t pos_ = 0;
};

/**
 * Keyed reader over a wire record's `key value` lines.  next() steps
 * to a line; the record's field list then offers it each field, and
 * the one whose key matches claims the line and decodes its value.
 */
class FieldReader
{
  public:
    static constexpr bool kReads = true;

    explicit FieldReader(std::string_view text)
        : rest_(text)
    {
    }

    /** Step to the next line (an empty one included); false at the
     *  end, and bad() too when the text ends mid-line. */
    bool
    next()
    {
        claimed_ = false;
        if (rest_.empty())
            return false;
        std::size_t eol = rest_.find('\n');
        if (eol == std::string_view::npos) {
            bad_ = true;
            return false;
        }
        std::string_view line = rest_.substr(0, eol);
        rest_.remove_prefix(eol + 1);
        std::size_t sp = line.find(' ');
        key_ = line.substr(0, sp);
        value_ = sp == std::string_view::npos ? std::string_view()
                                              : line.substr(sp + 1);
        return true;
    }

    /** Claim the line if its key is @p key and decode its value into
     *  @p out; true when both happened. */
    template <class T>
    bool
    field(std::string_view key, T &&out,
          std::optional<FieldRange> range = {})
    {
        return take(key) && check(decodeValue(value_, out, range)
                                  == Decoded::Ok);
    }

    /** field() for a `key word word...` line (see decodeWords). */
    template <class... T>
    bool
    words(std::string_view key, T &&...out)
    {
        return take(key) && check(decodeWords(value_, out...));
    }

    /**
     * The @p n bytes after the current line, a sized block the line
     * announced; they are consumed.  False (and bad()) when fewer
     * remain, whatever @p n is.
     */
    bool
    block(std::size_t n, std::string_view &out)
    {
        if (!check(n <= rest_.size()))
            return false;
        out = rest_.substr(0, n);
        rest_.remove_prefix(n);
        return true;
    }

    /** Refuse the record (a value the list cannot check alone). */
    void refuse() { bad_ = true; }

    /** Everything after the current line (and any block taken). */
    std::string_view rest() const { return rest_; }
    bool claimed() const { return claimed_; }
    bool bad() const { return bad_; }

  private:
    bool
    take(std::string_view key)
    {
        if (claimed_ || key_ != key)
            return false;
        claimed_ = true;
        return true;
    }

    bool
    check(bool ok)
    {
        bad_ = bad_ || !ok;
        return ok;
    }

    std::string_view rest_;
    std::string_view key_;
    std::string_view value_;
    bool claimed_ = false;
    bool bad_ = false;
};

/**
 * Decode a record's payload: each line is offered to @p fields (the
 * record's field list over a FieldReader), then, when no field claimed
 * it, to @p other, which may take a sized block or refuse the record;
 * an unclaimed line is otherwise skipped.  False once anything was
 * refused or the payload ends mid-line.
 */
template <class Fields, class Other>
bool
readFields(std::string_view payload, Fields &&fields, Other &&other)
{
    FieldReader r(payload);
    while (!r.bad() && r.next()) {
        fields(r);
        if (!r.claimed())
            other(r);
    }
    return !r.bad();
}

template <class Fields>
bool
readFields(std::string_view payload, Fields &&fields)
{
    return readFields(payload, fields, [](FieldReader &) {});
}

} // namespace scsim

#endif // SCSIM_COMMON_STATE_IO_HH
