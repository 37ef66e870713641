/**
 * @file
 * Key-checked text serialization for simulator state snapshots.
 *
 * A snapshot payload is a sequence of `key value\n` lines.  Each
 * snapshot component has one `visitState(Self &self, V &v)` template
 * that names every field once, in payload order, with the range a
 * decoded value must fall in beside it.  Instantiated over a const
 * component and a StateWriter it appends the lines; over a mutable
 * component and a StateReader it consumes the same lines in the same
 * order, so the two directions cannot drift apart.  Checks that span
 * several fields run once the component's fields are all read, under
 * `if constexpr (V::kReads)`.
 *
 * The reader names the key it expects at every line and decodes each
 * value strictly into the field's own type (parseNumber: no sign on an
 * unsigned field, no value past the type's range).  A mismatch — wrong
 * key, malformed or out-of-range number, truncated payload — throws
 * CacheError naming the field, so a version-skewed or damaged snapshot
 * fails loudly at the first divergent line instead of silently
 * misassigning state.
 *
 * The format is deliberately textual: snapshots are framed and
 * FNV-checksummed at the wire layer (runner/wire.hh), so this layer
 * optimizes for debuggability (`scsim_cli checkpoint show` prints the
 * payload as-is) over density.  Integers are decimal, bools 0/1, enums
 * their underlying integer, and doubles %.17g, which round-trips
 * IEEE-754 binary64 exactly.
 */

#ifndef SCSIM_COMMON_STATE_IO_HH
#define SCSIM_COMMON_STATE_IO_HH

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/parse_number.hh"
#include "common/text_escape.hh"

namespace scsim {

/** The closed range [lo, hi] a decoded integer must fall in; @c what
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

/** Appends `key value` lines to a growing payload. */
class StateWriter
{
  public:
    static constexpr bool kReads = false;

    /** One `key value` line; the range is the reader's to check. */
    template <class T>
    void
    field(const char *key, const T &v, std::optional<FieldRange> = {})
    {
        char tmp[64];
        if constexpr (std::is_same_v<T, std::string>) {
            line(key, escapeLine(v));
        } else if constexpr (std::is_enum_v<T>) {
            field(key, static_cast<std::underlying_type_t<T>>(v));
        } else if constexpr (std::is_floating_point_v<T>) {
            int n = std::snprintf(tmp, sizeof(tmp), "%.17g",
                                  static_cast<double>(v));
            line(key, std::string_view(tmp, static_cast<std::size_t>(n)));
        } else {
            using Wide = std::conditional_t<std::is_signed_v<T>, long long,
                                            unsigned long long>;
            auto res = std::to_chars(tmp, tmp + sizeof(tmp),
                                     static_cast<Wide>(v));
            line(key, std::string_view(tmp, static_cast<std::size_t>(
                                                res.ptr - tmp)));
        }
    }

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
    void
    line(const char *key, std::string_view value)
    {
        buf_ += key;
        buf_ += ' ';
        buf_ += value;
        buf_ += '\n';
    }

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

    /** Strings unescape; bools are 0 or 1; enums decode their
     *  underlying integer, so @p range decides which values name one. */
    template <class T>
    void
    field(const char *key, T &out, std::optional<FieldRange> range = {})
    {
        std::string_view text = value(key);
        if constexpr (std::is_same_v<T, std::string>) {
            out = unescapeLine(std::string(text));
        } else if constexpr (std::is_floating_point_v<T>) {
            if (!parseNumber(text, out))
                badValue(key, text);
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
                badValue(key, text);
            if (range
                && (std::cmp_less(raw, range->lo)
                    || std::cmp_greater(raw, range->hi)))
                scsim_throw(CacheError,
                            "snapshot field '%s': %s %.*s out of range "
                            "[%lld, %lld]",
                            key, range->what,
                            static_cast<int>(text.size()), text.data(),
                            static_cast<long long>(range->lo),
                            static_cast<long long>(range->hi));
            out = static_cast<T>(raw);
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
    [[noreturn]] static void
    badValue(const char *key, std::string_view text)
    {
        scsim_throw(CacheError, "snapshot field '%s': bad value '%.*s'",
                    key, static_cast<int>(text.size()), text.data());
    }

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

} // namespace scsim

#endif // SCSIM_COMMON_STATE_IO_HH
