/**
 * @file
 * The little JSON the benchmark needs: a value tree, a strict parser
 * for the files it reads back (pass records, set records, pinned
 * digests, BENCHMARK.json), and helpers for writing numbers and
 * strings.  Not a general-purpose library: no \u escapes beyond
 * ASCII, numbers are doubles.
 */

#ifndef SCSIM_BENCH_JSON_HH
#define SCSIM_BENCH_JSON_HH

#include <map>
#include <string>
#include <vector>

namespace scsim::bench {

struct Json
{
    enum class Type { Null, Bool, Number, String, Array, Object };

    Type type = Type::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<Json> array;
    std::map<std::string, Json> object;

    /** Member @p key of an object; a Null value when absent. */
    const Json &operator[](const std::string &key) const;

    bool has(const std::string &key) const
    {
        return object.count(key) != 0;
    }
};

/** Parse @p text; throws std::runtime_error naming the offset. */
Json parseJson(const std::string &text);

/** Read and parse a file; throws std::runtime_error. */
Json readJsonFile(const std::string &path);

/** A number with every significant digit (non-finite becomes 0). */
std::string jsonNumber(double v);

/** A quoted, escaped string. */
std::string jsonString(const std::string &s);

} // namespace scsim::bench

#endif // SCSIM_BENCH_JSON_HH
