#include "json.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace scsim::bench {

namespace {

class Parser
{
  public:
    explicit Parser(const std::string &text) : s_(text) {}

    Json
    document()
    {
        Json v = value();
        skipSpace();
        if (pos_ != s_.size())
            fail("trailing characters");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const char *what) const
    {
        throw std::runtime_error("json: " + std::string(what)
                                 + " at offset "
                                 + std::to_string(pos_));
    }

    void
    skipSpace()
    {
        while (pos_ < s_.size()
               && (s_[pos_] == ' ' || s_[pos_] == '\n'
                   || s_[pos_] == '\r' || s_[pos_] == '\t'))
            ++pos_;
    }

    bool
    consume(char c)
    {
        skipSpace();
        if (pos_ < s_.size() && s_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    void
    expect(char c)
    {
        if (!consume(c))
            fail("unexpected character");
    }

    bool
    literal(const char *word)
    {
        std::string w(word);
        if (s_.compare(pos_, w.size(), w) != 0)
            return false;
        pos_ += w.size();
        return true;
    }

    std::string
    string()
    {
        expect('"');
        std::string out;
        while (pos_ < s_.size() && s_[pos_] != '"') {
            char c = s_[pos_++];
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= s_.size())
                fail("truncated escape");
            char e = s_[pos_++];
            switch (e) {
              case 'n': out += '\n'; break;
              case 't': out += '\t'; break;
              case 'r': out += '\r'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'u': {
                if (pos_ + 4 > s_.size())
                    fail("truncated \\u escape");
                long cp = std::strtol(s_.substr(pos_, 4).c_str(),
                                      nullptr, 16);
                pos_ += 4;
                out += cp < 0x80 ? static_cast<char>(cp) : '?';
                break;
              }
              default: out += e; break;
            }
        }
        if (pos_ >= s_.size())
            fail("unterminated string");
        ++pos_;
        return out;
    }

    Json
    value()
    {
        skipSpace();
        if (pos_ >= s_.size())
            fail("unexpected end");
        Json v;
        char c = s_[pos_];
        if (c == '{') {
            ++pos_;
            v.type = Json::Type::Object;
            if (consume('}'))
                return v;
            do {
                skipSpace();
                std::string key = string();
                expect(':');
                v.object[key] = value();
            } while (consume(','));
            expect('}');
        } else if (c == '[') {
            ++pos_;
            v.type = Json::Type::Array;
            if (consume(']'))
                return v;
            do {
                v.array.push_back(value());
            } while (consume(','));
            expect(']');
        } else if (c == '"') {
            v.type = Json::Type::String;
            v.string = string();
        } else if (literal("true")) {
            v.type = Json::Type::Bool;
            v.boolean = true;
        } else if (literal("false")) {
            v.type = Json::Type::Bool;
        } else if (literal("null")) {
            v.type = Json::Type::Null;
        } else {
            const char *begin = s_.c_str() + pos_;
            char *end = nullptr;
            v.number = std::strtod(begin, &end);
            if (end == begin)
                fail("bad value");
            v.type = Json::Type::Number;
            pos_ += static_cast<std::size_t>(end - begin);
        }
        return v;
    }

    const std::string &s_;
    std::size_t pos_ = 0;
};

} // namespace

const Json &
Json::operator[](const std::string &key) const
{
    static const Json null;
    auto it = object.find(key);
    return it == object.end() ? null : it->second;
}

Json
parseJson(const std::string &text)
{
    return Parser(text).document();
}

Json
readJsonFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read '" + path + "'");
    std::ostringstream ss;
    ss << in.rdbuf();
    try {
        return parseJson(ss.str());
    } catch (const std::runtime_error &e) {
        throw std::runtime_error(path + ": " + e.what());
    }
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out + "\"";
}

} // namespace scsim::bench
