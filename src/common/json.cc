#include "common/json.hh"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "common/logging.hh"

namespace pipelayer {
namespace json {

bool
Value::asBool() const
{
    PL_ASSERT(kind_ == Kind::Bool, "JSON value is not a bool");
    return bool_;
}

double
Value::asNumber() const
{
    PL_ASSERT(kind_ == Kind::Number, "JSON value is not a number");
    return number_;
}

int64_t
Value::asInt(const std::string &field) const
{
    const double v = asNumber();
    if (exact_)
        return int_;
    // [-2^63, 2^63) in doubles: both bounds are exact, so every
    // integral value inside converts exactly (NaN fails both tests).
    if (!(v >= -9223372036854775808.0 && v < 9223372036854775808.0) ||
        v != std::trunc(v)) {
        throw ConfigError(field + " must be an integer in int64 range, "
                          "got " + formatNumber(v));
    }
    // From 2^53 on, a double may hold a rounded integer literal
    // (9007199254740993.0 reads as 2^53).
    if (std::fabs(v) >= 0x1p53) {
        throw ConfigError(field + " must be an integer written without "
                          "fraction or exponent from 2^53 on, got " +
                          formatNumber(v));
    }
    return static_cast<int64_t>(v);
}

const std::string &
Value::asString() const
{
    PL_ASSERT(kind_ == Kind::String, "JSON value is not a string");
    return string_;
}

size_t
Value::size() const
{
    if (kind_ == Kind::Array)
        return elements_.size();
    if (kind_ == Kind::Object)
        return members_.size();
    return 0;
}

void
Value::push(Value v)
{
    if (kind_ == Kind::Null)
        kind_ = Kind::Array;
    PL_ASSERT(kind_ == Kind::Array, "push() on a non-array JSON value");
    elements_.push_back(std::move(v));
}

const Value &
Value::at(size_t i) const
{
    PL_ASSERT(kind_ == Kind::Array && i < elements_.size(),
              "JSON array index %zu out of range", i);
    return elements_[i];
}

Value &
Value::operator[](const std::string &key)
{
    if (kind_ == Kind::Null)
        kind_ = Kind::Object;
    PL_ASSERT(kind_ == Kind::Object,
              "operator[] on a non-object JSON value (key '%s')",
              key.c_str());
    for (auto &member : members_) {
        if (member.first == key)
            return member.second;
    }
    members_.emplace_back(key, Value());
    return members_.back().second;
}

const Value *
Value::find(const std::string &key) const
{
    if (kind_ != Kind::Object)
        return nullptr;
    for (const auto &member : members_) {
        if (member.first == key)
            return &member.second;
    }
    return nullptr;
}

const Value &
Value::at(const std::string &key) const
{
    const Value *v = find(key);
    PL_ASSERT(v != nullptr, "JSON object has no member '%s'",
              key.c_str());
    return *v;
}

const std::vector<Value> &
Value::elements() const
{
    PL_ASSERT(kind_ == Kind::Array, "elements() on a non-array");
    return elements_;
}

const std::vector<std::pair<std::string, Value>> &
Value::members() const
{
    PL_ASSERT(kind_ == Kind::Object, "members() on a non-object");
    return members_;
}

bool
Value::operator==(const Value &other) const
{
    if (kind_ != other.kind_)
        return false;
    switch (kind_) {
      case Kind::Null:
        return true;
      case Kind::Bool:
        return bool_ == other.bool_;
      case Kind::Number:
        if (exact_ && other.exact_)
            return int_ == other.int_;
        if (exact_ || other.exact_) {
            // An integer equals a double only when the double holds
            // exactly that integer.
            const Value &i = exact_ ? *this : other;
            const double d = exact_ ? other.number_ : number_;
            return d >= -9223372036854775808.0 &&
                   d < 9223372036854775808.0 && d == std::trunc(d) &&
                   static_cast<int64_t>(d) == i.int_;
        }
        return number_ == other.number_;
      case Kind::String:
        return string_ == other.string_;
      case Kind::Array:
        return elements_ == other.elements_;
      case Kind::Object:
        return members_ == other.members_;
    }
    return false;
}

std::string
Value::escape(const std::string &s)
{
    std::string out = "\"";
    for (const char ch : s) {
        const auto c = static_cast<unsigned char>(ch);
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\b':
            out += "\\b";
            break;
          case '\f':
            out += "\\f";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += ch; // UTF-8 bytes pass through unmodified
            }
        }
    }
    out += '"';
    return out;
}

std::string
Value::formatNumber(double v)
{
    PL_ASSERT(std::isfinite(v),
              "JSON cannot represent non-finite number");
    // Integers (the common case: cycle counts, op counts) print
    // without an exponent or trailing ".0" so goldens stay readable.
    if (v == std::floor(v) && std::fabs(v) < 1e15) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(v));
        return buf;
    }
    // Shortest representation that parses back to the same double.
    char buf[40];
    for (int precision = 15; precision <= 17; ++precision) {
        std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
        if (std::strtod(buf, nullptr) == v)
            break;
    }
    return buf;
}

void
Value::writeIndented(std::ostream &os, int indent, int depth) const
{
    const bool pretty = indent >= 0;
    const std::string pad =
        pretty ? std::string(static_cast<size_t>(indent * (depth + 1)),
                             ' ')
               : std::string();
    const std::string close_pad =
        pretty ? std::string(static_cast<size_t>(indent * depth), ' ')
               : std::string();
    const char *nl = pretty ? "\n" : "";
    const char *colon = pretty ? ": " : ":";

    switch (kind_) {
      case Kind::Null:
        os << "null";
        break;
      case Kind::Bool:
        os << (bool_ ? "true" : "false");
        break;
      case Kind::Number:
        os << (exact_ ? std::to_string(int_) : formatNumber(number_));
        break;
      case Kind::String:
        os << escape(string_);
        break;
      case Kind::Array:
        if (elements_.empty()) {
            os << "[]";
            break;
        }
        os << "[" << nl;
        for (size_t i = 0; i < elements_.size(); ++i) {
            os << pad;
            elements_[i].writeIndented(os, indent, depth + 1);
            if (i + 1 < elements_.size())
                os << ",";
            os << nl;
        }
        os << close_pad << "]";
        break;
      case Kind::Object:
        if (members_.empty()) {
            os << "{}";
            break;
        }
        os << "{" << nl;
        for (size_t i = 0; i < members_.size(); ++i) {
            os << pad << escape(members_[i].first) << colon;
            members_[i].second.writeIndented(os, indent, depth + 1);
            if (i + 1 < members_.size())
                os << ",";
            os << nl;
        }
        os << close_pad << "}";
        break;
    }
}

void
Value::write(std::ostream &os, int indent) const
{
    writeIndented(os, indent, 0);
}

std::string
Value::dump(int indent) const
{
    std::ostringstream os;
    write(os, indent);
    return os.str();
}

// ---- Parser -------------------------------------------------------

namespace {

/** Recursive-descent parser over one in-memory document. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    Value parseDocument()
    {
        skipSpace();
        Value v = parseValue(0);
        skipSpace();
        if (pos_ != text_.size())
            throw ParseError("trailing characters after document",
                             pos_);
        return v;
    }

  private:
    [[noreturn]] void fail(const std::string &what) const
    {
        throw ParseError(what, pos_);
    }

    void skipSpace()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r')) {
            ++pos_;
        }
    }

    char peek() const
    {
        if (pos_ >= text_.size())
            throw ParseError("unexpected end of input", pos_);
        return text_[pos_];
    }

    void expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool consumeLiteral(const char *lit)
    {
        const size_t n = std::strlen(lit);
        if (text_.compare(pos_, n, lit) == 0) {
            pos_ += n;
            return true;
        }
        return false;
    }

    Value parseValue(int depth)
    {
        if (depth > kMaxDepth)
            fail("nesting too deep");
        switch (peek()) {
          case '{':
            return parseObject(depth);
          case '[':
            return parseArray(depth);
          case '"':
            return Value(parseString());
          case 't':
            if (consumeLiteral("true"))
                return Value(true);
            fail("invalid literal");
          case 'f':
            if (consumeLiteral("false"))
                return Value(false);
            fail("invalid literal");
          case 'n':
            if (consumeLiteral("null"))
                return Value();
            fail("invalid literal");
          default:
            return parseNumber();
        }
    }

    Value parseObject(int depth)
    {
        expect('{');
        Value obj = Value::object();
        skipSpace();
        if (peek() == '}') {
            ++pos_;
            return obj;
        }
        while (true) {
            skipSpace();
            const std::string key = parseString();
            skipSpace();
            expect(':');
            skipSpace();
            obj[key] = parseValue(depth + 1);
            skipSpace();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return obj;
        }
    }

    Value parseArray(int depth)
    {
        expect('[');
        Value arr = Value::array();
        skipSpace();
        if (peek() == ']') {
            ++pos_;
            return arr;
        }
        while (true) {
            skipSpace();
            arr.push(parseValue(depth + 1));
            skipSpace();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return arr;
        }
    }

    std::string parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            const char c = text_[pos_++];
            if (c == '"')
                return out;
            if (static_cast<unsigned char>(c) < 0x20)
                fail("raw control character in string");
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                fail("unterminated escape");
            const char esc = text_[pos_++];
            switch (esc) {
              case '"':  out += '"';  break;
              case '\\': out += '\\'; break;
              case '/':  out += '/';  break;
              case 'b':  out += '\b'; break;
              case 'f':  out += '\f'; break;
              case 'n':  out += '\n'; break;
              case 'r':  out += '\r'; break;
              case 't':  out += '\t'; break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code += static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code += static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code += static_cast<unsigned>(h - 'A' + 10);
                    else
                        fail("bad hex digit in \\u escape");
                }
                // Encode the code point as UTF-8 (surrogate pairs in
                // the input are kept as two 3-byte sequences — the
                // writer never produces them, so round trips hold).
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else if (code < 0x800) {
                    out += static_cast<char>(0xC0 | (code >> 6));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                } else {
                    out += static_cast<char>(0xE0 | (code >> 12));
                    out += static_cast<char>(0x80 |
                                             ((code >> 6) & 0x3F));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                }
                break;
              }
              default:
                fail("unknown escape");
            }
        }
    }

    Value parseNumber()
    {
        const size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        auto digits = [&]() {
            size_t n = 0;
            while (pos_ < text_.size() &&
                   std::isdigit(static_cast<unsigned char>(
                       text_[pos_]))) {
                ++pos_;
                ++n;
            }
            return n;
        };
        if (digits() == 0)
            fail("invalid number");
        const size_t int_end = pos_;
        if (pos_ < text_.size() && text_[pos_] == '.') {
            ++pos_;
            if (digits() == 0)
                fail("digits required after decimal point");
        }
        if (pos_ < text_.size() &&
            (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < text_.size() &&
                (text_[pos_] == '+' || text_[pos_] == '-')) {
                ++pos_;
            }
            if (digits() == 0)
                fail("digits required in exponent");
        }
        // An integer literal that fits int64 stays exact.
        int64_t exact = 0;
        const char *first = text_.data() + start;
        if (pos_ == int_end &&
            std::from_chars(first, text_.data() + pos_, exact).ec ==
                std::errc()) {
            return Value(exact);
        }
        return Value(std::strtod(first, nullptr));
    }

    static constexpr int kMaxDepth = 128;

    const std::string &text_;
    size_t pos_ = 0;
};

} // namespace

Value
parse(const std::string &text)
{
    return Parser(text).parseDocument();
}

} // namespace json
} // namespace pipelayer
