#include "common/json.hh"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "common/logging.hh"

namespace pipelayer {
namespace json {

namespace {

/** Member slots an object() reserves on its first insert: a whole
 *  completion record, the largest object built per request. */
constexpr size_t kFirstMembers = 8;

} // namespace

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
    if (kind_ == Kind::Null) {
        kind_ = Kind::Object; // grows from one slot
    } else {
        PL_ASSERT(kind_ == Kind::Object,
                  "operator[] on a non-object JSON value (key '%s')",
                  key.c_str());
        if (members_.capacity() == 0)
            members_.reserve(kFirstMembers);
    }
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

// ---- Writer -------------------------------------------------------

namespace {

/** write() hands its buffer to the stream each time it holds this
 *  many bytes, so no document is ever held whole. */
constexpr size_t kFlushBytes = 64 * 1024;

/**
 * Append @p s as a quoted RFC 8259 string literal.  Each run of bytes
 * that needs no escape goes in with one append; UTF-8 bytes (0x80 and
 * up) pass through unmodified.
 */
void
appendEscaped(std::string &out, const std::string &s)
{
    static constexpr char kHex[] = "0123456789abcdef";
    out += '"';
    const char *run = s.data();
    const char *const end = s.data() + s.size();
    for (const char *p = run; p != end; ++p) {
        const auto c = static_cast<unsigned char>(*p);
        if (c >= 0x20 && c != '"' && c != '\\')
            continue;
        out.append(run, static_cast<size_t>(p - run));
        run = p + 1;
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
          default: {
            const char u[] = {'\\', 'u', '0', '0', kHex[c >> 4],
                              kHex[c & 0xF]};
            out.append(u, sizeof(u));
          }
        }
    }
    out.append(run, static_cast<size_t>(end - run));
    out += '"';
}

/** Append the decimal digits of @p v. */
void
appendInt(std::string &out, int64_t v)
{
    char buf[24];
    const char *end = std::to_chars(buf, buf + sizeof(buf), v).ptr;
    out.append(buf, static_cast<size_t>(end - buf));
}

/**
 * Append the text of a finite double.  Integers (the common case:
 * cycle counts, op counts) below 1e15 in magnitude print like %lld,
 * without an exponent or trailing ".0", so goldens stay readable;
 * any other value prints as the first of %.15g, %.16g and %.17g that
 * reads back as @p v.  std::to_chars and std::from_chars are defined
 * as printf and strtod in the C locale, so the bytes are those.
 */
void
appendNumber(std::string &out, double v)
{
    PL_ASSERT(std::isfinite(v),
              "JSON cannot represent non-finite number");
    if (v == std::floor(v) && std::fabs(v) < 1e15) {
        appendInt(out, static_cast<int64_t>(v));
        return;
    }
    char buf[32];
    char *end = buf;
    for (int precision = 15; precision <= 17; ++precision) {
        end = std::to_chars(buf, buf + sizeof(buf), v,
                            std::chars_format::general, precision)
                  .ptr;
        double back = 0.0;
        std::from_chars(buf, end, back);
        if (back == v)
            break;
    }
    out.append(buf, static_cast<size_t>(end - buf));
}

/** A newline and @p indent spaces per level, when pretty-printing. */
void
appendNewline(std::string &out, int indent, int depth)
{
    if (indent < 0)
        return;
    out += '\n';
    out.append(static_cast<size_t>(indent) * static_cast<size_t>(depth),
               ' ');
}

/** Hand a full buffer to @p sink (nullptr: dump(), keep it all). */
void
flushIfFull(std::string &out, std::ostream *sink)
{
    if (sink != nullptr && out.size() >= kFlushBytes) {
        sink->write(out.data(), static_cast<std::streamsize>(out.size()));
        out.clear();
    }
}

} // namespace

std::string
Value::escape(const std::string &s)
{
    std::string out;
    appendEscaped(out, s);
    return out;
}

std::string
Value::formatNumber(double v)
{
    std::string out;
    appendNumber(out, v);
    return out;
}

void
Value::writeIndented(std::string &out, int indent, int depth,
                     std::ostream *sink) const
{
    switch (kind_) {
      case Kind::Null:
        out += "null";
        break;
      case Kind::Bool:
        out += bool_ ? "true" : "false";
        break;
      case Kind::Number:
        if (exact_)
            appendInt(out, int_);
        else
            appendNumber(out, number_);
        break;
      case Kind::String:
        appendEscaped(out, string_);
        break;
      case Kind::Array:
        if (elements_.empty()) {
            out += "[]";
            break;
        }
        out += '[';
        for (size_t i = 0; i < elements_.size(); ++i) {
            if (i > 0)
                out += ',';
            appendNewline(out, indent, depth + 1);
            elements_[i].writeIndented(out, indent, depth + 1, sink);
            flushIfFull(out, sink);
        }
        appendNewline(out, indent, depth);
        out += ']';
        break;
      case Kind::Object:
        if (members_.empty()) {
            out += "{}";
            break;
        }
        out += '{';
        for (size_t i = 0; i < members_.size(); ++i) {
            if (i > 0)
                out += ',';
            appendNewline(out, indent, depth + 1);
            appendEscaped(out, members_[i].first);
            out += indent < 0 ? ":" : ": ";
            members_[i].second.writeIndented(out, indent, depth + 1, sink);
            flushIfFull(out, sink);
        }
        appendNewline(out, indent, depth);
        out += '}';
        break;
    }
}

void
Value::write(std::ostream &os, int indent) const
{
    std::string out;
    writeIndented(out, indent, 0, &os);
    os.write(out.data(), static_cast<std::streamsize>(out.size()));
}

std::string
Value::dump(int indent) const
{
    std::string out;
    out.reserve(256); // a completion record in one allocation
    writeIndented(out, indent, 0, nullptr);
    return out;
}

// ---- Parser -------------------------------------------------------

/**
 * Recursive-descent parser over one in-memory document.  A friend of
 * Value: it appends object members directly, having checked that
 * each key is new (a repeated key is a ParseError).
 */
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
        skipSpace();
        Value obj = Value::object();
        if (peek() == '}') {
            ++pos_;
            return obj;
        }
        // A top-level object is a whole record (an NDJSON line) and
        // reserves its slots as object() does; a nested one grows as
        // it fills, so a large parsed document holds no spare slots.
        auto &members = obj.members_;
        if (depth == 0)
            members.reserve(kFirstMembers);
        while (true) {
            skipSpace();
            const size_t key_at = pos_;
            std::string key = parseString();
            // Up to kScanMembers members each new key is compared with
            // the earlier ones; a larger object sorts its keys at '}'.
            if (members.size() < kScanMembers) {
                for (const auto &member : members) {
                    if (member.first == key)
                        throw ParseError(repeatedKey(key), key_at);
                }
            }
            skipSpace();
            expect(':');
            skipSpace();
            members.emplace_back(std::move(key), parseValue(depth + 1));
            skipSpace();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            const size_t close_at = pos_;
            expect('}');
            if (members.size() > kScanMembers)
                checkKeysUnique(members, close_at);
            return obj;
        }
    }

    static std::string repeatedKey(const std::string &key)
    {
        return "repeated key '" + key + "'";
    }

    /** ParseError at @p close_at when two of @p members share a key,
     *  found by sorting pointers to the keys once. */
    static void checkKeysUnique(
        const std::vector<std::pair<std::string, Value>> &members,
        size_t close_at)
    {
        std::vector<const std::string *> keys;
        keys.reserve(members.size());
        for (const auto &member : members)
            keys.push_back(&member.first);
        std::sort(keys.begin(), keys.end(),
                  [](const std::string *a, const std::string *b) {
                      return *a < *b;
                  });
        const auto repeat = std::adjacent_find(
            keys.begin(), keys.end(),
            [](const std::string *a, const std::string *b) {
                return *a == *b;
            });
        if (repeat != keys.end())
            throw ParseError(repeatedKey(**repeat), close_at);
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
        // A literal past the double range reads as ±inf, which no
        // JSON text can carry: reject it where it starts.
        const double value = std::strtod(first, nullptr);
        if (!std::isfinite(value))
            throw ParseError("number out of range", start);
        return Value(value);
    }

    static constexpr int kMaxDepth = 128;
    /** Members whose keys are checked one by one as they arrive. */
    static constexpr size_t kScanMembers = 16;

    const std::string &text_;
    size_t pos_ = 0;
};

Value
parse(const std::string &text)
{
    return Parser(text).parseDocument();
}

} // namespace json
} // namespace pipelayer
