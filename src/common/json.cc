#include "common/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ostream>

#include "common/error.h"

namespace multigrain {

std::string
json_escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
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
    return out;
}

JsonWriter::~JsonWriter()
{
    // Unbalanced begin/end is a programming error, but destructors must
    // not throw; exporters always close their scopes explicitly.
}

void
JsonWriter::separator()
{
    if (stack_.empty()) {
        return;
    }
    if (stack_.back() == Scope::kObject) {
        MG_CHECK(pending_key_) << "JSON value inside object without a key";
        pending_key_ = false;
        return;
    }
    if (!first_.back()) {
        os_ << ",";
    }
    first_.back() = false;
}

void
JsonWriter::begin_object()
{
    separator();
    os_ << "{";
    stack_.push_back(Scope::kObject);
    first_.push_back(true);
}

void
JsonWriter::end_object()
{
    MG_CHECK(!stack_.empty() && stack_.back() == Scope::kObject)
        << "unbalanced end_object";
    MG_CHECK(!pending_key_) << "dangling key at end_object";
    os_ << "}";
    stack_.pop_back();
    first_.pop_back();
}

void
JsonWriter::begin_array()
{
    separator();
    os_ << "[";
    stack_.push_back(Scope::kArray);
    first_.push_back(true);
}

void
JsonWriter::end_array()
{
    MG_CHECK(!stack_.empty() && stack_.back() == Scope::kArray)
        << "unbalanced end_array";
    os_ << "]";
    stack_.pop_back();
    first_.pop_back();
}

void
JsonWriter::key(const std::string &k)
{
    MG_CHECK(!stack_.empty() && stack_.back() == Scope::kObject)
        << "JSON key outside an object";
    MG_CHECK(!pending_key_) << "two keys in a row";
    if (!first_.back()) {
        os_ << ",";
    }
    first_.back() = false;
    os_ << "\"" << json_escape(k) << "\":";
    pending_key_ = true;
}

void
JsonWriter::value(double v)
{
    separator();
    if (!std::isfinite(v)) {
        os_ << "null";
        return;
    }
    char buf[32];
    // %.17g round-trips doubles exactly; trim to %g-style compactness
    // first and fall back when re-parsing would lose bits.
    std::snprintf(buf, sizeof buf, "%.12g", v);
    if (std::strtod(buf, nullptr) != v) {
        std::snprintf(buf, sizeof buf, "%.17g", v);
    }
    os_ << buf;
}

void
JsonWriter::value(std::int64_t v)
{
    separator();
    os_ << v;
}

void
JsonWriter::value(bool v)
{
    separator();
    os_ << (v ? "true" : "false");
}

void
JsonWriter::value(const std::string &v)
{
    separator();
    os_ << "\"" << json_escape(v) << "\"";
}

const JsonValue *
JsonValue::find(const std::string &k) const
{
    if (type != Type::kObject) {
        return nullptr;
    }
    for (const auto &[key, value] : object) {
        if (key == k) {
            return &value;
        }
    }
    return nullptr;
}

const JsonValue &
JsonValue::at(const std::string &k) const
{
    const JsonValue *v = find(k);
    MG_CHECK(v != nullptr) << "JSON object has no member \"" << k << "\"";
    return *v;
}

double
JsonValue::as_number() const
{
    MG_CHECK(type == Type::kNumber) << "JSON value is not a number";
    return number;
}

const std::string &
JsonValue::as_string() const
{
    MG_CHECK(type == Type::kString) << "JSON value is not a string";
    return string;
}

bool
JsonValue::as_bool() const
{
    MG_CHECK(type == Type::kBool) << "JSON value is not a bool";
    return boolean;
}

namespace {

/// Recursive-descent parser over a raw character range.
class Parser {
  public:
    Parser(const char *p, const char *end) : p_(p), end_(end) {}

    JsonValue parse_document()
    {
        JsonValue v = parse_value();
        skip_ws();
        MG_CHECK(p_ == end_) << "trailing garbage after JSON document";
        return v;
    }

  private:
    void skip_ws()
    {
        while (p_ != end_ && (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' ||
                              *p_ == '\r')) {
            ++p_;
        }
    }

    char peek()
    {
        skip_ws();
        MG_CHECK(p_ != end_) << "unexpected end of JSON input";
        return *p_;
    }

    void expect(char c)
    {
        MG_CHECK(peek() == c)
            << "expected '" << c << "' in JSON, got '" << *p_ << "'";
        ++p_;
    }

    bool consume_literal(const char *lit)
    {
        const char *q = p_;
        for (const char *l = lit; *l; ++l, ++q) {
            if (q == end_ || *q != *l) {
                return false;
            }
        }
        p_ = q;
        return true;
    }

    std::string parse_string_body()
    {
        expect('"');
        std::string out;
        while (true) {
            MG_CHECK(p_ != end_) << "unterminated JSON string";
            const char c = *p_++;
            if (c == '"') {
                return out;
            }
            if (c != '\\') {
                MG_CHECK(static_cast<unsigned char>(c) >= 0x20)
                    << "raw control character in JSON string";
                out += c;
                continue;
            }
            MG_CHECK(p_ != end_) << "unterminated escape in JSON string";
            const char e = *p_++;
            switch (e) {
              case '"':
                out += '"';
                break;
              case '\\':
                out += '\\';
                break;
              case '/':
                out += '/';
                break;
              case 'b':
                out += '\b';
                break;
              case 'f':
                out += '\f';
                break;
              case 'n':
                out += '\n';
                break;
              case 'r':
                out += '\r';
                break;
              case 't':
                out += '\t';
                break;
              case 'u': {
                MG_CHECK(end_ - p_ >= 4) << "truncated \\u escape";
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = *p_++;
                    code <<= 4;
                    if (h >= '0' && h <= '9') {
                        code += static_cast<unsigned>(h - '0');
                    } else if (h >= 'a' && h <= 'f') {
                        code += static_cast<unsigned>(h - 'a' + 10);
                    } else if (h >= 'A' && h <= 'F') {
                        code += static_cast<unsigned>(h - 'A' + 10);
                    } else {
                        MG_CHECK(false) << "bad hex digit in \\u escape";
                    }
                }
                // UTF-8 encode (surrogate pairs unsupported — the
                // writer never emits them).
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else if (code < 0x800) {
                    out += static_cast<char>(0xC0 | (code >> 6));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                } else {
                    out += static_cast<char>(0xE0 | (code >> 12));
                    out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                }
                break;
              }
              default:
                MG_CHECK(false) << "bad escape '\\" << e << "' in JSON";
            }
        }
    }

    JsonValue parse_value()
    {
        const char c = peek();
        JsonValue v;
        if (c == '{') {
            ++p_;
            v.type = JsonValue::Type::kObject;
            if (peek() == '}') {
                ++p_;
                return v;
            }
            while (true) {
                skip_ws();
                std::string key = parse_string_body();
                expect(':');
                v.object.emplace_back(std::move(key), parse_value());
                const char sep = peek();
                ++p_;
                if (sep == '}') {
                    return v;
                }
                MG_CHECK(sep == ',')
                    << "expected ',' or '}' in JSON object";
            }
        }
        if (c == '[') {
            ++p_;
            v.type = JsonValue::Type::kArray;
            if (peek() == ']') {
                ++p_;
                return v;
            }
            while (true) {
                v.array.push_back(parse_value());
                const char sep = peek();
                ++p_;
                if (sep == ']') {
                    return v;
                }
                MG_CHECK(sep == ',')
                    << "expected ',' or ']' in JSON array";
            }
        }
        if (c == '"') {
            v.type = JsonValue::Type::kString;
            v.string = parse_string_body();
            return v;
        }
        skip_ws();
        if (consume_literal("null")) {
            v.type = JsonValue::Type::kNull;
            return v;
        }
        if (consume_literal("true")) {
            v.type = JsonValue::Type::kBool;
            v.boolean = true;
            return v;
        }
        if (consume_literal("false")) {
            v.type = JsonValue::Type::kBool;
            v.boolean = false;
            return v;
        }
        // Number.
        const char *start = p_;
        if (p_ != end_ && *p_ == '-') {
            ++p_;
        }
        while (p_ != end_ &&
               (std::isdigit(static_cast<unsigned char>(*p_)) ||
                *p_ == '.' || *p_ == 'e' || *p_ == 'E' || *p_ == '+' ||
                *p_ == '-')) {
            ++p_;
        }
        MG_CHECK(p_ != start) << "invalid JSON value";
        const std::string text(start, p_);
        char *parse_end = nullptr;
        v.type = JsonValue::Type::kNumber;
        v.number = std::strtod(text.c_str(), &parse_end);
        MG_CHECK(parse_end == text.c_str() + text.size())
            << "malformed JSON number \"" << text << "\"";
        return v;
    }

    const char *p_;
    const char *end_;
};

}  // namespace

JsonValue
json_parse(const std::string &text)
{
    Parser parser(text.data(), text.data() + text.size());
    return parser.parse_document();
}

}  // namespace multigrain
