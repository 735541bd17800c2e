#ifndef MULTIGRAIN_COMMON_JSON_H_
#define MULTIGRAIN_COMMON_JSON_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

/// Minimal JSON support shared by the trace/profiler exporters and their
/// tests: a streaming writer (no intermediate tree, handles the large
/// per-kernel arrays cheaply) and a small validating parser used to check
/// emitted artifacts and to read them back.
///
/// The writer always produces strictly valid JSON: non-finite doubles are
/// emitted as null (arithmetic intensity of a kernel with no DRAM traffic
/// is +inf, which JSON cannot represent).
namespace multigrain {

/// Escapes `s` for embedding inside a JSON string literal (no quotes).
std::string json_escape(const std::string &s);

/// Streaming JSON writer with automatic comma/nesting management.
/// Usage: begin_object(); key("a"); value(1.0); end_object();
/// Misuse (value without key inside an object, unbalanced end) trips
/// MG_CHECK.
class JsonWriter {
  public:
    explicit JsonWriter(std::ostream &os) : os_(os) {}
    ~JsonWriter();

    JsonWriter(const JsonWriter &) = delete;
    JsonWriter &operator=(const JsonWriter &) = delete;

    void begin_object();
    void end_object();
    void begin_array();
    void end_array();
    void key(const std::string &k);
    void value(double v);
    void value(std::int64_t v);
    void value(int v) { value(static_cast<std::int64_t>(v)); }
    void value(bool v);
    void value(const std::string &v);
    void value(const char *v) { value(std::string(v)); }

    /// key + value in one call, for terse exporters.
    template <typename T>
    void field(const std::string &k, T v)
    {
        key(k);
        value(v);
    }

  private:
    enum class Scope { kObject, kArray };
    void separator();

    std::ostream &os_;
    std::vector<Scope> stack_;
    std::vector<bool> first_;
    bool pending_key_ = false;
};

/// Parsed JSON value. Object member order is preserved (vector of pairs),
/// so round-trip tests can pin field ordering if they care.
struct JsonValue {
    enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

    Type type = Type::kNull;
    bool boolean = false;
    double number = 0;
    std::string string;
    std::vector<JsonValue> array;
    std::vector<std::pair<std::string, JsonValue>> object;

    bool is_null() const { return type == Type::kNull; }
    bool is_object() const { return type == Type::kObject; }
    bool is_array() const { return type == Type::kArray; }

    /// Object member lookup; nullptr when absent or not an object.
    const JsonValue *find(const std::string &k) const;
    /// Object member access; MG_CHECKs presence.
    const JsonValue &at(const std::string &k) const;
    /// Typed accessors; MG_CHECK on type mismatch.
    double as_number() const;
    const std::string &as_string() const;
    bool as_bool() const;
};

/// Parses `text` as one JSON document (trailing whitespace allowed).
/// Throws Error on malformed input — this is the validation the mgprof
/// smoke test and the trace tests rely on.
JsonValue json_parse(const std::string &text);

}  // namespace multigrain

#endif  // MULTIGRAIN_COMMON_JSON_H_
