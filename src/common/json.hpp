/**
 * @file
 * Minimal JSON document model shared across the tree.
 *
 * The driver emits machine-readable stats, the report pipeline parses
 * the paper reference, and the test suite round-trips both; every side
 * shares this self-contained value type so none of them needs an
 * external dependency. Living in `common/` keeps JSON below every
 * layer that serializes (driver, report) in the include DAG
 * (`tools/lint/layers.json`). The subset is exactly what the stats
 * schema uses: objects with ordered keys, arrays, strings, doubles,
 * booleans, and null. Numbers are emitted with enough digits to
 * round-trip an IEEE double.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace capstan::common {

/** Thrown by JsonValue::parse on malformed input. */
class JsonParseError : public std::runtime_error
{
  public:
    explicit JsonParseError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/**
 * Parse limits for untrusted input. The parser is recursive-descent,
 * so nesting depth is bounded to keep adversarial documents (e.g.
 * 100k open brackets over the capstan-serve socket) from overflowing
 * the stack, and total size is bounded so one request cannot balloon
 * the daemon. Violations throw JsonParseError with a structured
 * "exceeds" message, the same error class as any other malformed
 * document. The defaults cover every trusted file the repo parses
 * (stats documents nest < 10 deep) with two orders of margin;
 * `capstan-serve` passes much stricter wire limits
 * (src/serve/server.hpp).
 */
struct JsonLimits
{
    /** Maximum document size in bytes; 0 = unlimited. */
    std::size_t max_bytes = 0;
    /** Maximum object/array nesting depth. */
    int max_depth = 192;
};

/** A JSON document node. */
class JsonValue
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    JsonValue() = default;
    JsonValue(bool b) : kind_(Kind::Bool), bool_(b) {}
    JsonValue(double n) : kind_(Kind::Number), num_(n) {}
    JsonValue(std::int64_t n)
        : kind_(Kind::Number), num_(static_cast<double>(n))
    {
    }
    JsonValue(std::uint64_t n)
        : kind_(Kind::Number), num_(static_cast<double>(n))
    {
    }
    JsonValue(int n) : kind_(Kind::Number), num_(n) {}
    JsonValue(const char *s) : kind_(Kind::String), str_(s) {}
    JsonValue(std::string s) : kind_(Kind::String), str_(std::move(s)) {}

    static JsonValue object() { return JsonValue(Kind::Object); }
    static JsonValue array() { return JsonValue(Kind::Array); }

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isObject() const { return kind_ == Kind::Object; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isBool() const { return kind_ == Kind::Bool; }

    double asNumber() const;
    bool asBool() const;
    const std::string &asString() const;

    /** Object access: set (insertion-ordered) and get. */
    JsonValue &set(const std::string &key, JsonValue v);
    bool contains(const std::string &key) const;
    /** Throws std::out_of_range when @p key is absent. */
    const JsonValue &at(const std::string &key) const;
    const std::vector<std::pair<std::string, JsonValue>> &
    members() const
    {
        return members_;
    }

    /** Array access. */
    JsonValue &push(JsonValue v);
    std::size_t size() const { return items_.size(); }
    const std::vector<JsonValue> &items() const { return items_; }

    /** Serialize; @p indent > 0 pretty-prints with that step. */
    std::string dump(int indent = 0) const;

    /** Parse a complete document; throws JsonParseError. */
    static JsonValue parse(const std::string &text);

    /** Parse under explicit limits (untrusted wire input). */
    static JsonValue parse(const std::string &text,
                           const JsonLimits &limits);

  private:
    explicit JsonValue(Kind k) : kind_(k) {}

    void dumpTo(std::string &out, int indent, int depth) const;

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double num_ = 0;
    std::string str_;
    std::vector<JsonValue> items_;
    std::vector<std::pair<std::string, JsonValue>> members_;
};

} // namespace capstan::common

