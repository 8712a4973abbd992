/**
 * @file
 * Strict parsing shared by every CLI flag, VRSIM_* knob, and
 * machine-readable artifact (repro bundles, sweep journals).
 *
 * strtoull's silent-zero on garbage would e.g. turn `--roi garbage`
 * into an unlimited-budget run, or `VRSIM_JOBS=garbage` into one
 * worker per core; these helpers reject non-numeric, trailing-junk,
 * negative and overflowing values with the offending flag/variable
 * named, via fatal() so callers can map the failure onto their usual
 * FatalError handling.
 *
 * JsonValue is a deliberately small, strict JSON reader in the same
 * spirit: repro bundles and checkpoint journals must either parse
 * exactly or fail with a diagnostic naming the offending byte — a
 * half-read bundle silently replaying the wrong point would be worse
 * than no replay at all.
 */

#ifndef VRSIM_SIM_PARSE_HH
#define VRSIM_SIM_PARSE_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace vrsim
{

/**
 * Parse @p s as a non-negative integer. @p what names the flag or
 * environment variable in the diagnostic. Throws FatalError on
 * anything but a clean, in-range, non-negative value.
 */
uint64_t parseU64(const std::string &what, const char *s);

/** parseU64 restricted to the uint32_t range. */
uint32_t parseU32(const std::string &what, const char *s);

/**
 * Parse @p s as a double (strict: the whole string must be consumed).
 * Throws FatalError otherwise. strtod syntax, so "nan" and "inf"
 * parse: range-check the result with comparisons that NaN fails.
 */
double parseF64(const std::string &what, const char *s);

/**
 * Read environment variable @p name as a strict non-negative integer,
 * returning @p dflt when unset. Throws FatalError on malformed values
 * (a typo must not silently fall back to the default).
 */
uint64_t envU64(const char *name, uint64_t dflt);

/**
 * A parsed JSON document node. Strict reader: any syntax error,
 * trailing garbage, duplicate object key, or type mismatch on access
 * raises FatalError with the document name and byte offset. Numbers
 * keep their raw token so u64 values round-trip exactly (doubles go
 * through parseF64 / "%.17g" which round-trips IEEE binary64).
 */
class JsonValue
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    /** Parse a complete document. @p what names it in diagnostics. */
    static JsonValue parse(const std::string &what,
                           const std::string &text);

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }

    bool asBool() const;
    uint64_t asU64() const;          //!< strict non-negative integer
    double asF64() const;
    const std::string &asString() const;
    const std::vector<JsonValue> &asArray() const;

    /** Object member; fatal() if absent. */
    const JsonValue &at(const std::string &key) const;

    /** Object member or null if absent (optional fields). */
    const JsonValue *find(const std::string &key) const;

    /** Object keys in document order (introspection, tests). */
    const std::vector<std::string> &keys() const;

  private:
    friend class JsonParser;

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    std::string scalar_;             //!< number token or string value
    std::vector<JsonValue> array_;
    std::vector<std::string> keys_;  //!< object keys, document order
    std::map<std::string, JsonValue> object_;
    std::string what_;               //!< document name for diagnostics

    [[noreturn]] void typeError(const char *wanted) const;
};

/** Minimal JSON string escaping for writers (quotes, control chars). */
std::string jsonEscape(const std::string &s);

} // namespace vrsim

#endif // VRSIM_SIM_PARSE_HH
