/**
 * @file
 * Strict flat-JSON value model and parser, shared by every on-disk
 * line format in the tree: the sweep cache records
 * (src/sweep/record_io) and the traffic trace capture/replay files
 * (src/traffic/trace_io).
 *
 * The parser handles exactly what the JsonObject builder (jsonl.hh)
 * emits: one flat object of string / number / bool / null values —
 * no nesting, no arrays. Number text is kept raw so integer fields
 * round-trip without passing through a double, and all conversions
 * are locale-independent (from_chars, never strtod), which is what
 * lets re-rendering a parsed line reproduce the original bytes.
 */

#ifndef EQX_RUNNER_FLAT_JSON_HH
#define EQX_RUNNER_FLAT_JSON_HH

#include <cstdint>
#include <map>
#include <string>

namespace eqx {

/** One parsed flat-JSON value. Number text is kept raw so integer
 *  fields round-trip without passing through a double. */
struct JsonValue
{
    enum class Kind : std::uint8_t
    {
        String,
        Number,
        Bool,
        Null,
    };
    Kind kind = Kind::Null;
    std::string text; ///< unescaped string, or raw number token
    bool boolean = false;

    double asDouble() const;
    std::uint64_t asU64() const;
    std::int64_t asI64() const;
    bool asBool() const { return kind == Kind::Bool && boolean; }
};

/** Field map of one flat JSON object, in key order of appearance. */
using JsonFields = std::map<std::string, JsonValue>;

/**
 * Parse one flat JSON object (no nesting, no arrays). Returns false
 * on any syntax error or on nested values. Duplicate keys keep the
 * last occurrence.
 */
bool parseFlatJson(const std::string &line, JsonFields &out);

} // namespace eqx

#endif // EQX_RUNNER_FLAT_JSON_HH
