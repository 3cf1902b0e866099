/**
 * @file
 * Frozen reference outputs for simulator tests. A Golden pins one run
 * as a 64-bit FNV-1a digest over its full flattened output (every
 * exported statistic, or a whole JSONL cell record) plus a few
 * headline scalars kept in clear, so a mismatch says at a glance
 * whether timing, traffic volume or allocation behaviour moved.
 */

#ifndef EQX_TESTS_GOLDEN_HH
#define EQX_TESTS_GOLDEN_HH

#include <charconv>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>

#include "common/stats.hh"
#include "sim/experiment.hh"
#include "sim/system.hh"

namespace eqx::golden {

struct Golden
{
    std::uint64_t digest = 0;
    std::uint64_t cycles = 0;     ///< core cycles simulated
    std::uint64_t flits = 0;      ///< sum of per-router forwarded flits
    std::uint64_t packets = 0;    ///< delivered packets, both classes
    std::uint64_t vaRequests = 0; ///< sum of per-router VA requests

    bool operator==(const Golden &) const = default;
};

/** Printed as a brace initializer, ready to paste into a test. */
inline std::ostream &
operator<<(std::ostream &os, const Golden &g)
{
    char hex[17];
    auto r = std::to_chars(hex, hex + sizeof(hex) - 1, g.digest, 16);
    *r.ptr = '\0';
    return os << "{0x" << hex << "ULL, " << g.cycles << ", " << g.flits
              << ", " << g.packets << ", " << g.vaRequests << "}";
}

inline std::uint64_t
fnv1a(std::string_view s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** One "key=value" line per statistic, values in shortest round-trip
 *  form (locale-independent). */
inline std::string
flatten(const StatGroup &sg)
{
    std::string out;
    char buf[32];
    for (const auto &[k, v] : sg.all()) {
        auto r = std::to_chars(buf, buf + sizeof(buf), v);
        out += k;
        out += '=';
        out.append(buf, r.ptr);
        out += '\n';
    }
    return out;
}

/** Headline scalars summed over every network in a stat snapshot:
 *  "<net>.router.<id>.flits", "<net>.router.<id>.va_req" and
 *  "<net>.lat.<cls>.packets". */
inline void
headlines(const StatGroup &sg, Golden &g)
{
    auto endsWith = [](std::string_view s, std::string_view suf) {
        return s.size() >= suf.size() &&
               s.substr(s.size() - suf.size()) == suf;
    };
    for (const auto &[k, v] : sg.all()) {
        std::string_view key = k;
        auto n = static_cast<std::uint64_t>(v);
        if (endsWith(key, ".lat.req.packets") ||
            endsWith(key, ".lat.rep.packets")) {
            g.packets += n;
            continue;
        }
        auto p = key.find(".router.");
        if (p == std::string_view::npos)
            continue;
        auto q = key.find('.', p + 8);
        if (q == std::string_view::npos)
            continue;
        std::string_view field = key.substr(q + 1);
        if (field == "flits")
            g.flits += n;
        else if (field == "va_req")
            g.vaRequests += n;
    }
}

/** Golden of a network's exported statistics after @p cycles. */
inline Golden
ofStats(const StatGroup &sg, std::uint64_t cycles)
{
    Golden g;
    g.digest = fnv1a(flatten(sg));
    g.cycles = cycles;
    headlines(sg, g);
    return g;
}

/**
 * cellJsonRecord minus the "wall_ms" field — host wall-clock time is
 * the one value that legitimately differs between any two runs.
 */
inline std::string
stripWallMs(std::string json)
{
    auto pos = json.find("\"wall_ms\":");
    if (pos == std::string::npos)
        return json;
    auto end = json.find_first_of(",}", pos);
    if (end != std::string::npos && json[end] == ',')
        ++end; // swallow the trailing separator
    else if (pos > 0 && json[pos - 1] == ',')
        --pos; // last field: swallow the preceding comma instead
    json.erase(pos, end - pos);
    return json;
}

/** Golden of one sweep cell: the digest covers its whole JSONL record
 *  (metric snapshot included when collected), minus wall_ms. */
inline Golden
ofCell(const CellResult &cell)
{
    Golden g;
    g.digest = fnv1a(stripWallMs(cellJsonRecord(cell)));
    g.cycles = cell.result.cycles;
    headlines(cell.result.metrics, g);
    return g;
}

/** Golden of a bare System run, recorded as an unnamed cell. */
inline Golden
ofRun(const RunResult &r)
{
    CellResult cell;
    cell.result = r;
    return ofCell(cell);
}

} // namespace eqx::golden

#endif // EQX_TESTS_GOLDEN_HH
