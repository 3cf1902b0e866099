/**
 * @file
 * Content-addressed cell identity for the sweep fabric (DESIGN.md
 * §13). A cell's digest is a 128-bit hash over the canonical
 * serialization (src/sim/config_serial) of everything that determines
 * its RunResult — the post-tweak SystemConfig and post-scale
 * WorkloadProfile — salted with a schema version. Two cells with the
 * same digest are the same simulation; bumping the schema version
 * invalidates every previously cached entry at the key level (old
 * entries simply stop being addressed).
 */

#ifndef EQX_SWEEP_DIGEST_HH
#define EQX_SWEEP_DIGEST_HH

#include <cstdint>
#include <string>

#include "sim/experiment.hh"

namespace eqx {

/**
 * Version of the (serialization schema, record schema) pair. Bump it
 * whenever the canonical serialization changes meaning (a knob is
 * added/renamed) or the cache record format changes incompatibly —
 * every old cache entry then misses instead of aliasing.
 */
constexpr int kSweepSchemaVersion = 3;

/** A 128-bit content digest, rendered as 32 lowercase hex chars. */
struct CellDigest
{
    std::uint64_t hi = 0;
    std::uint64_t lo = 0;

    std::string hex() const;
    /** Parse 32 hex chars; returns false on malformed input. */
    static bool fromHex(const std::string &s, CellDigest &out);

    bool operator==(const CellDigest &o) const
    {
        return hi == o.hi && lo == o.lo;
    }
    bool operator!=(const CellDigest &o) const { return !(*this == o); }
};

/**
 * Hash a canonical blob (KvBlob::canonical()) under the given schema
 * salt. Exposed separately from cellDigest so tests can probe salt
 * sensitivity directly.
 */
CellDigest digestBlob(const std::string &canonical_blob,
                      int schema_version = kSweepSchemaVersion);

/**
 * The digest of one (scheme, benchmark) cell of @p runner's matrix:
 * prepare the cell exactly as runOne would, serialize it canonically,
 * hash. Non-const because preparing an EquiNox cell may lazily build
 * the shared design (single-threaded callers only; runMatrix-spawned
 * workers are safe because the design is prebuilt).
 */
CellDigest cellDigest(ExperimentRunner &runner, const std::string &scheme,
                      const WorkloadProfile &profile,
                      int schema_version = kSweepSchemaVersion);

} // namespace eqx

#endif // EQX_SWEEP_DIGEST_HH
