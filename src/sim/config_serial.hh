/**
 * @file
 * Stable, canonical serialization of everything that determines one
 * simulation cell's result: the (post-tweak) SystemConfig and the
 * (post-scale) WorkloadProfile. The src/sweep content-addressed cache
 * hashes this serialization into the cell's digest, so two invariants
 * matter here:
 *
 *  - *Stability*: the canonical form is independent of field
 *    insertion order (pairs are sorted by key before rendering) and
 *    of platform formatting quirks (doubles render with
 *    to_chars(general, 17) — the C-locale %.17g bytes, immune to
 *    LC_NUMERIC — the round-trip-exact form).
 *  - *Completeness*: every knob that can change a RunResult must be
 *    serialized; a missed knob silently aliases distinct cells onto
 *    one cache entry. The size guard below trips when SystemConfig
 *    grows, and tests/sweep/test_digest.cc sweeps every field.
 *
 * Deliberately excluded: `cancel` (affects only whether a run fails,
 * and failed cells are never cached) and `verbose`-style
 * observability toggles that live outside SystemConfig.
 */

#ifndef EQX_SIM_CONFIG_SERIAL_HH
#define EQX_SIM_CONFIG_SERIAL_HH

#include <string>
#include <utility>
#include <vector>

#include "sim/scheme.hh"
#include "workloads/profiles.hh"

namespace eqx {

/**
 * An accumulating key/value blob with a canonical (sorted) rendering.
 * Keys must be unique; values are rendered to strings on insertion.
 */
class KvBlob
{
  public:
    void add(const std::string &key, const std::string &v);
    void add(const std::string &key, const char *v);
    void add(const std::string &key, double v);
    void add(const std::string &key, std::uint64_t v);
    void add(const std::string &key, std::int64_t v);
    void add(const std::string &key, int v);
    void add(const std::string &key, bool v);

    const std::vector<std::pair<std::string, std::string>> &pairs() const
    {
        return kv_;
    }

    /**
     * The canonical form: pairs sorted by key, rendered one per line
     * as `key=value\n`. Two blobs with the same pairs added in any
     * order render identically.
     */
    std::string canonical() const;

  private:
    std::vector<std::pair<std::string, std::string>> kv_;
};

/**
 * Serialize every result-determining field of @p sc under "sc." keys.
 * A pinned `preDesign` is serialized by *content* (placement + EIR
 * groups), not by pointer, so a hand-pinned design and the equivalent
 * in-system design flow hash identically.
 */
void serializeSystemConfig(const SystemConfig &sc, KvBlob &out);

/**
 * Serialize a pinned design under "pre." keys by the facts the
 * simulator consumes: geometry, CB placement and the per-CB EIR
 * groups. Everything else in EquiNoxDesign (plan, RDL report,
 * evaluation) derives from those deterministically through the
 * design flow.
 */
void serializeDesign(const EquiNoxDesign &d, KvBlob &out);

/** Serialize every field of @p wp under "wp." keys. */
void serializeWorkloadProfile(const WorkloadProfile &wp, KvBlob &out);

} // namespace eqx

#endif // EQX_SIM_CONFIG_SERIAL_HH
