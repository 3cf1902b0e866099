/**
 * @file
 * The on-disk content-addressed cell store (DESIGN.md §13). One
 * record file per digest under `<dir>/<hh>/<digest>.json` (hh = the
 * first two hex chars, a fan-out that keeps directories small at
 * design-space scale). Writes go through a temp file + atomic rename,
 * so concurrent writers — pool workers, parallel shards on a shared
 * filesystem — can race on the same digest and every
 * reader still sees a complete record. Unparseable or mis-addressed
 * entries count as corrupt and behave as misses; a schema-version
 * bump changes every digest, so stale-schema entries are simply never
 * addressed again.
 */

#ifndef EQX_SWEEP_CELL_CACHE_HH
#define EQX_SWEEP_CELL_CACHE_HH

#include <atomic>
#include <cstdint>
#include <string>

#include "common/stats.hh"
#include "sweep/record_io.hh"

namespace eqx {

class CellCache
{
  public:
    /** Opens (creating if needed) the cache root; fatal on failure. */
    explicit CellCache(std::string dir);

    CellCache(const CellCache &) = delete;
    CellCache &operator=(const CellCache &) = delete;

    /**
     * Look a digest up. On a hit the stored CellResult is restored
     * into @p out (exact round-trip: re-rendering it reproduces the
     * cached record's bytes). Thread-safe; a corrupt entry counts in
     * corrupt() and reports a miss.
     */
    bool lookup(const CellDigest &digest, CellResult &out);

    /**
     * Store one finished cell under its digest. Failed cells are
     * refused (a retry next run may succeed; caching the failure
     * would pin it). Overwrites any existing entry atomically.
     */
    void store(const CellDigest &digest, const CellResult &cell);

    // exportStats-style counters (this process's view).
    std::uint64_t hits() const { return hits_.load(); }
    std::uint64_t misses() const { return misses_.load(); }
    std::uint64_t corrupt() const { return corrupt_.load(); }
    std::uint64_t stores() const { return stores_.load(); }

    /** Append the counters to @p g under "cache." keys. */
    void exportStats(StatGroup &g) const;

    const std::string &dir() const { return dir_; }
    /** The record path a digest addresses (exposed for tests). */
    std::string pathFor(const CellDigest &digest) const;

  private:
    std::string dir_;
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> corrupt_{0};
    std::atomic<std::uint64_t> stores_{0};
    std::atomic<std::uint64_t> tmpSeq_{0};
};

} // namespace eqx

#endif // EQX_SWEEP_CELL_CACHE_HH
