/**
 * @file
 * The sweep fabric front door (DESIGN.md §13): runs an experiment
 * matrix through the content-addressed cell cache and the
 * deterministic shard filter, by wiring the three ExperimentConfig
 * sweep hooks (cellFilter / cellLookup / cellDone).
 *
 * The cache is the one store of finished cells: a hit is served, a
 * miss simulates on the JobPool as usual, and every successful cell
 * is stored back. So a rerun after a crash simulates only the cells
 * the first run did not store, the second identical sweep is 100%
 * cache-served, and an unsharded run against the cache the shards
 * stored into combines them.
 */

#ifndef EQX_SWEEP_SWEEP_RUNNER_HH
#define EQX_SWEEP_SWEEP_RUNNER_HH

#include <cstddef>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "sim/experiment.hh"
#include "sweep/digest.hh"

namespace eqx {

/** How one sweep run uses the fabric. Default-constructed options
 *  (no cache, one shard) reduce runSweep to runMatrix. */
struct SweepOptions
{
    /** Cell cache root ("" = no cache). */
    std::string cacheDir;
    /** This process owns cells with shard == shardIndex of shardCount. */
    int shardIndex = 0;
    int shardCount = 1;

    bool enabled() const { return !cacheDir.empty() || shardCount > 1; }
};

/** One cell's identity, as listed by the digest= dry run. */
struct CellId
{
    std::size_t index = 0; ///< canonical matrix index
    std::string scheme;    ///< canonical registry name
    std::string benchmark;
    CellDigest digest;
    int shard = 0; ///< owner under the given shard count
};

/** Everything a fabric-routed sweep produced. */
struct SweepOutcome
{
    /** This shard's cells, canonical order (== runMatrix output). */
    std::vector<CellResult> cells;

    std::size_t totalCells = 0;  ///< unsharded matrix size
    std::size_t shardCells = 0;  ///< cells this shard owned
    std::size_t cacheHits = 0;   ///< served from the cell cache
    std::size_t simulated = 0;   ///< actually run (includes failed)
    std::size_t failed = 0;      ///< permanently failed cells
    std::size_t stored = 0;      ///< new cache entries written

    /** cache.* and sweep.* counters, exportStats style. */
    StatGroup stats;
};

/**
 * Run @p config's matrix through the fabric. Digests are computed up
 * front (cheap: config serialization, no simulation), then the matrix
 * runs with lookups short-circuiting the pool. The fabric installs
 * the three sweep hooks itself, so @p config must leave them unset.
 */
SweepOutcome runSweep(const ExperimentConfig &config,
                      const SweepOptions &opt);

/**
 * The digest= dry run: every cell's identity, canonical order,
 * nothing simulated. @p shard_count annotates each cell with its
 * owning shard (1 = unsharded, every cell shard 0).
 */
std::vector<CellId> listCellDigests(const ExperimentConfig &config,
                                    int shard_count = 1);

} // namespace eqx

#endif // EQX_SWEEP_SWEEP_RUNNER_HH
