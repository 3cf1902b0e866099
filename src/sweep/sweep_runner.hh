/**
 * @file
 * The sweep fabric front door (DESIGN.md §13): runs an experiment
 * matrix through the content-addressed cell cache, the write-ahead
 * journal, and the deterministic shard filter, by wiring the three
 * ExperimentConfig sweep hooks (cellFilter / cellLookup / cellDone).
 *
 * Lookup order per cell: journal (this shard's own recovered work)
 * first, then the shared cache; a miss simulates on the JobPool as
 * usual. Every successful cell is journaled and stored back, so a
 * resumed or repeated sweep re-simulates nothing that already ran —
 * the second identical sweep is 100% cache-served.
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
 *  (no cache, no journal, one shard) reduce runSweep to runMatrix. */
struct SweepOptions
{
    /** Cell cache root ("" = no cache). */
    std::string cacheDir;
    /** This shard's journal path ("" = no journal). */
    std::string journalPath;
    /** Recover an existing journal instead of truncating it. */
    bool resume = false;
    /** This process owns cells with shard == shardIndex of shardCount. */
    int shardIndex = 0;
    int shardCount = 1;

    bool enabled() const
    {
        return !cacheDir.empty() || !journalPath.empty() || shardCount > 1;
    }
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
    std::size_t journalHits = 0; ///< served from the recovered journal
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
