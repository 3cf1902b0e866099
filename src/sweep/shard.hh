/**
 * @file
 * Deterministic matrix sharding (DESIGN.md §13).
 *
 * A cell's shard is a pure function of (sweep seed, canonical scheme
 * name, benchmark name) through deriveStreamSeed — the same identity
 * hash the decorrelated-seed machinery uses — so shard i of N owns a
 * fixed, disjoint subset of the matrix no matter which machine runs
 * it, how many workers it uses, or in what order cells finish.
 * Shards that store into one cell cache (or whose caches are copied
 * together) combine by rerunning the unsharded matrix against it.
 */

#ifndef EQX_SWEEP_SHARD_HH
#define EQX_SWEEP_SHARD_HH

#include <cstdint>
#include <string>

namespace eqx {

/** Parse "i/N" (0 <= i < N <= INT_MAX); returns false on anything
 *  else. */
bool parseShardSpec(const std::string &spec, int &index, int &count);

/**
 * The shard that owns cell (scheme, benchmark) under @p seed. Callers
 * pass the *canonical* scheme name (CellResult::scheme) so aliases
 * land on the same shard.
 */
int cellShard(std::uint64_t seed, const std::string &scheme,
              const std::string &benchmark, int shard_count);

} // namespace eqx

#endif // EQX_SWEEP_SHARD_HH
