#include "sweep/sweep_runner.hh"

#include <memory>
#include <optional>

#include "common/logging.hh"
#include "sweep/cell_cache.hh"
#include "sweep/shard.hh"

namespace eqx {

namespace {

/**
 * State shared between the hooks. The hooks are installed into the
 * ExperimentConfig *before* the runner copies it, but the digests are
 * only filled in after the runner exists (computing them needs
 * prepareCell) — a shared_ptr bridges that.
 */
struct FabricState
{
    std::vector<CellDigest> digests; ///< canonical index -> digest
    std::vector<std::uint8_t> cached; ///< canonical index -> cache-served
    CellCache *cache = nullptr;
};

} // namespace

SweepOutcome
runSweep(const ExperimentConfig &config, const SweepOptions &opt)
{
    eqx_assert(opt.shardCount >= 1 && opt.shardIndex >= 0 &&
                   opt.shardIndex < opt.shardCount,
               "bad shard spec ", opt.shardIndex, "/", opt.shardCount);
    eqx_assert(!config.cellFilter && !config.cellLookup &&
                   !config.cellDone,
               "runSweep owns the sweep hooks; pass them unset");

    std::optional<CellCache> cache;
    auto state = std::make_shared<FabricState>();
    if (!opt.cacheDir.empty()) {
        cache.emplace(opt.cacheDir);
        state->cache = &*cache;
    }

    ExperimentConfig ec = config;

    if (opt.shardCount > 1) {
        int idx = opt.shardIndex;
        int cnt = opt.shardCount;
        std::uint64_t seed = ec.seed;
        ec.cellFilter = [seed, idx, cnt](const CellResult &c) {
            return cellShard(seed, c.scheme, c.benchmark, cnt) == idx;
        };
    }

    if (state->cache) {
        ec.cellLookup = [state](CellResult &c) {
            std::size_t idx = c.index;
            CellResult hit;
            if (!state->cache->lookup(state->digests[idx], hit))
                return false;
            hit.index = idx;
            c = std::move(hit);
            state->cached[idx] = 1;
            return true;
        };

        // Store every simulated success; a cache-served cell is
        // already there.
        ec.cellDone = [state](const CellResult &c) {
            if (!c.failed && !state->cached[c.index])
                state->cache->store(state->digests[c.index], c);
        };
    }

    ExperimentRunner runner(ec);

    // Digests in canonical (workload-major, scheme-minor) order,
    // including cells other shards own: hooks index this vector by
    // the cell's canonical index. Single-threaded on purpose — the
    // first EquiNox cell lazily builds the shared design here.
    state->digests.reserve(ec.workloads.size() * ec.schemes.size());
    for (const auto &wp : ec.workloads)
        for (const auto &key : ec.schemes)
            state->digests.push_back(cellDigest(runner, key, wp));
    state->cached.assign(state->digests.size(), 0);

    SweepOutcome out;
    out.totalCells = state->digests.size();
    out.cells = runner.runMatrix();
    out.shardCells = out.cells.size();

    for (const auto &c : out.cells) {
        if (state->cached[c.index])
            ++out.cacheHits;
        else
            ++out.simulated;
        if (c.failed)
            ++out.failed;
    }
    if (cache)
        out.stored = cache->stores();

    out.stats.set("sweep.total_cells",
                  static_cast<double>(out.totalCells));
    out.stats.set("sweep.shard_cells",
                  static_cast<double>(out.shardCells));
    out.stats.set("sweep.cache_hits",
                  static_cast<double>(out.cacheHits));
    out.stats.set("sweep.simulated", static_cast<double>(out.simulated));
    out.stats.set("sweep.failed", static_cast<double>(out.failed));
    if (cache)
        cache->exportStats(out.stats);
    return out;
}

std::vector<CellId>
listCellDigests(const ExperimentConfig &config, int shard_count)
{
    eqx_assert(shard_count >= 1, "bad shard count ", shard_count);

    ExperimentRunner runner(config);
    std::vector<CellId> ids;
    ids.reserve(config.workloads.size() * config.schemes.size());
    for (const auto &wp : config.workloads)
        for (const auto &key : config.schemes) {
            CellId id;
            id.index = ids.size();
            id.scheme = SchemeRegistry::instance().byName(key).name();
            id.benchmark = wp.name;
            id.digest = cellDigest(runner, key, wp);
            id.shard = cellShard(config.seed, id.scheme, id.benchmark,
                                 shard_count);
            ids.push_back(std::move(id));
        }
    return ids;
}

} // namespace eqx
