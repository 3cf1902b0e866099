/**
 * @file
 * Fabric end-to-end tests (DESIGN.md §13): the cache acceptance
 * criterion (second identical sweep simulates nothing and emits
 * byte-identical JSONL modulo wall_ms), a rerun after a crash
 * simulating only the cells the cache lacks, and shards stored into
 * one cache reproducing the single-process output.
 *
 * JSONL is written in canonical cell order for any worker count, so
 * every run's file compares directly, sharded runs included.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "sweep/cell_cache.hh"
#include "sweep/shard.hh"
#include "sweep/sweep_runner.hh"
#include "workloads/profiles.hh"

using namespace eqx;

namespace {

std::string
makeTempDir()
{
    char tmpl[] = "/tmp/eqx-fabric-test-XXXXXX";
    const char *dir = ::mkdtemp(tmpl);
    EXPECT_NE(dir, nullptr);
    return dir ? dir : "/tmp";
}

std::string
readFile(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    EXPECT_TRUE(f.good()) << path;
    std::ostringstream ss;
    ss << f.rdbuf();
    return ss.str();
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream f(path, std::ios::trunc | std::ios::binary);
    f.write(bytes.data(),
            static_cast<std::streamsize>(bytes.size()));
}

/** Zero every "wall_ms" value: it is machine/load dependent and
 *  explicitly outside the byte-identity guarantee. */
std::string
normalizeWall(const std::string &s)
{
    const std::string key = "\"wall_ms\":";
    std::string out;
    std::size_t from = 0, pos;
    while ((pos = s.find(key, from)) != std::string::npos) {
        std::size_t vstart = pos + key.size();
        out.append(s, from, vstart - from).append("0");
        from = std::min(s.find_first_of(",}", vstart), s.size());
    }
    out.append(s, from);
    return out;
}

/** 2 schemes x 2 benchmarks, tiny: 4 cells, sequential pool. */
ExperimentConfig
smallMatrix()
{
    ExperimentConfig ec;
    ec.schemes = {"SingleBase", "SeparateBase"};
    ec.workloads = workloadSubset(2);
    ec.instScale = 0.02;
    ec.workers = 1;
    return ec;
}

} // namespace

TEST(Fabric, SecondIdenticalSweepIsFullyCacheServed)
{
    std::string dir = makeTempDir();
    SweepOptions opt;
    opt.cacheDir = dir + "/cache";

    ExperimentConfig ec = smallMatrix();
    ec.jsonlPath = dir + "/first.jsonl";
    SweepOutcome first = runSweep(ec, opt);
    ASSERT_EQ(first.cells.size(), 4u);
    EXPECT_EQ(first.simulated, 4u);
    EXPECT_EQ(first.cacheHits, 0u);
    EXPECT_EQ(first.failed, 0u);
    EXPECT_EQ(first.stored, 4u);

    ec.jsonlPath = dir + "/second.jsonl";
    SweepOutcome second = runSweep(ec, opt);
    ASSERT_EQ(second.cells.size(), 4u);
    EXPECT_EQ(second.simulated, 0u);
    EXPECT_EQ(second.cacheHits, 4u);

    // The acceptance criterion: byte-identical modulo wall_ms.
    EXPECT_EQ(normalizeWall(readFile(dir + "/first.jsonl")),
              normalizeWall(readFile(dir + "/second.jsonl")));

    // Counters surface through the StatGroup too.
    EXPECT_EQ(second.stats.get("sweep.cache_hits"), 4.0);
    EXPECT_EQ(second.stats.get("sweep.simulated"), 0.0);
    EXPECT_EQ(second.stats.get("cache.hits"), 4.0);
}

TEST(Fabric, RejectsPresetHooks)
{
    // runSweep installs all three hooks itself; a caller's own hook
    // would be silently replaced, so it is refused instead.
    ExperimentConfig ec = smallMatrix();
    ec.cellDone = [](const CellResult &) {};
    EXPECT_THROW(runSweep(ec, SweepOptions{}), std::logic_error);
}

TEST(Fabric, RerunAfterCrashSimulatesOnlyMissingCells)
{
    std::string dir = makeTempDir();
    SweepOptions opt;
    opt.cacheDir = dir + "/cache";

    ExperimentConfig ec = smallMatrix();
    ec.jsonlPath = dir + "/full.jsonl";
    SweepOutcome full = runSweep(ec, opt);
    ASSERT_EQ(full.stored, 4u);

    // The crash: two cells never reached the cache, and one of them
    // left a torn temp file behind. Lookups address only
    // <digest>.json, so the temp file is never read.
    CellCache cache(opt.cacheDir);
    auto ids = listCellDigests(ec);
    ASSERT_EQ(ids.size(), 4u);
    for (std::size_t i : {1u, 2u}) {
        std::string path = cache.pathFor(ids[i].digest);
        std::string bytes = readFile(path);
        ASSERT_EQ(std::remove(path.c_str()), 0) << path;
        if (i == 1)
            writeFile(path + ".tmp.4242.0",
                      bytes.substr(0, bytes.size() / 2));
    }

    ec.jsonlPath = dir + "/rerun.jsonl";
    ec.workers = 2;
    SweepOutcome rerun = runSweep(ec, opt);
    ASSERT_EQ(rerun.cells.size(), 4u);
    EXPECT_EQ(rerun.simulated, 2u);
    EXPECT_EQ(rerun.cacheHits, 2u);
    EXPECT_EQ(rerun.stored, 2u);
    EXPECT_EQ(rerun.stats.get("cache.corrupt"), 0.0);
    EXPECT_EQ(normalizeWall(readFile(dir + "/full.jsonl")),
              normalizeWall(readFile(dir + "/rerun.jsonl")));
}

TEST(Fabric, ShardsIntoOneCacheReproduceUnshardedJsonl)
{
    std::string dir = makeTempDir();

    // Unsharded, uncached golden run.
    ExperimentConfig ec = smallMatrix();
    ec.jsonlPath = dir + "/all.jsonl";
    SweepOutcome all = runSweep(ec, SweepOptions{});
    ASSERT_EQ(all.cells.size(), 4u);
    std::string golden = normalizeWall(readFile(dir + "/all.jsonl"));

    // The same matrix split across two shards sharing one cache. Each
    // shard's JSONL holds its own cells in canonical order.
    std::size_t shardTotal = 0, shardRecords = 0;
    for (int i = 0; i < 2; ++i) {
        SweepOptions sopt;
        sopt.cacheDir = dir + "/cache";
        sopt.shardIndex = i;
        sopt.shardCount = 2;
        ec.jsonlPath = dir + "/s" + std::to_string(i) + ".jsonl";
        SweepOutcome out = runSweep(ec, sopt);
        EXPECT_EQ(out.totalCells, 4u);
        EXPECT_EQ(out.cells.size(), out.shardCells);
        EXPECT_EQ(out.simulated, out.shardCells);
        shardTotal += out.shardCells;
        std::istringstream lines(normalizeWall(readFile(ec.jsonlPath)));
        std::size_t next = 0;
        for (std::string line; std::getline(lines, line); ++shardRecords) {
            std::size_t at = golden.find(line + '\n', next);
            ASSERT_NE(at, std::string::npos) << line;
            next = at + line.size();
        }
    }
    EXPECT_EQ(shardTotal, 4u); // disjoint and covering
    EXPECT_EQ(shardRecords, 4u);

    // Combining: the unsharded matrix against that cache simulates
    // nothing and writes the single-process bytes.
    SweepOptions copt;
    copt.cacheDir = dir + "/cache";
    ec.jsonlPath = dir + "/combined.jsonl";
    ec.workers = 4;
    SweepOutcome combined = runSweep(ec, copt);
    EXPECT_EQ(combined.simulated, 0u);
    EXPECT_EQ(combined.cacheHits, 4u);
    EXPECT_EQ(normalizeWall(readFile(ec.jsonlPath)), golden);

    // A missing shard is not an error: its cells are simulated.
    SweepOptions half;
    half.cacheDir = dir + "/half";
    half.shardCount = 2;
    ec.jsonlPath.clear();
    SweepOutcome s0 = runSweep(ec, half);
    half.shardCount = 1;
    ec.jsonlPath = dir + "/gap.jsonl";
    SweepOutcome gap = runSweep(ec, half);
    EXPECT_EQ(gap.cacheHits, s0.shardCells);
    EXPECT_EQ(gap.simulated, 4u - s0.shardCells);
    EXPECT_EQ(normalizeWall(readFile(ec.jsonlPath)), golden);
}

TEST(Fabric, DigestListingMatchesMatrixAndShards)
{
    ExperimentConfig ec = smallMatrix();
    auto ids = listCellDigests(ec, 2);
    ASSERT_EQ(ids.size(), 4u);
    std::set<std::string> hexes;
    for (std::size_t i = 0; i < ids.size(); ++i) {
        EXPECT_EQ(ids[i].index, i); // canonical order
        EXPECT_GE(ids[i].shard, 0);
        EXPECT_LT(ids[i].shard, 2);
        EXPECT_EQ(ids[i].shard,
                  cellShard(ec.seed, ids[i].scheme, ids[i].benchmark, 2));
        hexes.insert(ids[i].digest.hex());
    }
    EXPECT_EQ(hexes.size(), 4u); // all distinct

    // The listing is a pure function of the config.
    auto again = listCellDigests(ec, 2);
    for (std::size_t i = 0; i < ids.size(); ++i)
        EXPECT_EQ(again[i].digest, ids[i].digest);
}
