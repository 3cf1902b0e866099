/**
 * @file
 * Fabric end-to-end tests (DESIGN.md §13): the cache acceptance
 * criterion (second identical sweep simulates nothing and emits
 * byte-identical JSONL modulo wall_ms), crash-resume from journals
 * truncated at arbitrary byte offsets — including mid-record — and
 * shard split + merge reproducing the single-process output.
 *
 * All byte-compares run with workers=1: jsonlPath streams in
 * completion order, and only the sequential pool completes in
 * canonical order. (merge= output is always canonical — it sorts by
 * cell index — so sharded runs compare through the merge tool.)
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "sweep/journal.hh"
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
normalizeWall(std::string s)
{
    const std::string key = "\"wall_ms\":";
    std::size_t pos = 0;
    while ((pos = s.find(key, pos)) != std::string::npos) {
        std::size_t vstart = pos + key.size();
        std::size_t vend = vstart;
        while (vend < s.size() && s[vend] != ',' && s[vend] != '}')
            ++vend;
        s.replace(vstart, vend - vstart, "0");
        pos = vstart;
    }
    return s;
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

TEST(Fabric, CrashResumeFromArbitraryTruncationOffsets)
{
    std::string dir = makeTempDir();

    // A complete run whose journal is the crash-test corpus, and
    // whose merge output is the golden answer.
    SweepOptions opt;
    opt.journalPath = dir + "/full.jnl";
    SweepOutcome full = runSweep(smallMatrix(), opt);
    ASSERT_EQ(full.cells.size(), 4u);
    ASSERT_EQ(full.failed, 0u);

    MergeResult golden =
        mergeJournals({dir + "/full.jnl"}, dir + "/golden.jsonl");
    ASSERT_TRUE(golden.ok()) << golden.error;
    std::string goldenBytes = normalizeWall(readFile(dir + "/golden.jsonl"));

    std::string journal = readFile(dir + "/full.jnl");
    ASSERT_GT(journal.size(), 64u);

    // Crash points: almost-nothing, mid-record (one third / one half
    // of the file lands inside a record), and a torn final record.
    std::vector<std::size_t> offsets = {
        17, journal.size() / 3, journal.size() / 2, journal.size() - 3};
    for (std::size_t cut : offsets) {
        std::string jnl = dir + "/crash-" + std::to_string(cut) + ".jnl";
        writeFile(jnl, journal.substr(0, cut));

        std::size_t intact = loadJournal(jnl).records.size();
        ASSERT_LT(intact, 4u) << "cut " << cut
                              << " left the journal complete";

        SweepOptions ropt;
        ropt.journalPath = jnl;
        ropt.resume = true;
        SweepOutcome resumed = runSweep(smallMatrix(), ropt);
        ASSERT_EQ(resumed.cells.size(), 4u) << "cut " << cut;
        EXPECT_EQ(resumed.journalHits, intact) << "cut " << cut;
        EXPECT_EQ(resumed.simulated, 4u - intact) << "cut " << cut;

        MergeResult merged =
            mergeJournals({jnl}, dir + "/resumed.jsonl");
        ASSERT_TRUE(merged.ok()) << merged.error;
        EXPECT_EQ(normalizeWall(readFile(dir + "/resumed.jsonl")),
                  goldenBytes)
            << "cut " << cut;
    }
}

TEST(Fabric, LoadJournalToleratesTearingCorruptionAndDuplicates)
{
    std::string dir = makeTempDir();
    SweepOptions opt;
    opt.journalPath = dir + "/j.jnl";
    SweepOutcome out = runSweep(smallMatrix(), opt);
    ASSERT_EQ(out.cells.size(), 4u);
    std::string bytes = readFile(dir + "/j.jnl");

    { // Absent file: valid empty load.
        JournalLoad l = loadJournal(dir + "/nope.jnl");
        EXPECT_FALSE(l.existed);
        EXPECT_TRUE(l.records.empty());
    }
    { // Torn tail: the partial final line is excluded, cleanly.
        writeFile(dir + "/torn.jnl", bytes.substr(0, bytes.size() - 5));
        JournalLoad l = loadJournal(dir + "/torn.jnl");
        EXPECT_TRUE(l.existed);
        EXPECT_EQ(l.records.size(), 3u);
        EXPECT_FALSE(l.needsRewrite);
        // validBytes ends exactly after the last intact record.
        EXPECT_EQ(bytes.compare(0, l.validBytes,
                                readFile(dir + "/torn.jnl"), 0,
                                l.validBytes),
                  0);
    }
    { // Interior corruption: a complete line that does not parse.
        std::size_t firstNl = bytes.find('\n');
        std::string mangled = bytes;
        mangled.replace(firstNl / 2, 8, "XXXXXXXX");
        writeFile(dir + "/rot.jnl", mangled);
        JournalLoad l = loadJournal(dir + "/rot.jnl");
        EXPECT_EQ(l.records.size(), 3u);
        EXPECT_TRUE(l.needsRewrite);

        // Resume heals it: the journal is rewritten from the intact
        // records and the missing cell is re-simulated.
        SweepOptions ropt;
        ropt.journalPath = dir + "/rot.jnl";
        ropt.resume = true;
        SweepOutcome resumed = runSweep(smallMatrix(), ropt);
        EXPECT_EQ(resumed.journalHits, 3u);
        EXPECT_EQ(resumed.simulated, 1u);
        EXPECT_EQ(loadJournal(dir + "/rot.jnl").records.size(), 4u);
    }
    { // Duplicate digests: first occurrence wins, one record kept.
        std::size_t firstNl = bytes.find('\n');
        std::string doubled =
            bytes.substr(0, firstNl + 1) + bytes;
        writeFile(dir + "/dup.jnl", doubled);
        JournalLoad l = loadJournal(dir + "/dup.jnl");
        EXPECT_EQ(l.records.size(), 4u);
        EXPECT_FALSE(l.needsRewrite);
    }
}

TEST(Fabric, ShardSplitMergesToSingleProcessBytes)
{
    std::string dir = makeTempDir();

    // Unsharded golden run.
    SweepOptions opt;
    opt.journalPath = dir + "/all.jnl";
    SweepOutcome all = runSweep(smallMatrix(), opt);
    ASSERT_EQ(all.cells.size(), 4u);
    MergeResult golden = mergeJournals({dir + "/all.jnl"}, dir + "/a.jsonl");
    ASSERT_TRUE(golden.ok()) << golden.error;

    // The same matrix split across two shards.
    std::size_t shardTotal = 0;
    for (int i = 0; i < 2; ++i) {
        SweepOptions sopt;
        sopt.journalPath = dir + "/s" + std::to_string(i) + ".jnl";
        sopt.shardIndex = i;
        sopt.shardCount = 2;
        SweepOutcome out = runSweep(smallMatrix(), sopt);
        EXPECT_EQ(out.totalCells, 4u);
        EXPECT_EQ(out.cells.size(), out.shardCells);
        shardTotal += out.shardCells;
    }
    EXPECT_EQ(shardTotal, 4u); // disjoint and covering

    MergeResult merged = mergeJournals(
        {dir + "/s0.jnl", dir + "/s1.jnl"}, dir + "/b.jsonl");
    ASSERT_TRUE(merged.ok()) << merged.error;
    EXPECT_EQ(merged.cells, 4u);

    EXPECT_EQ(normalizeWall(readFile(dir + "/a.jsonl")),
              normalizeWall(readFile(dir + "/b.jsonl")));

    // Merge diagnostics: a missing input and an index gap are errors;
    // gaps are accepted only when asked for.
    EXPECT_FALSE(
        mergeJournals({dir + "/missing.jnl"}, dir + "/x.jsonl").ok());
    MergeResult gap = mergeJournals({dir + "/s0.jnl"}, dir + "/g.jsonl");
    if (loadJournal(dir + "/s0.jnl").records.size() < 4u) {
        EXPECT_FALSE(gap.ok());
        EXPECT_TRUE(
            mergeJournals({dir + "/s0.jnl"}, dir + "/g2.jsonl", true)
                .ok());
    }
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
