/**
 * @file
 * Cell-cache tests: store/lookup round trip, corruption and
 * mis-addressing handled as counted misses, failed cells refused,
 * counter bookkeeping.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "sim/experiment.hh"
#include "sweep/cell_cache.hh"
#include "sweep/digest.hh"
#include "workloads/profiles.hh"

using namespace eqx;

namespace {

std::string
makeTempDir()
{
    char tmpl[] = "/tmp/eqx-cache-test-XXXXXX";
    const char *dir = ::mkdtemp(tmpl);
    EXPECT_NE(dir, nullptr);
    return dir ? dir : "/tmp";
}

CellResult
tinyCell()
{
    ExperimentConfig ec;
    ec.schemes = {"SingleBase"};
    ec.workloads = workloadSubset(1);
    ec.instScale = 0.02;
    ExperimentRunner runner(ec);

    CellResult cell;
    cell.scheme = "SingleBase";
    cell.benchmark = ec.workloads[0].name;
    cell.result = runner.runOne(cell.scheme, ec.workloads[0]);
    cell.index = 0;
    return cell;
}

} // namespace

TEST(CellCache, StoreLookupRoundTrip)
{
    CellCache cache(makeTempDir() + "/nested/cache");
    CellResult cell = tinyCell();
    CellDigest d = digestBlob("cache-test-cell\n");

    CellResult out;
    EXPECT_FALSE(cache.lookup(d, out)); // cold
    cache.store(d, cell);
    ASSERT_TRUE(cache.lookup(d, out));
    EXPECT_EQ(cellJsonRecord(out), cellJsonRecord(cell));
    EXPECT_EQ(out.index, cell.index);

    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.stores(), 1u);
    EXPECT_EQ(cache.corrupt(), 0u);
}

TEST(CellCache, CorruptEntryIsACountedMiss)
{
    CellCache cache(makeTempDir());
    CellDigest d = digestBlob("corrupt-probe\n");
    cache.store(d, tinyCell());

    {
        std::ofstream f(cache.pathFor(d), std::ios::trunc);
        f << "{not a record\n";
    }
    CellResult out;
    EXPECT_FALSE(cache.lookup(d, out));
    EXPECT_EQ(cache.corrupt(), 1u);

    // Re-storing repairs the entry.
    cache.store(d, tinyCell());
    EXPECT_TRUE(cache.lookup(d, out));
}

TEST(CellCache, MisAddressedEntryIsCorrupt)
{
    // A record stored under the wrong digest (file copied/renamed by
    // hand) must not be served: the address IS the identity.
    CellCache cache(makeTempDir());
    CellDigest good = digestBlob("good\n");
    CellDigest other = digestBlob("other\n");
    cache.store(good, tinyCell());

    std::ifstream src(cache.pathFor(good), std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(src)),
                      std::istreambuf_iterator<char>());
    // Place it at `other`'s address (ensure the fan-out dir exists by
    // storing there first, then overwriting).
    cache.store(other, tinyCell());
    {
        std::ofstream dst(cache.pathFor(other),
                          std::ios::trunc | std::ios::binary);
        dst << bytes;
    }

    CellResult out;
    EXPECT_FALSE(cache.lookup(other, out));
    EXPECT_EQ(cache.corrupt(), 1u);
}

TEST(CellCache, FailedCellsAreNeverStored)
{
    CellCache cache(makeTempDir());
    CellResult cell = tinyCell();
    cell.failed = true;
    cell.error = "timeout";
    CellDigest d = digestBlob("failed-cell\n");
    cache.store(d, cell);
    CellResult out;
    EXPECT_FALSE(cache.lookup(d, out));
    EXPECT_EQ(cache.stores(), 0u);
}

TEST(CellCache, ExportStats)
{
    CellCache cache(makeTempDir());
    CellDigest d = digestBlob("stats-probe\n");
    CellResult out;
    cache.lookup(d, out); // miss
    cache.store(d, tinyCell());
    cache.lookup(d, out); // hit

    StatGroup g;
    cache.exportStats(g);
    EXPECT_EQ(g.get("cache.hits"), 1.0);
    EXPECT_EQ(g.get("cache.misses"), 1.0);
    EXPECT_EQ(g.get("cache.corrupt"), 0.0);
    EXPECT_EQ(g.get("cache.stores"), 1.0);
}
