/** @file RunningStat / Histogram / StatGroup behaviour. */

#include <gtest/gtest.h>

#include <cmath>

#include "common/stats.hh"

namespace eqx {
namespace {

TEST(RunningStat, MeanAndVariance)
{
    RunningStat s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.variance(), 4.0); // classic textbook example
    EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStat, EmptyIsZero)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStat, MergeMatchesCombinedStream)
{
    RunningStat a, b, all;
    for (int i = 0; i < 50; ++i) {
        double x = i * 0.7 - 3;
        if (i % 2)
            a.add(x);
        else
            b.add(x);
        all.add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStat, MergeWithEmpty)
{
    RunningStat a, b;
    a.add(3.0);
    a.merge(b); // no-op
    EXPECT_EQ(a.count(), 1u);
    b.merge(a); // copy
    EXPECT_EQ(b.count(), 1u);
    EXPECT_DOUBLE_EQ(b.mean(), 3.0);
}

// Parallel-reduction coverage: merging per-worker accumulators must
// behave like one stream regardless of which side is empty and (up to
// fp tolerance) of merge order.

TEST(RunningStat, MergeEmptyIntoFullPreservesEverything)
{
    RunningStat full, empty;
    for (double x : {1.0, -2.5, 7.75, 0.25})
        full.add(x);
    RunningStat before = full;
    full.merge(empty);
    EXPECT_EQ(full.count(), before.count());
    EXPECT_DOUBLE_EQ(full.mean(), before.mean());
    EXPECT_DOUBLE_EQ(full.variance(), before.variance());
    EXPECT_DOUBLE_EQ(full.min(), before.min());
    EXPECT_DOUBLE_EQ(full.max(), before.max());
}

TEST(RunningStat, MergeFullIntoEmptyEqualsCopy)
{
    RunningStat full, empty;
    for (double x : {4.0, 8.0, -1.0})
        full.add(x);
    empty.merge(full);
    EXPECT_EQ(empty.count(), full.count());
    EXPECT_DOUBLE_EQ(empty.mean(), full.mean());
    EXPECT_DOUBLE_EQ(empty.variance(), full.variance());
    EXPECT_DOUBLE_EQ(empty.min(), full.min());
    EXPECT_DOUBLE_EQ(empty.max(), full.max());
}

TEST(RunningStat, MergeCommutativeWithinTolerance)
{
    RunningStat a1, b1, a2, b2;
    for (int i = 0; i < 40; ++i) {
        double x = i * 1.37 - 11.0;
        (i % 3 ? a1 : b1).add(x);
        (i % 3 ? a2 : b2).add(x);
    }
    a1.merge(b1); // a ∪ b
    b2.merge(a2); // b ∪ a
    EXPECT_EQ(a1.count(), b2.count());
    EXPECT_NEAR(a1.mean(), b2.mean(), 1e-12);
    EXPECT_NEAR(a1.variance(), b2.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(a1.min(), b2.min());
    EXPECT_DOUBLE_EQ(a1.max(), b2.max());
}

TEST(RunningStat, SumMatchesDirectSummation)
{
    // The sum must be carried explicitly: reconstructing it as
    // mean * n drifts away from left-to-right summation over long
    // accumulations with a large offset, which is exactly the shape of
    // multi-million-cycle latency totals.
    RunningStat s;
    double direct = 0.0;
    for (int i = 0; i < 200000; ++i) {
        double x = 1.0e9 + 0.1 * (i % 97);
        s.add(x);
        direct += x;
    }
    EXPECT_DOUBLE_EQ(s.sum(), direct); // bit-identical, not just NEAR
}

TEST(RunningStat, MergedSumIsExactSumOfParts)
{
    RunningStat a, b;
    double da = 0.0, db = 0.0;
    for (int i = 0; i < 5000; ++i) {
        double x = 7.0e7 + 0.25 * (i % 13);
        if (i % 2) {
            a.add(x);
            da += x;
        } else {
            b.add(x);
            db += x;
        }
    }
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.sum(), da + db);
}

TEST(RunningStat, ResetClearsSum)
{
    RunningStat s;
    s.add(42.0);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.sum(), 0.0);
    s.add(1.5);
    EXPECT_DOUBLE_EQ(s.sum(), 1.5);
}

TEST(Histogram, BucketsAndOverflow)
{
    Histogram h(10.0, 5); // [0,50) + overflow
    h.add(0);
    h.add(9.99);
    h.add(10);
    h.add(49);
    h.add(50);
    h.add(1000);
    EXPECT_EQ(h.count(), 6u);
    EXPECT_EQ(h.bucket(0), 2u);
    EXPECT_EQ(h.bucket(1), 1u);
    EXPECT_EQ(h.bucket(4), 1u);
    EXPECT_EQ(h.overflow(), 2u);
}

TEST(Histogram, NegativeClampsToZeroBucket)
{
    Histogram h(1.0, 4);
    h.add(-5.0);
    EXPECT_EQ(h.bucket(0), 1u);
}

TEST(Histogram, PercentileMonotonic)
{
    Histogram h(1.0, 100);
    for (int i = 0; i < 100; ++i)
        h.add(i);
    double p50 = h.percentile(0.5);
    double p90 = h.percentile(0.9);
    EXPECT_LT(p50, p90);
    EXPECT_NEAR(p50, 50.0, 2.0);
    EXPECT_NEAR(p90, 90.0, 2.0);
}

TEST(Histogram, EmptyPercentileIsZero)
{
    Histogram h(1.0, 8);
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 0.0);
}

TEST(Histogram, PercentileExtremeQuantiles)
{
    Histogram h(1.0, 10);
    for (int i = 2; i < 7; ++i) // samples in buckets 2..6
        h.add(i + 0.5);
    // q=0: lower edge of the first populated bucket.
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 2.0);
    // q=1: upper edge of the last populated bucket.
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 7.0);
    // Out-of-range q clamps rather than extrapolating.
    EXPECT_DOUBLE_EQ(h.percentile(-0.3), h.percentile(0.0));
    EXPECT_DOUBLE_EQ(h.percentile(1.7), h.percentile(1.0));
}

TEST(Histogram, AllOverflowSaturatesAtRangeEdge)
{
    Histogram h(2.0, 4); // tracked range [0, 8)
    h.add(100);
    h.add(1000);
    EXPECT_EQ(h.overflow(), 2u);
    // Every quantile reports the tightest known lower bound: the
    // tracked-range upper edge.
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 8.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 8.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 8.0);
}

TEST(Histogram, PartialOverflowQuantilesSplitAtBoundary)
{
    Histogram h(1.0, 4); // [0, 4)
    h.add(0.5);
    h.add(1.5);
    h.add(100); // overflow
    h.add(200); // overflow
    // p25 lands inside the tracked range; p99 in the overflow tail.
    EXPECT_LT(h.percentile(0.25), 4.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.99), 4.0);
}

TEST(Histogram, HugeValueCountsAsOverflowSafely)
{
    // Values whose bucket quotient exceeds the size_t range must land
    // in overflow (the unpatched cast was undefined behaviour).
    Histogram h(1.0, 4);
    h.add(1.0e300);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.overflow(), 1u);
}

TEST(Histogram, NanLandsInBucketZero)
{
    Histogram h(1.0, 4);
    h.add(std::nan(""));
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.overflow(), 0u);
}

TEST(Histogram, ResetClearsCountsKeepsGeometry)
{
    Histogram h(2.5, 6);
    for (int i = 0; i < 10; ++i)
        h.add(i * 3.0);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.overflow(), 0u);
    for (int i = 0; i < h.numBuckets(); ++i)
        EXPECT_EQ(h.bucket(i), 0u);
    EXPECT_DOUBLE_EQ(h.bucketWidth(), 2.5);
    EXPECT_EQ(h.numBuckets(), 6);
    h.add(1.0);
    EXPECT_EQ(h.count(), 1u);
}

TEST(Histogram, MergeAddsCounts)
{
    Histogram a(1.0, 4), b(1.0, 4);
    a.add(0.5);
    a.add(10); // overflow
    b.add(0.7);
    b.add(2.5);
    a.merge(b);
    EXPECT_EQ(a.count(), 4u);
    EXPECT_EQ(a.bucket(0), 2u);
    EXPECT_EQ(a.bucket(2), 1u);
    EXPECT_EQ(a.overflow(), 1u);
}

TEST(StatGroup, IncSetGet)
{
    StatGroup g;
    EXPECT_FALSE(g.has("x"));
    g.inc("x");
    g.inc("x", 2.5);
    EXPECT_DOUBLE_EQ(g.get("x"), 3.5);
    g.set("x", 1.0);
    EXPECT_DOUBLE_EQ(g.get("x"), 1.0);
    EXPECT_DOUBLE_EQ(g.get("missing"), 0.0);
}

enum class Ev : std::uint8_t
{
    Alpha,
    Beta,
    Gamma,
    Count
};

const char *const kEvNames[] = {"alpha", "beta", "gamma"};

TEST(CounterArray, ViewMatchesStringKeyedIncrements)
{
    CounterArray<Ev> c(kEvNames);
    StatGroup expected;
    EXPECT_TRUE(c.view().all().empty());
    for (int i = 0; i < 5; ++i) {
        c.inc(Ev::Gamma);
        expected.inc("gamma");
    }
    c.inc(Ev::Alpha);
    expected.inc("alpha");
    EXPECT_EQ(c[Ev::Gamma], 5u);
    EXPECT_EQ(c[Ev::Beta], 0u);
    // Zero counters stay absent, exactly as never-incremented keys.
    EXPECT_EQ(c.view().all(), expected.all());
    EXPECT_FALSE(c.view().has("beta"));
    c.inc(Ev::Beta);
    expected.inc("beta");
    EXPECT_EQ(c.view().all(), expected.all()); // refreshed per call
}

TEST(StatGroup, MergeAdds)
{
    StatGroup a, b;
    a.inc("x", 1);
    b.inc("x", 2);
    b.inc("y", 5);
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.get("x"), 3);
    EXPECT_DOUBLE_EQ(a.get("y"), 5);
}

TEST(StatGroup, MergeEmptyEitherDirection)
{
    StatGroup full, empty;
    full.inc("pkts", 12);
    full.set("ipc", 0.75);

    StatGroup copy = full;
    copy.merge(empty); // empty-into-full: unchanged
    EXPECT_DOUBLE_EQ(copy.get("pkts"), 12);
    EXPECT_DOUBLE_EQ(copy.get("ipc"), 0.75);
    EXPECT_EQ(copy.all().size(), full.all().size());

    empty.merge(full); // full-into-empty: exact copy
    EXPECT_DOUBLE_EQ(empty.get("pkts"), 12);
    EXPECT_DOUBLE_EQ(empty.get("ipc"), 0.75);
    EXPECT_EQ(empty.all().size(), full.all().size());
}

TEST(StatGroup, MergeCommutative)
{
    StatGroup a1, b1, a2, b2;
    a1.inc("x", 1.5);
    a1.inc("y", 2.0);
    b1.inc("y", 3.0);
    b1.inc("z", 4.25);
    a2 = a1;
    b2 = b1;

    a1.merge(b1); // a ∪ b
    b2.merge(a2); // b ∪ a
    EXPECT_EQ(a1.all().size(), b2.all().size());
    for (const auto &[k, v] : a1.all())
        EXPECT_NEAR(v, b2.get(k), 1e-12) << k;
}

TEST(Geomean, Basics)
{
    EXPECT_DOUBLE_EQ(geomean({4.0, 1.0}), 2.0);
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    // Non-positive entries ignored.
    EXPECT_DOUBLE_EQ(geomean({4.0, 1.0, 0.0, -3.0}), 2.0);
}

} // namespace
} // namespace eqx
