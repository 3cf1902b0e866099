/** @file N-Queen solver, scored placement, knight-move extension. */

#include <gtest/gtest.h>

#include <cstdint>
#include <set>

#include "core/hotzone.hh"
#include "core/nqueen.hh"
#include "core/placement.hh"
#include "trim_reference.hh"

namespace eqx {
namespace {

/**
 * The classic solution counts for small boards. Both fields are 64-bit so
 * the struct has no padding: gtest prints the raw bytes into the test
 * name, and uninitialised padding made the name differ from run to run.
 */
struct CountCase
{
    std::int64_t n;
    std::size_t count;
};

class NQueenCounts : public ::testing::TestWithParam<CountCase> {};

TEST_P(NQueenCounts, MatchesKnownSequence)
{
    EXPECT_EQ(countNQueenSolutions(static_cast<int>(GetParam().n), 1000000),
              GetParam().count);
}

INSTANTIATE_TEST_SUITE_P(
    Classic, NQueenCounts,
    ::testing::Values(CountCase{1, 1}, CountCase{4, 2}, CountCase{5, 10},
                      CountCase{6, 4}, CountCase{7, 40},
                      CountCase{8, 92}), // the paper's 92 for 8x8
    [](const auto &info) {
        return std::string("N").append(std::to_string(info.param.n));
    });

TEST(NQueen, SolutionsAreValid)
{
    for (const auto &sol : solveNQueens(8, 1000000)) {
        EXPECT_TRUE(isPermutationPlacement(sol));
        EXPECT_TRUE(isDiagonalFree(sol));
    }
}

TEST(NQueen, CapRespected)
{
    EXPECT_EQ(solveNQueens(8, 10).size(), 10u);
}

TEST(NQueen, SampledSolutionsValidAndDistinct)
{
    Rng rng(3);
    auto sols = sampleNQueens(12, 20, rng);
    EXPECT_GE(sols.size(), 10u);
    std::set<std::vector<int>> keys;
    for (const auto &sol : sols) {
        EXPECT_TRUE(isPermutationPlacement(sol));
        EXPECT_TRUE(isDiagonalFree(sol));
        std::vector<int> key;
        for (const auto &c : sol)
            key.push_back(c.x);
        EXPECT_TRUE(keys.insert(key).second);
    }
}

TEST(NQueen, BestPlacementBeatsClassicLayouts)
{
    // The paper's motivation: N-Queen placement scores lower than Top
    // on the hot-zone penalty policy.
    Rng rng(1);
    auto best = bestNQueenPlacement(8, 8, rng);
    int top = placementPenalty(
        makePlacement(PlacementKind::Top, 8, 8, 8), 8, 8);
    EXPECT_LE(best.penalty, top);
    EXPECT_EQ(best.cbs.size(), 8u);
    EXPECT_TRUE(isDiagonalFree(best.cbs));
    EXPECT_EQ(best.penalty, placementPenalty(best.cbs, 8, 8));
}

TEST(NQueen, TrimsToFewerCbs)
{
    Rng rng(1);
    auto p = bestNQueenPlacement(8, 6, rng);
    EXPECT_EQ(p.cbs.size(), 6u);
    EXPECT_TRUE(isDiagonalFree(p.cbs)); // deleting queens keeps property
}

TEST(NQueen, BestPlacementDeterministicForSeed)
{
    Rng a(5), b(5);
    auto pa = bestNQueenPlacement(8, 8, a);
    auto pb = bestNQueenPlacement(8, 8, b);
    EXPECT_EQ(pa.cbs, pb.cbs);
    EXPECT_EQ(pa.penalty, pb.penalty);
}

TEST(NQueen, IncrementalTrimMatchesReference)
{
    // bestNQueenPlacement trims by per-candidate penalty deltas over
    // one coverage map; the oracle rebuilds and rescores the whole
    // placement for every candidate. Same samples and the same
    // first-minimum rule, so the winner and its penalty must agree.
    constexpr std::size_t kSamples = 48;
    for (int n = 9; n <= 16; ++n) {
        for (int k = 4; k <= 8; ++k) {
            for (std::uint64_t seed = 1; seed <= 4; ++seed) {
                Rng rng(seed);
                ScoredPlacement got =
                    bestNQueenPlacement(n, k, rng, kSamples);

                Rng ref_rng(seed);
                ScoredPlacement want;
                bool first = true;
                for (auto &sol : sampleNQueens(n, kSamples, ref_rng)) {
                    auto cbs = referenceGreedyTrim(std::move(sol), k, n);
                    int p = placementPenalty(cbs, n, n);
                    if (first || p < want.penalty) {
                        want.cbs = std::move(cbs);
                        want.penalty = p;
                        first = false;
                    }
                }
                EXPECT_EQ(got.cbs, want.cbs)
                    << "n=" << n << " k=" << k << " seed=" << seed;
                EXPECT_EQ(got.penalty, want.penalty)
                    << "n=" << n << " k=" << k << " seed=" << seed;
            }
        }
    }
}

TEST(Knight, PlacesRequestedCount)
{
    auto cbs = knightPlacement(8, 12); // more CBs than N
    EXPECT_EQ(cbs.size(), 12u);
    std::set<Coord> uniq(cbs.begin(), cbs.end());
    EXPECT_EQ(uniq.size(), 12u);
}

TEST(Knight, LowSharingForModerateCounts)
{
    // Knight moves minimize same-row/column/diagonal occurrences: for
    // 8 CBs on 8x8 the walk keeps rows/cols nearly distinct.
    auto cbs = knightPlacement(8, 8);
    std::set<int> cols;
    for (const auto &c : cbs)
        cols.insert(c.x);
    EXPECT_GE(cols.size(), 6u);
}

} // namespace
} // namespace eqx
