/** @file DAZ/CAZ hot zones and the scoring policy (paper Fig. 5). */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/hotzone.hh"

namespace eqx {
namespace {

TEST(HotZone, InteriorCbHasFourDazFourCaz)
{
    auto daz = dazTiles({4, 4}, 8, 8);
    auto caz = cazTiles({4, 4}, 8, 8);
    EXPECT_EQ(daz.size(), 4u);
    EXPECT_EQ(caz.size(), 4u);
    EXPECT_EQ(hotZoneTiles({4, 4}, 8, 8).size(), 8u);
}

TEST(HotZone, CornerCbClipped)
{
    EXPECT_EQ(dazTiles({0, 0}, 8, 8).size(), 2u);
    EXPECT_EQ(cazTiles({0, 0}, 8, 8).size(), 1u);
}

TEST(HotZone, CoverageCountsDistinctCbs)
{
    // Two CBs three apart: tile between them is in both hot zones.
    HotZoneMap map({{2, 2}, {4, 2}}, 8, 8);
    EXPECT_EQ(map.coverage({3, 2}), 2);
    EXPECT_TRUE(map.isOverlap({3, 2}));
    EXPECT_EQ(map.coverage({2, 1}), 1);
    EXPECT_FALSE(map.isOverlap({2, 1}));
    EXPECT_EQ(map.coverage({7, 7}), 0);
}

TEST(HotZone, TilePenaltyIsTriangular)
{
    // Paper: with m overlapping direct neighbours the penalty is
    // 1+2+..+m (the example with two overlaps scores 3).
    HotZoneMap map({{2, 2}, {4, 2}, {2, 4}}, 8, 8);
    // (3,3) is CAZ of (2,2)+(4,2)... construct the m=2 case directly:
    // neighbours of (3,3): (3,2) covers {2,2},{4,2} -> overlap;
    // (2,3) covers {2,2},{2,4} -> overlap.
    EXPECT_TRUE(map.isOverlap({3, 2}));
    EXPECT_TRUE(map.isOverlap({2, 3}));
    int m = 0;
    for (Coord n : {Coord{3, 2}, Coord{3, 4}, Coord{2, 3}, Coord{4, 3}})
        if (map.isOverlap(n))
            ++m;
    EXPECT_EQ(tilePenalty(map, {3, 3}), m * (m + 1) / 2);
}

TEST(HotZone, PenaltyZeroWhenCbsFarApart)
{
    EXPECT_EQ(placementPenalty({{1, 1}, {6, 6}}, 8, 8), 0);
}

TEST(HotZone, PenaltyGrowsWithCrowding)
{
    int spread = placementPenalty({{1, 1}, {6, 1}, {1, 6}, {6, 6}}, 8, 8);
    int crowded = placementPenalty({{2, 2}, {4, 2}, {2, 4}, {4, 4}}, 8, 8);
    EXPECT_LT(spread, crowded);
}

TEST(HotZone, AddZoneCoversExactlyTheHotZoneTiles)
{
    // HotZoneMap's per-CB zone (also what the incremental N-Queen trim
    // adds and removes) is DAZ union CAZ, clipped at every edge.
    for (int y = 0; y < 5; ++y) {
        for (int x = 0; x < 5; ++x) {
            Coord cb{x, y};
            HotZoneMap map({{2, 2}}, 5, 5);
            HotZoneMap base({{2, 2}}, 5, 5);
            map.addZone(cb, 1);
            auto zone = hotZoneTiles(cb, 5, 5);
            for (int ty = 0; ty < 5; ++ty) {
                for (int tx = 0; tx < 5; ++tx) {
                    Coord t{tx, ty};
                    int in_zone = static_cast<int>(
                        std::count(zone.begin(), zone.end(), t));
                    EXPECT_EQ(map.coverage(t), base.coverage(t) + in_zone)
                        << "cb (" << x << "," << y << ") tile (" << tx
                        << "," << ty << ")";
                }
            }
            map.addZone(cb, -1);
            for (int ty = 0; ty < 5; ++ty)
                for (int tx = 0; tx < 5; ++tx)
                    EXPECT_EQ(map.coverage({tx, ty}),
                              base.coverage({tx, ty}));
        }
    }
}

TEST(HotZone, OutOfBoundsCoverageIsZero)
{
    HotZoneMap map({{0, 0}}, 4, 4);
    EXPECT_EQ(map.coverage({-1, 0}), 0);
    EXPECT_EQ(map.coverage({4, 4}), 0);
}

} // namespace
} // namespace eqx
