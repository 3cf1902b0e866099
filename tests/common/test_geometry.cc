/** @file Exact segment-intersection predicates (RDL crossing rules). */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/geometry.hh"
#include "common/rng.hh"

namespace eqx {
namespace {

TEST(Geometry, OrientSigns)
{
    EXPECT_GT(orient({0, 0}, {1, 0}, {1, 1}), 0);
    EXPECT_LT(orient({0, 0}, {1, 0}, {1, -1}), 0);
    EXPECT_EQ(orient({0, 0}, {1, 1}, {2, 2}), 0);
}

TEST(Geometry, ProperCrossing)
{
    Segment a{{0, 0}, {2, 2}};
    Segment b{{0, 2}, {2, 0}};
    EXPECT_TRUE(segmentsIntersect(a, b));
    EXPECT_TRUE(segmentsCross(a, b));
}

TEST(Geometry, DisjointSegments)
{
    Segment a{{0, 0}, {1, 0}};
    Segment b{{0, 2}, {1, 2}};
    EXPECT_FALSE(segmentsIntersect(a, b));
    EXPECT_FALSE(segmentsCross(a, b));
}

TEST(Geometry, SharedEndpointIsNotACrossing)
{
    // Two wires fanning out of the same ubump do not need a new layer.
    Segment a{{0, 0}, {2, 0}};
    Segment b{{0, 0}, {0, 2}};
    EXPECT_TRUE(segmentsIntersect(a, b));
    EXPECT_FALSE(segmentsCross(a, b));
}

TEST(Geometry, TTouchMidSegmentIsACrossing)
{
    // One wire ending on the middle of another must be separated.
    Segment a{{0, 0}, {4, 0}};
    Segment b{{2, 0}, {2, 3}};
    EXPECT_TRUE(segmentsCross(a, b));
}

TEST(Geometry, CollinearOverlapIsACrossing)
{
    Segment a{{0, 0}, {4, 0}};
    Segment b{{2, 0}, {6, 0}};
    EXPECT_TRUE(segmentsCross(a, b));
}

TEST(Geometry, CollinearTouchingAtSharedEndpointOnly)
{
    Segment a{{0, 0}, {2, 0}};
    Segment b{{2, 0}, {4, 0}};
    EXPECT_TRUE(segmentsIntersect(a, b));
    EXPECT_FALSE(segmentsCross(a, b));
}

TEST(Geometry, CollinearContainmentThroughSharedEndpoint)
{
    // Shares endpoint (0,0) but b continues inside a: real overlap.
    Segment a{{0, 0}, {4, 0}};
    Segment b{{0, 0}, {2, 0}};
    EXPECT_TRUE(segmentsCross(a, b));
}

TEST(Geometry, CountCrossingsPairwise)
{
    // The paper's Figure 3 example shape: three crossing pairs need
    // at least two metal layers.
    std::vector<Segment> segs = {
        {{0, 1}, {4, 1}}, // horizontal
        {{1, 0}, {1, 3}}, // vertical crossing it
        {{3, 0}, {3, 3}}, // another vertical crossing it
        {{0, 2}, {4, 2}}, // horizontal crossing both verticals
    };
    // pairs: h1-v1, h1-v2, h2-v1, h2-v2 = 4 crossings
    EXPECT_EQ(countCrossings(segs), 4);
    EXPECT_EQ(rdlLayersNeeded(segs), 2);
}

TEST(Geometry, LayersForNonCrossingSetIsOne)
{
    std::vector<Segment> segs = {
        {{0, 0}, {2, 0}},
        {{0, 1}, {2, 1}},
        {{0, 2}, {2, 2}},
    };
    EXPECT_EQ(countCrossings(segs), 0);
    EXPECT_EQ(rdlLayersNeeded(segs), 1);
}

TEST(Geometry, LayersEmptySet)
{
    EXPECT_EQ(rdlLayersNeeded({}), 0);
}

TEST(Geometry, MutualCrossingsNeedThreeLayers)
{
    // Three segments pairwise crossing at distinct points: a triangle
    // of crossings forces three layers under proper colouring.
    std::vector<Segment> segs = {
        {{0, 0}, {6, 2}},
        {{0, 2}, {6, 0}},
        {{3, -2}, {3, 4}},
    };
    EXPECT_EQ(countCrossings(segs), 3);
    EXPECT_EQ(rdlLayersNeeded(segs), 3);
}

TEST(Geometry, SegmentLength)
{
    EXPECT_DOUBLE_EQ(segmentLength({{0, 0}, {3, 4}}), 5.0);
    EXPECT_DOUBLE_EQ(segmentLength({{1, 1}, {1, 1}}), 0.0);
}

TEST(CrossingLedger, MatchesCountCrossingsUnderRandomAddRemove)
{
    // Random slots on a 5x5 grid, so collinear overlaps, shared
    // endpoints, T-touches, box-edge touches and zero-length segments
    // all occur. After every add and remove the running count must
    // equal countCrossings over the union of the live slots: the
    // bounding-box culls may skip only pairs that cannot cross.
    constexpr int kSlots = 6;
    constexpr int kSide = 5;
    Rng rng(2024);
    auto tile = [&] {
        return Coord{static_cast<int>(rng.nextBounded(kSide)),
                     static_cast<int>(rng.nextBounded(kSide))};
    };
    auto randomSlot = [&] {
        // Fan-outs from one hub, like one CB's links, mixed with
        // free, zero-length and hub-row/column segments.
        std::vector<Segment> segs;
        Coord hub = tile();
        int n = static_cast<int>(rng.nextBounded(5)); // 0..4
        for (int i = 0; i < n; ++i) {
            Coord c = tile();
            switch (rng.nextBounded(4)) {
              case 0: segs.push_back({hub, c}); break;
              case 1: segs.push_back({tile(), c}); break;
              case 2: segs.push_back({c, c}); break;
              default:
                segs.push_back(rng.chance(0.5)
                                   ? Segment{{hub.x, c.y}, {hub.x, hub.y}}
                                   : Segment{{c.x, hub.y}, hub});
                break;
            }
        }
        return segs;
    };

    CrossingLedger ledger;
    std::vector<std::vector<Segment>> live(kSlots);
    int max_seen = 0;
    for (int step = 0; step < 5000; ++step) {
        int slot = static_cast<int>(rng.nextBounded(kSlots));
        auto &segs = live[static_cast<std::size_t>(slot)];
        if (ledger.occupied(slot)) {
            ledger.remove(slot);
            segs.clear();
        } else {
            segs = randomSlot();
            ledger.add(slot, segs);
        }
        EXPECT_EQ(ledger.occupied(slot), !segs.empty());
        std::vector<Segment> all;
        for (const auto &l : live)
            all.insert(all.end(), l.begin(), l.end());
        ASSERT_EQ(ledger.crossings(), countCrossings(all))
            << "step " << step;
        ASSERT_EQ(ledger.size(), all.size()) << "step " << step;
        max_seen = std::max(max_seen, ledger.crossings());
    }
    EXPECT_GT(max_seen, 10); // the grid is dense enough to cross a lot

    ledger.clear();
    EXPECT_EQ(ledger.crossings(), 0);
    EXPECT_EQ(ledger.size(), 0u);
}

TEST(CrossingLedger, TouchesAtBoxEdgesCount)
{
    // Pairs whose bounding boxes meet only on an edge or a corner:
    // the cull must keep them, since the predicate counts them.
    CrossingLedger ledger;
    ledger.add(0, {{{0, 0}, {4, 0}}});
    ledger.add(1, {{{2, 0}, {2, 3}}}); // T-touch on the box edge
    EXPECT_EQ(ledger.crossings(), 1);
    ledger.add(2, {{{4, 0}, {6, 0}}}); // shares only an endpoint
    EXPECT_EQ(ledger.crossings(), 1);
    ledger.add(3, {{{3, 0}, {3, 0}}}); // zero-length, on slot 0's wire
    EXPECT_EQ(ledger.crossings(), 2);
    ledger.remove(0);
    EXPECT_EQ(ledger.crossings(), 0);
}

} // namespace
} // namespace eqx
