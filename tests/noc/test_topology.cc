/**
 * @file
 * Topology layer (DESIGN.md §17): coordinate/router mapping, wrap
 * wiring and wrapped distance on the torus, dateline VC classes,
 * CMesh concentration geometry — plus whole-network wrap-link
 * correctness: torus all-pairs delivery under both routing modes,
 * high-load drain pinned to a frozen golden, and concentrated
 * slot-indexed ejection.
 */

#include <gtest/gtest.h>

#include <vector>

#include "golden.hh"
#include "noc/network.hh"
#include "noc/topology.hh"

namespace eqx {
namespace {

TEST(Topology, MeshMatchesLegacyGridGeometry)
{
    Mesh2D t(8, 8);
    EXPECT_STREQ(t.name(), "mesh");
    EXPECT_EQ(t.numNodes(), 64);
    EXPECT_EQ(t.numRouters(), 64);
    EXPECT_FALSE(t.wraps());
    EXPECT_FALSE(t.concentrated());

    // Tile and router spaces coincide at concentration 1.
    for (NodeId n = 0; n < 64; ++n) {
        EXPECT_EQ(t.routerOf(n), n);
        EXPECT_EQ(t.tileSlot(n), 0);
        EXPECT_EQ(t.node(t.coord(n)), n);
    }

    // distance is plain Manhattan and dimOrderDir is the legacy XY
    // rule — the byte-identity contract for every mesh experiment.
    for (NodeId a = 0; a < 64; ++a) {
        for (NodeId b = 0; b < 64; ++b) {
            Coord ca = t.coord(a), cb = t.coord(b);
            EXPECT_EQ(t.distance(ca, cb), manhattan(ca, cb));
            EXPECT_EQ(t.dimOrderDir(ca, cb), xyDirection(ca, cb));
            EXPECT_EQ(t.wrapClass(ca, cb, Dir::East), 1);
        }
    }

    // Edges have no links.
    EXPECT_EQ(t.neighbor(0, Dir::North), -1);
    EXPECT_EQ(t.neighbor(0, Dir::West), -1);
    EXPECT_EQ(t.neighbor(0, Dir::East), 1);
    EXPECT_EQ(t.neighbor(0, Dir::South), 8);
    EXPECT_EQ(t.neighbor(63, Dir::East), -1);
    EXPECT_EQ(t.neighbor(63, Dir::South), -1);
}

TEST(Topology, TorusNeighborWrapsEveryRing)
{
    Torus2D t(8, 8);
    EXPECT_STREQ(t.name(), "torus");
    EXPECT_TRUE(t.wraps());

    // Interior links match the mesh; the edges close into rings.
    EXPECT_EQ(t.neighbor(0, Dir::East), 1);
    EXPECT_EQ(t.neighbor(0, Dir::West), 7);   // row 0 wraps x
    EXPECT_EQ(t.neighbor(0, Dir::North), 56); // col 0 wraps y
    EXPECT_EQ(t.neighbor(7, Dir::East), 0);
    EXPECT_EQ(t.neighbor(56, Dir::South), 0);
    EXPECT_EQ(t.neighbor(63, Dir::East), 56);
    EXPECT_EQ(t.neighbor(63, Dir::South), 7);

    // Every router has all four links; every link is reciprocal.
    constexpr Dir kOpp[4] = {Dir::South, Dir::West, Dir::North,
                             Dir::East};
    for (int r = 0; r < 64; ++r) {
        for (Dir d : {Dir::North, Dir::East, Dir::South, Dir::West}) {
            int n = t.neighbor(r, d);
            ASSERT_GE(n, 0);
            EXPECT_EQ(t.neighbor(n, kOpp[static_cast<int>(d)]), r);
        }
    }
}

TEST(Topology, TorusDistanceTakesWrapIffShorter)
{
    Torus2D t(8, 8);
    // Along one ring: 7 forward hops collapse to 1 via the wrap.
    EXPECT_EQ(t.distance({0, 0}, {7, 0}), 1);
    EXPECT_EQ(t.distance({0, 0}, {5, 0}), 3);
    // Exactly half-way: both paths cost the same.
    EXPECT_EQ(t.distance({0, 0}, {4, 0}), 4);
    // Inside the half-ring the inward path is minimal, as on a mesh.
    EXPECT_EQ(t.distance({0, 0}, {3, 0}), 3);
    // Both dimensions wrap independently.
    EXPECT_EQ(t.distance({1, 1}, {6, 6}), 6);
    EXPECT_EQ(t.distance({0, 0}, {7, 7}), 2);
    // Symmetric, and never longer than Manhattan.
    for (int a = 0; a < 64; ++a) {
        for (int b = 0; b < 64; ++b) {
            Coord ca = t.coord(a), cb = t.coord(b);
            EXPECT_EQ(t.distance(ca, cb), t.distance(cb, ca));
            EXPECT_LE(t.distance(ca, cb), manhattan(ca, cb));
        }
    }
}

TEST(Topology, TorusRouteComputeFollowsWrappedMinimum)
{
    Torus2D t(8, 8);
    // Wrap strictly shorter: go outward through the dateline.
    EXPECT_EQ(t.dimOrderDir({0, 0}, {7, 0}), Dir::West);
    EXPECT_EQ(t.dimOrderDir({7, 0}, {0, 0}), Dir::East);
    EXPECT_EQ(t.dimOrderDir({0, 0}, {0, 7}), Dir::North);
    // Inward strictly shorter: identical to the mesh rule.
    EXPECT_EQ(t.dimOrderDir({0, 0}, {3, 0}), Dir::East);
    // Even-ring tie: break toward East/South (the positive
    // direction the mesh prefers), wherever the tie sits.
    EXPECT_EQ(t.dimOrderDir({0, 0}, {4, 0}), Dir::East);
    EXPECT_EQ(t.dimOrderDir({5, 0}, {1, 0}), Dir::East);
    EXPECT_EQ(t.dimOrderDir({0, 0}, {0, 4}), Dir::South);
    // X resolves before Y, exactly as dimension order demands.
    EXPECT_EQ(t.dimOrderDir({1, 1}, {7, 6}), Dir::West);

    // The adaptive candidate set: one direction per unresolved
    // dimension, x first, each following the same wrapped minimum.
    RouteCandidates c = t.minimalRouterDirs({1, 1}, {7, 6});
    ASSERT_EQ(c.size(), 2u);
    EXPECT_EQ(c[0], Dir::West);  // 1 -> 7 wraps (2 < 6)
    EXPECT_EQ(c[1], Dir::North); // 1 -> 6 wraps (3 < 5)
    c = t.minimalRouterDirs({0, 0}, {3, 0});
    ASSERT_EQ(c.size(), 1u);
    EXPECT_EQ(c[0], Dir::East);
    EXPECT_TRUE(t.minimalRouterDirs({2, 5}, {2, 5}).empty());

    // Every candidate direction actually decreases the wrapped
    // distance by one — the "minimal" in minimal-adaptive.
    for (int a = 0; a < 64; ++a) {
        for (int b = 0; b < 64; ++b) {
            if (a == b)
                continue;
            Coord ca = t.coord(a), cb = t.coord(b);
            for (Dir d : t.minimalRouterDirs(ca, cb)) {
                int n = t.neighbor(a, d);
                ASSERT_GE(n, 0);
                EXPECT_EQ(t.distance(t.coord(n), cb),
                          t.distance(ca, cb) - 1);
            }
        }
    }
}

TEST(Topology, TorusWrapClassFlipsAtTheDateline)
{
    Torus2D t(8, 8);
    // Heading East from 6 toward 2: the wrap link (7 -> 0) is still
    // ahead, so the packet rides class 0.
    EXPECT_EQ(t.wrapClass({6, 0}, {2, 0}, Dir::East), 0);
    // Once wrapped (now at 0, dest 2) the same heading is class 1 —
    // the (router, class) order strictly increased, never to return.
    EXPECT_EQ(t.wrapClass({0, 0}, {2, 0}, Dir::East), 1);
    // Westbound mirror.
    EXPECT_EQ(t.wrapClass({1, 0}, {6, 0}, Dir::West), 0);
    EXPECT_EQ(t.wrapClass({7, 0}, {6, 0}, Dir::West), 1);
    // Y rings classify on y the same way.
    EXPECT_EQ(t.wrapClass({0, 6}, {0, 1}, Dir::South), 0);
    EXPECT_EQ(t.wrapClass({0, 0}, {0, 1}, Dir::South), 1);
    EXPECT_EQ(t.wrapClass({0, 1}, {0, 7}, Dir::North), 0);

    // The acyclicity argument is per ring: while the escape path
    // stays in one dimension the class never regresses 1 -> 0 (a
    // class-1 packet never takes that ring's wrap link). Dimension
    // order hands x-rings to y-rings acyclically, and the y-ring
    // restarts its own dateline classification.
    for (int a = 0; a < 64; ++a) {
        for (int b = 0; b < 64; ++b) {
            Coord cur = t.coord(a);
            Coord dst = t.coord(b);
            int cls = 0;
            bool in_x = true;
            int guard = 0;
            while (cur != dst) {
                Dir d = t.dimOrderDir(cur, dst);
                bool x_hop = d == Dir::East || d == Dir::West;
                if (in_x && !x_hop) {
                    in_x = false; // new ring, fresh dateline class
                    cls = 0;
                }
                EXPECT_EQ(x_hop, in_x) << "y-ring fed back into x";
                int next_cls = t.wrapClass(cur, dst, d);
                EXPECT_GE(next_cls, cls) << "class regressed in-ring";
                cls = next_cls;
                int n = t.neighbor(t.node(cur), d);
                ASSERT_GE(n, 0);
                cur = t.coord(static_cast<NodeId>(n));
                ASSERT_LT(++guard, 16) << "escape path did not converge";
            }
        }
    }
}

TEST(Topology, CMeshConcentratesTilesOntoRouterGrid)
{
    CMesh t(8, 8, 2);
    EXPECT_STREQ(t.name(), "cmesh");
    EXPECT_TRUE(t.concentrated());
    EXPECT_EQ(t.numNodes(), 64);  // tiles keep the full grid
    EXPECT_EQ(t.numRouters(), 16);
    EXPECT_EQ(t.routerCols(), 4);
    EXPECT_EQ(t.routerRows(), 4);

    // The 2x2 block at tiles (0,0)..(1,1) shares router 0; slots run
    // in ascending tile-id order — the ejection-port contract.
    EXPECT_EQ(t.routerOf(0), 0);
    EXPECT_EQ(t.routerOf(1), 0);
    EXPECT_EQ(t.routerOf(8), 0);
    EXPECT_EQ(t.routerOf(9), 0);
    EXPECT_EQ(t.tileSlot(0), 0);
    EXPECT_EQ(t.tileSlot(1), 1);
    EXPECT_EQ(t.tileSlot(8), 2);
    EXPECT_EQ(t.tileSlot(9), 3);
    // Next block over.
    EXPECT_EQ(t.routerOf(2), 1);
    EXPECT_EQ(t.routerOf(63), 15);
    EXPECT_EQ(t.tileSlot(63), 3);
    EXPECT_EQ(t.routerCoordOf(63).x, 3);
    EXPECT_EQ(t.routerCoordOf(63).y, 3);

    // Distance is router-grid Manhattan between the serving routers;
    // tiles under one router are 0 hops apart.
    EXPECT_EQ(t.distance({0, 0}, {1, 1}), 0);
    EXPECT_EQ(t.distance({0, 0}, {7, 7}), 6);
    EXPECT_EQ(t.distance({1, 0}, {2, 0}), 1);

    // Router links form a plain (non-wrapping) 4x4 mesh.
    EXPECT_EQ(t.neighbor(0, Dir::West), -1);
    EXPECT_EQ(t.neighbor(0, Dir::East), 1);
    EXPECT_EQ(t.neighbor(0, Dir::South), 4);
    EXPECT_EQ(t.neighbor(15, Dir::East), -1);
}

TEST(Topology, KindNamesRoundTripAndFactoryDispatches)
{
    for (TopologyKind k : {TopologyKind::Mesh, TopologyKind::Torus,
                           TopologyKind::CMesh}) {
        TopologyKind back;
        ASSERT_TRUE(parseTopologyKind(topologyKindName(k), back));
        EXPECT_EQ(back, k);
    }
    TopologyKind k;
    EXPECT_TRUE(parseTopologyKind("TORUS", k)); // case-insensitive
    EXPECT_EQ(k, TopologyKind::Torus);
    EXPECT_FALSE(parseTopologyKind("hypercube", k));

    EXPECT_STREQ(makeTopology(8, 8)->name(), "mesh");
    EXPECT_STREQ(
        makeTopology(8, 8, {TopologyKind::Torus, 1})->name(), "torus");
    auto cm = makeTopology(8, 8, {TopologyKind::CMesh, 2});
    EXPECT_STREQ(cm->name(), "cmesh");
    EXPECT_EQ(cm->numRouters(), 16);
}

// ---- whole-network wrap-link correctness ----

/** Sink that records deliveries. */
class TestSink : public PacketSink
{
  public:
    bool canAccept(const PacketPtr &) override { return true; }
    void
    accept(const PacketPtr &pkt, Cycle) override
    {
        delivered.push_back(pkt);
    }

    std::vector<PacketPtr> delivered;
};

NetworkSpec
topoSpec(int w, int h, TopologyKind kind, RoutingMode routing,
         int conc = 2)
{
    NetworkSpec spec;
    spec.params.width = w;
    spec.params.height = h;
    spec.params.routing = routing;
    spec.params.topo.kind = kind;
    spec.params.topo.concentration = conc;
    if (kind == TopologyKind::Torus) {
        // Dateline discipline: XY splits the VCs into class halves,
        // minimal-adaptive reserves a Duato escape pair on top.
        spec.params.vcsPerPort =
            routing == RoutingMode::XY ? 2 : 3;
        spec.params.classVcs = false;
    }
    return spec;
}

void
runCycles(Network &net, Cycle &clock, int n)
{
    for (int i = 0; i < n; ++i)
        net.coreTick(++clock);
}

TEST(TorusNetwork, WrapLinkShortensZeroLoadPath)
{
    // (0,0) -> (7,0) is 7 mesh hops but 1 torus hop: its zero-load
    // latency must match the 1-hop neighbor, not the 7-hop walk.
    Network net(topoSpec(8, 8, TopologyKind::Torus, RoutingMode::XY));
    TestSink sink;
    for (NodeId n = 0; n < 64; ++n)
        net.setSink(n, &sink);
    Cycle clock = 0;

    auto near = makePacket(PacketType::ReadRequest, 0, 1, 128);
    net.inject(0, near);
    runCycles(net, clock, 40);
    auto wrap = makePacket(PacketType::ReadRequest, 0, 7, 128);
    net.inject(0, wrap);
    runCycles(net, clock, 40);

    ASSERT_EQ(sink.delivered.size(), 2u);
    EXPECT_EQ(wrap->networkLatency(), near->networkLatency());
    EXPECT_TRUE(net.drained());
}

class TorusRoutingModes : public ::testing::TestWithParam<RoutingMode>
{};

TEST_P(TorusRoutingModes, AllPairsDeliveryAndDrain)
{
    Network net(topoSpec(4, 4, TopologyKind::Torus, GetParam()));
    std::vector<TestSink> sinks(16);
    for (NodeId n = 0; n < 16; ++n)
        net.setSink(n, &sinks[static_cast<std::size_t>(n)]);
    Cycle clock = 0;
    int sent = 0;
    for (NodeId s = 0; s < 16; ++s) {
        for (NodeId d = 0; d < 16; ++d) {
            if (s == d)
                continue;
            auto pkt = makePacket(PacketType::ReadRequest, s, d, 128);
            while (!net.inject(s, pkt))
                net.coreTick(++clock);
            ++sent;
        }
    }
    for (int i = 0; i < 3000 && !net.drained(); ++i)
        net.coreTick(++clock);
    ASSERT_TRUE(net.drained()) << "torus wedged: wrap cycle?";
    int got = 0;
    for (NodeId d = 0; d < 16; ++d) {
        // Each tile hears from the 15 others exactly once.
        EXPECT_EQ(sinks[static_cast<std::size_t>(d)].delivered.size(),
                  15u);
        for (const auto &pkt :
             sinks[static_cast<std::size_t>(d)].delivered) {
            EXPECT_EQ(pkt->dst, d);
            ++got;
        }
    }
    EXPECT_EQ(got, sent); // conservation
}

INSTANTIATE_TEST_SUITE_P(XyAndAdaptive, TorusRoutingModes,
                         ::testing::Values(RoutingMode::XY,
                                           RoutingMode::MinimalAdaptive));

/**
 * High-load 8x8 torus: every tile fires a deterministic burst that
 * crosses the datelines both ways. The fabric must drain (deadlock
 * freedom under load) and its exported statistics must match the
 * golden captured at commit 7f8757d, where both the activity-scheduled
 * and the exhaustive tick loop produced it (bit-identity on wrap
 * links).
 */
TEST(TorusNetwork, HighLoadDrainsIdenticallyUnderBothTickModes)
{
    NetworkSpec spec =
        topoSpec(8, 8, TopologyKind::Torus, RoutingMode::MinimalAdaptive);
    Network net(spec);
    std::vector<TestSink> sinks(64);
    for (NodeId n = 0; n < 64; ++n)
        net.setSink(n, &sinks[static_cast<std::size_t>(n)]);
    Cycle clock = 0;
    for (int round = 1; round <= 6; ++round) {
        for (NodeId s = 0; s < 64; ++s) {
            // Deterministic scatter with plenty of dateline crossings.
            NodeId d = static_cast<NodeId>((s * 13 + round * 29) % 64);
            if (d == s)
                d = (d + 1) % 64;
            auto pkt = makePacket(PacketType::ReadRequest, s, d, 256);
            while (!net.inject(s, pkt))
                net.coreTick(++clock);
        }
    }
    for (int i = 0; i < 5000 && !net.drained(); ++i)
        net.coreTick(++clock);
    ASSERT_TRUE(net.drained()) << "torus storm wedged";
    std::size_t delivered = 0;
    for (const auto &s : sinks)
        delivered += s.delivered.size();
    EXPECT_EQ(delivered, 6u * 64u);
    StatGroup sg;
    net.exportStats(sg, "net");
    EXPECT_EQ(golden::ofStats(sg, clock),
              (golden::Golden{0x77339cf0b763d01fULL, 109, 3848, 384,
                              8441}));
}

TEST(CmeshNetwork, ConcentratedEjectionReachesEveryTileInABlock)
{
    // All four tiles behind router 15 (tiles 54, 55, 62, 63) must be
    // reachable — slot-indexed ejection picks the right port.
    Network net(topoSpec(8, 8, TopologyKind::CMesh,
                         RoutingMode::XY, /*conc=*/2));
    std::vector<TestSink> sinks(64);
    for (NodeId n = 0; n < 64; ++n)
        net.setSink(n, &sinks[static_cast<std::size_t>(n)]);
    Cycle clock = 0;
    int sent = 0;
    for (NodeId d : {NodeId(54), NodeId(55), NodeId(62), NodeId(63),
                     NodeId(0), NodeId(9)}) {
        for (NodeId s : {NodeId(0), NodeId(1), NodeId(8), NodeId(28)}) {
            if (s == d)
                continue;
            auto pkt = makePacket(PacketType::ReadRequest, s, d, 128);
            while (!net.inject(s, pkt))
                net.coreTick(++clock);
            ++sent;
        }
    }
    for (int i = 0; i < 2000 && !net.drained(); ++i)
        net.coreTick(++clock);
    ASSERT_TRUE(net.drained());
    int got = 0;
    for (NodeId d = 0; d < 64; ++d) {
        for (const auto &pkt :
             sinks[static_cast<std::size_t>(d)].delivered) {
            EXPECT_EQ(pkt->dst, d) << "ejected at the wrong tile";
            ++got;
        }
    }
    EXPECT_EQ(got, sent);
}

TEST(CmeshNetwork, AllPairsDelivery)
{
    Network net(topoSpec(4, 4, TopologyKind::CMesh, RoutingMode::XY));
    std::vector<TestSink> sinks(16);
    for (NodeId n = 0; n < 16; ++n)
        net.setSink(n, &sinks[static_cast<std::size_t>(n)]);
    Cycle clock = 0;
    int sent = 0;
    for (NodeId s = 0; s < 16; ++s) {
        for (NodeId d = 0; d < 16; ++d) {
            if (s == d)
                continue;
            auto pkt = makePacket(PacketType::ReadRequest, s, d, 128);
            while (!net.inject(s, pkt))
                net.coreTick(++clock);
            ++sent;
        }
    }
    for (int i = 0; i < 3000 && !net.drained(); ++i)
        net.coreTick(++clock);
    ASSERT_TRUE(net.drained());
    int got = 0;
    for (NodeId d = 0; d < 16; ++d) {
        EXPECT_EQ(sinks[static_cast<std::size_t>(d)].delivered.size(),
                  15u);
        got += static_cast<int>(
            sinks[static_cast<std::size_t>(d)].delivered.size());
    }
    EXPECT_EQ(got, sent);
}

} // namespace
} // namespace eqx
