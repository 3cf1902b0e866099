/**
 * @file
 * Activity-driven tick scheduling (DESIGN.md §10): active-set and
 * pipeline-state invariants, network-level outputs pinned to frozen
 * goldens, and the pooled packet allocator.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/stats.hh"
#include "golden.hh"
#include "noc/network.hh"

namespace eqx {
namespace {

class CountingSink : public PacketSink
{
  public:
    bool canAccept(const PacketPtr &) override { return true; }
    void
    accept(const PacketPtr &, Cycle) override
    {
        ++delivered;
    }
    int delivered = 0;
};

NetworkSpec
meshSpec(int w, int h)
{
    NetworkSpec spec;
    spec.params.width = w;
    spec.params.height = h;
    return spec;
}

/** Drive @p net with seeded uniform-random traffic for @p cycles. */
void
randomTraffic(Network &net, Rng &rng, Cycle &clock, int cycles,
              double rate)
{
    int n = net.params().numNodes();
    for (int c = 0; c < cycles; ++c) {
        for (NodeId s = 0; s < n; ++s) {
            if (!rng.chance(rate))
                continue;
            NodeId d = static_cast<NodeId>(rng.nextBounded(n));
            if (d != s && net.canInject(s))
                net.inject(s,
                           makePacket(PacketType::ReadReply, s, d, 640));
        }
        net.coreTick(++clock);
    }
}

TEST(Activity, ActiveSetsConsistentThroughoutRandomTraffic)
{
    NetworkSpec spec = meshSpec(8, 8);
    Network net(spec);
    CountingSink sinks[64];
    for (NodeId i = 0; i < 64; ++i)
        net.setSink(i, &sinks[i]);

    Rng rng(7);
    Cycle clock = 0;
    int n = net.params().numNodes();
    for (int c = 0; c < 1500; ++c) {
        for (NodeId s = 0; s < n; ++s) {
            if (!rng.chance(0.08))
                continue;
            NodeId d = static_cast<NodeId>(rng.nextBounded(n));
            if (d != s && net.canInject(s))
                net.inject(s,
                           makePacket(PacketType::ReadReply, s, d, 640));
        }
        net.coreTick(++clock);
        // The invariant the scheduler's correctness rests on: no
        // component holding work ever leaves its active set.
        ASSERT_TRUE(net.activeSetsConsistent()) << "cycle " << c;
    }
    // Stop injecting; the network must fully drain through the active
    // path (nothing stranded by a premature deregistration).
    for (int c = 0; c < 2000 && !net.drained(); ++c)
        net.coreTick(++clock);
    EXPECT_TRUE(net.drained());
    EXPECT_TRUE(net.activeSetsConsistent());
    int total = 0;
    for (const auto &s : sinks)
        total += s.delivered;
    EXPECT_GT(total, 0);
}

/**
 * Run seeded traffic to drain, checking the scheduler invariants every
 * cycle, and require the exported statistics to match @p want. Each
 * golden was captured at commit 7f8757d, where it equalled the output
 * of both the activity-scheduled and the exhaustive tick loop.
 */
void
expectGolden(NetworkSpec spec, double rate, int cycles,
             const golden::Golden &want)
{
    Network net(spec);
    int n = net.params().numNodes();
    std::vector<CountingSink> sinks(static_cast<std::size_t>(n));
    for (NodeId i = 0; i < n; ++i)
        net.setSink(i, &sinks[static_cast<std::size_t>(i)]);

    Rng rng(11);
    Cycle clock = 0;
    for (int c = 0; c < cycles; ++c) {
        randomTraffic(net, rng, clock, 1, rate);
        ASSERT_TRUE(net.activeSetsConsistent()) << "cycle " << clock;
        for (NodeId r = 0; r < net.numRouters(); ++r)
            ASSERT_TRUE(net.router(r).pipelineStateConsistent())
                << "cycle " << clock << " router " << r;
    }
    for (int c = 0; c < 4000 && !net.drained(); ++c)
        net.coreTick(++clock);
    ASSERT_TRUE(net.drained());

    StatGroup sg;
    net.exportStats(sg, "net");
    EXPECT_EQ(golden::ofStats(sg, clock), want);
}

/**
 * Per-stage SoA invariants (DESIGN.md §14): drive random traffic and
 * check every router's packed pipeline state each cycle — pending-mask
 * membership per stage (rc/va/sa), the vaPending_/vaBlocked_
 * partition with waiter registration for parked nominations, the
 * freeOutVcs_ mirror, busy-output ownership, and buffered-flit
 * conservation.
 */
void
expectPipelineConsistent(NetworkSpec spec, double rate, int cycles)
{
    Network net(spec);
    int n = net.params().numNodes();
    std::vector<CountingSink> sinks(static_cast<std::size_t>(n));
    for (NodeId i = 0; i < n; ++i)
        net.setSink(i, &sinks[static_cast<std::size_t>(i)]);
    Rng rng(23);
    Cycle clock = 0;
    for (int c = 0; c < cycles; ++c) {
        for (NodeId s = 0; s < n; ++s) {
            if (!rng.chance(rate))
                continue;
            NodeId d = static_cast<NodeId>(rng.nextBounded(n));
            if (d != s && net.canInject(s))
                net.inject(s,
                           makePacket(PacketType::ReadReply, s, d, 640));
        }
        net.coreTick(++clock);
        ASSERT_TRUE(net.activeSetsConsistent()) << "cycle " << c;
        for (NodeId r = 0; r < n; ++r)
            ASSERT_TRUE(net.router(r).pipelineStateConsistent())
                << "cycle " << c << " router " << r;
    }
    for (int c = 0; c < 3000 && !net.drained(); ++c)
        net.coreTick(++clock);
    ASSERT_TRUE(net.drained());
    for (NodeId r = 0; r < n; ++r)
        EXPECT_TRUE(net.router(r).pipelineStateConsistent());
}

TEST(Activity, PipelineStateConsistent_AdaptiveWithVaParking)
{
    // Adaptive routing: the lazy-VA parking path is live.
    expectPipelineConsistent(meshSpec(8, 8), 0.10, 900);
}

TEST(Activity, PipelineStateConsistent_ClassVcsNoParking)
{
    // classVcs gates parking off (monopoly windows are
    // time-dependent): every nomination stays on vaPending_.
    NetworkSpec spec = meshSpec(6, 6);
    spec.params.classVcs = true;
    spec.params.routing = RoutingMode::XY;
    spec.params.vcMono = true;
    expectPipelineConsistent(spec, 0.08, 900);
}

TEST(Activity, PipelineStateConsistent_Loaded16x16)
{
    // The tentpole regime: a big mesh at high injection, SA/VA
    // saturated.
    expectPipelineConsistent(meshSpec(16, 16), 0.12, 400);
}

TEST(Activity, BitIdenticalToExhaustive_AdaptiveRouting)
{
    expectGolden(meshSpec(8, 8), 0.08, 1200,
                 {0xadd2b4a5f9e6e638ULL, 1413, 126195, 4034, 342922});
}

TEST(Activity, BitIdenticalToExhaustive_ClassVcsVcMono)
{
    NetworkSpec spec = meshSpec(6, 6);
    spec.params.classVcs = true;
    spec.params.routing = RoutingMode::XY;
    spec.params.vcMono = true;
    expectGolden(spec, 0.06, 1000,
                 {0xe4de408a606a13e0ULL, 1047, 52145, 2087, 20318});
}

TEST(Activity, BitIdenticalToExhaustive_EirGroups)
{
    // EquiNox CB NI at node 27 with interposer links into four EIRs:
    // exercises the remote-injection wires and multi-buffer NI.
    NetworkSpec spec = meshSpec(8, 8);
    spec.eirGroups[{27}] = {11, 25, 29, 43};
    expectGolden(spec, 0.05, 1000,
                 {0x4ffb0cd8598bd3c4ULL, 1070, 99310, 3136, 73153});
}

TEST(Activity, BitIdenticalToExhaustive_FastClockSubnet)
{
    // DA2Mesh-style 2.5x internal clock: multiple internal ticks per
    // core cycle must drain the event wheel identically.
    NetworkSpec spec = meshSpec(4, 4);
    spec.params.ticksEvenCycle = 3;
    spec.params.ticksOddCycle = 2;
    expectGolden(spec, 0.10, 800,
                 {0x1265bcdafeac0b74ULL, 806, 21215, 1165, 4907});
}

TEST(Activity, ResetStatsMidRunKeepsModesIdentical)
{
    // Warmup-style stats reset while flits are in flight: occupancy
    // and parked-VA request accounting restart from the reset tick.
    // Golden captured like expectGolden's.
    Network net(meshSpec(6, 6));
    CountingSink sink;
    for (NodeId i = 0; i < 36; ++i)
        net.setSink(i, &sink);
    Rng rng(3);
    Cycle clock = 0;
    randomTraffic(net, rng, clock, 300, 0.08);
    net.resetStats();
    randomTraffic(net, rng, clock, 300, 0.08);
    StatGroup sg;
    net.exportStats(sg, "net");
    EXPECT_EQ(golden::ofStats(sg, clock),
              (golden::Golden{0xbf2443226e9d2cf2ULL, 600, 18511, 732,
                              30640}));
}

/**
 * Many-to-few traffic: every node sends to one of four hot nodes (the
 * CB side of the paper's pattern), and the hot nodes send back at a
 * high rate. The links into the hot nodes run out of credits, so
 * routers and NIs park (DESIGN.md §10); node 27 is an EquiNox CB whose
 * five injection buffers stall one by one.
 */
NetworkSpec
hotspotSpec()
{
    NetworkSpec spec = meshSpec(8, 8);
    spec.eirGroups[{27}] = {11, 25, 29, 43};
    return spec;
}

void
hotspotTraffic(Network &net, Rng &rng, Cycle &clock, int cycles)
{
    static const NodeId kHot[4] = {18, 21, 27, 45};
    int n = net.params().numNodes();
    for (int c = 0; c < cycles; ++c) {
        for (NodeId s = 0; s < n; ++s) {
            bool hot = s == 18 || s == 21 || s == 27 || s == 45;
            if (!rng.chance(hot ? 0.6 : 0.1))
                continue;
            NodeId d = hot ? static_cast<NodeId>(rng.nextBounded(n))
                           : kHot[rng.nextBounded(4)];
            if (d != s && net.canInject(s))
                net.inject(s,
                           makePacket(PacketType::ReadReply, s, d, 640));
        }
        net.coreTick(++clock);
    }
}

TEST(Activity, ParkedComponentsStayNoOpsUnderHotspotTraffic)
{
    // Every cycle: a router or NI off its active set is drained, or
    // parked with its next visit still a no-op (activeSetsConsistent),
    // and every router's pipeline state is consistent. Parking must
    // actually engage, and the network must drain through the wakes.
    Network net(hotspotSpec());
    std::vector<CountingSink> sinks(64);
    for (NodeId i = 0; i < 64; ++i)
        net.setSink(i, &sinks[static_cast<std::size_t>(i)]);
    Rng rng(5);
    Cycle clock = 0;
    int most_routers = 0, most_nis = 0;
    for (int c = 0; c < 1500; ++c) {
        hotspotTraffic(net, rng, clock, 1);
        ASSERT_TRUE(net.activeSetsConsistent()) << "cycle " << clock;
        int routers = 0, nis = 0;
        for (NodeId r = 0; r < net.numRouters(); ++r) {
            ASSERT_TRUE(net.router(r).pipelineStateConsistent())
                << "cycle " << clock << " router " << r;
            routers += net.router(r).parked();
            nis += net.ni(r).parked();
        }
        most_routers = std::max(most_routers, routers);
        most_nis = std::max(most_nis, nis);
    }
    EXPECT_GT(most_routers, 8);
    EXPECT_GT(most_nis, 8);
    for (int c = 0; c < 6000 && !net.drained(); ++c) {
        net.coreTick(++clock);
        ASSERT_TRUE(net.activeSetsConsistent()) << "cycle " << clock;
    }
    EXPECT_TRUE(net.drained());
}

TEST(Activity, CongestedRunCutByMaxCyclesMatchesGolden)
{
    // Cut mid-congestion, as a run that hits maxCycles is: parked
    // routers and NIs still owe the stall counts and occupancy of the
    // ticks they skipped, and the export must include them. Golden
    // captured at commit 78ee819, before routers and NIs parked.
    Network net(hotspotSpec());
    CountingSink sink;
    for (NodeId i = 0; i < 64; ++i)
        net.setSink(i, &sink);
    Rng rng(5);
    Cycle clock = 0;
    hotspotTraffic(net, rng, clock, 700);
    net.resetStats();
    hotspotTraffic(net, rng, clock, 800);
    StatGroup sg;
    net.exportStats(sg, "net");
    EXPECT_EQ(golden::ofStats(sg, clock),
              (golden::Golden{0x2159c9f521064996ULL, 1500, 17521, 762,
                              276758}));
}

TEST(PacketPool, RefcountSemantics)
{
    PacketPtr p = makePacket(PacketType::ReadRequest, 1, 2, 128);
    EXPECT_EQ(p.useCount(), 1u);
    PacketPtr copy = p;
    EXPECT_EQ(p.useCount(), 2u);
    PacketPtr moved = std::move(copy);
    EXPECT_EQ(p.useCount(), 2u); // move steals, no bump
    EXPECT_EQ(copy, nullptr);    // NOLINT(bugprone-use-after-move)
    moved.reset();
    EXPECT_EQ(p.useCount(), 1u);
}

TEST(PacketPool, ReleaseRecyclesAndResets)
{
    std::size_t before = packetPoolFreeCount();
    PacketPtr p = makePacket(PacketType::WriteRequest, 3, 4, 640, 0xAB,
                             /*tag=*/99);
    p->cycleInjected = 123;
    Packet *raw = p.get();
    std::uint64_t id = p->id;
    p.reset();
    EXPECT_GE(packetPoolFreeCount(), before); // returned to the arena

    // LIFO freelist: the very next allocation reuses the same slot,
    // and the recycled packet is indistinguishable from a fresh one.
    PacketPtr q = makePacket(PacketType::ReadReply, 5, 6, 640);
    EXPECT_EQ(q.get(), raw);
    EXPECT_NE(q->id, id);
    EXPECT_EQ(q->tag, 0u);
    EXPECT_EQ(q->cycleInjected, 0u);
    EXPECT_EQ(q->src, 5);
    EXPECT_EQ(q->dst, 6);
    EXPECT_EQ(q.useCount(), 1u);
}

TEST(PacketPool, FlitMovesDoNotTouchRefcount)
{
    PacketPtr p = makePacket(PacketType::ReadReply, 0, 1, 640);
    Flit f;
    f.pkt = p; // one copy: the flit holds a reference
    EXPECT_EQ(p.useCount(), 2u);
    Flit g = std::move(f);
    EXPECT_EQ(p.useCount(), 2u); // moving the flit is refcount-free
    g.pkt.reset();
    EXPECT_EQ(p.useCount(), 1u);
}

} // namespace
} // namespace eqx
