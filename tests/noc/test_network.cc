/** @file Whole-network behaviour: delivery, latency, wiring, clocking. */

#include <gtest/gtest.h>

#include <vector>

#include "noc/network.hh"

namespace eqx {
namespace {

/** Sink that records deliveries and can refuse (backpressure tests). */
class TestSink : public PacketSink
{
  public:
    bool
    canAccept(const PacketPtr &) override
    {
        return accepting;
    }
    void
    accept(const PacketPtr &pkt, Cycle) override
    {
        delivered.push_back(pkt);
    }

    bool accepting = true;
    std::vector<PacketPtr> delivered;
};

NetworkSpec
meshSpec(int w, int h, RoutingMode routing = RoutingMode::XY)
{
    NetworkSpec spec;
    spec.params.width = w;
    spec.params.height = h;
    spec.params.routing = routing;
    return spec;
}

void
runCycles(Network &net, Cycle &clock, int n)
{
    for (int i = 0; i < n; ++i)
        net.coreTick(++clock);
}

TEST(Network, SinglePacketDelivery)
{
    Network net(meshSpec(4, 4));
    TestSink sink;
    net.setSink(15, &sink);
    Cycle clock = 0;
    auto pkt = makePacket(PacketType::ReadRequest, 0, 15, 128);
    ASSERT_TRUE(net.inject(0, pkt));
    runCycles(net, clock, 60);
    ASSERT_EQ(sink.delivered.size(), 1u);
    EXPECT_EQ(sink.delivered[0]->id, pkt->id);
    EXPECT_GE(pkt->cycleInjected, pkt->cycleCreated);
    EXPECT_GT(pkt->cycleEjected, pkt->cycleInjected);
    EXPECT_TRUE(net.drained());
}

TEST(Network, ZeroLoadLatencyScalesWithHops)
{
    // Per-hop cost is fixed (RC/VA + SA + link); compare 1 hop vs 6.
    Network net(meshSpec(8, 8));
    TestSink sink;
    for (NodeId n = 0; n < 64; ++n)
        net.setSink(n, &sink);
    Cycle clock = 0;

    auto near = makePacket(PacketType::ReadRequest, 0, 1, 128);
    net.inject(0, near);
    runCycles(net, clock, 40);
    auto far = makePacket(PacketType::ReadRequest, 0, 7, 128);
    net.inject(0, far);
    runCycles(net, clock, 80);

    // (0,0) -> (1,0) is 1 hop; (0,0) -> (7,0) is 7 hops: 6 extra.
    Cycle lat1 = near->networkLatency();
    Cycle lat7 = far->networkLatency();
    EXPECT_NEAR(static_cast<double>(lat7 - lat1), 6 * 3, 2.0);
}

TEST(Network, MultiFlitPacketArrivesWhole)
{
    Network net(meshSpec(4, 4));
    TestSink sink;
    net.setSink(12, &sink);
    Cycle clock = 0;
    auto pkt = makePacket(PacketType::ReadReply, 3, 12, 640); // 5 flits
    net.inject(3, pkt);
    runCycles(net, clock, 80);
    ASSERT_EQ(sink.delivered.size(), 1u);
    EXPECT_EQ(net.activity().replyBits, 640u);
}

class RoutingModes : public ::testing::TestWithParam<RoutingMode> {};

TEST_P(RoutingModes, AllPairsDelivery)
{
    Network net(meshSpec(4, 4, GetParam()));
    std::vector<TestSink> sinks(16);
    for (NodeId n = 0; n < 16; ++n)
        net.setSink(n, &sinks[static_cast<std::size_t>(n)]);
    Cycle clock = 0;
    int sent = 0;
    for (NodeId s = 0; s < 16; ++s) {
        for (NodeId d = 0; d < 16; ++d) {
            if (s == d)
                continue;
            // NI queue is finite: tick until accepted.
            auto pkt = makePacket(PacketType::ReadRequest, s, d, 128);
            while (!net.inject(s, pkt))
                net.coreTick(++clock);
            ++sent;
        }
    }
    for (int i = 0; i < 3000 && !net.drained(); ++i)
        net.coreTick(++clock);
    int got = 0;
    for (auto &sink : sinks)
        got += static_cast<int>(sink.delivered.size());
    EXPECT_EQ(got, sent);
    EXPECT_TRUE(net.drained());
}

INSTANTIATE_TEST_SUITE_P(Both, RoutingModes,
                         ::testing::Values(RoutingMode::XY,
                                           RoutingMode::MinimalAdaptive),
                         [](const auto &info) {
                             return info.param == RoutingMode::XY
                                        ? "XY"
                                        : "MinimalAdaptive";
                         });

TEST(Network, WrongClassInjectionPanics)
{
    NetworkSpec spec = meshSpec(4, 4);
    spec.params.classes = {true, false}; // request network
    Network net(spec);
    auto reply = makePacket(PacketType::ReadReply, 0, 5, 640);
    EXPECT_THROW(net.inject(0, reply), std::logic_error);
}

TEST(Network, EjectionBackpressureHoldsPackets)
{
    Network net(meshSpec(4, 4));
    TestSink sink;
    sink.accepting = false;
    net.setSink(5, &sink);
    Cycle clock = 0;
    for (int i = 0; i < 4; ++i) {
        auto pkt = makePacket(PacketType::ReadRequest, 0, 5, 128);
        while (!net.inject(0, pkt))
            net.coreTick(++clock);
    }
    runCycles(net, clock, 200);
    EXPECT_TRUE(sink.delivered.empty());
    EXPECT_FALSE(net.drained()); // packets parked inside the network
    sink.accepting = true;
    runCycles(net, clock, 200);
    EXPECT_EQ(sink.delivered.size(), 4u);
    EXPECT_TRUE(net.drained());
}

TEST(Network, LatencyStatsSplitByClass)
{
    Network net(meshSpec(4, 4));
    TestSink sink;
    net.setSink(10, &sink);
    Cycle clock = 0;
    auto req = makePacket(PacketType::ReadRequest, 0, 10, 128);
    auto rep = makePacket(PacketType::ReadReply, 0, 10, 640);
    net.inject(0, req);
    net.inject(0, rep);
    runCycles(net, clock, 100);
    EXPECT_EQ(net.latency().packets[0], 1u);
    EXPECT_EQ(net.latency().packets[1], 1u);
    EXPECT_GT(net.latency().netLat[1].mean(),
              net.latency().netLat[0].mean()); // more flits = longer
}

TEST(Network, EirWiringAddsRemotePortsAndBuffers)
{
    NetworkSpec spec = meshSpec(8, 8);
    spec.eirGroups[{27}] = {11, 25, 29, 43}; // CB at (3,3), axis EIRs
    Network net(spec);
    EXPECT_EQ(net.numRemoteInjPorts(), 4);
    EXPECT_EQ(net.ni(27).numInjBuffers(), 5); // local + 4 EIRs
    // Each EIR router gained one input port: 4 geo + 1 local + 1 EIR.
    EXPECT_EQ(net.router(29).numInputPorts(), 6);
    EXPECT_EQ(net.router(28).numInputPorts(), 5);
}

TEST(Network, EirInjectionEntersAtRemoteRouter)
{
    NetworkSpec spec = meshSpec(8, 8);
    spec.eirGroups[{27}] = {25, 29}; // west/east EIRs
    Network net(spec);
    TestSink sink;
    net.setSink(31, &sink); // same row, far east: shortest via 29
    Cycle clock = 0;
    auto pkt = makePacket(PacketType::ReadReply, 27, 31, 640);
    net.inject(27, pkt);
    runCycles(net, clock, 100);
    ASSERT_EQ(sink.delivered.size(), 1u);
    EXPECT_EQ(pkt->entryRouter, 29);
}

TEST(Network, MultiPortModsAddPorts)
{
    NetworkSpec spec = meshSpec(4, 4);
    NodeMods m;
    m.kind = NiKind::MultiPort;
    m.localInjPorts = 4;
    m.localEjPorts = 2;
    spec.mods[5] = m;
    Network net(spec);
    // node 5 interior: 4 geo in + 4 inj = 8; out: 4 geo + 2 ej = 6.
    EXPECT_EQ(net.router(5).numInputPorts(), 8);
    EXPECT_EQ(net.router(5).numOutputPorts(), 6);
    EXPECT_EQ(net.ni(5).numInjBuffers(), 4);
}

TEST(Network, FastClockRunsMoreTicks)
{
    NetworkSpec spec = meshSpec(4, 4);
    spec.params.ticksEvenCycle = 3;
    spec.params.ticksOddCycle = 2;
    Network net(spec);
    Cycle clock = 0;
    net.coreTick(++clock); // odd cycle: 2 ticks
    net.coreTick(++clock); // even cycle: 3 ticks
    EXPECT_EQ(net.currentTick(), 5u);
}

TEST(Network, ResidenceHeatPopulated)
{
    Network net(meshSpec(4, 4));
    Cycle clock = 0;
    for (int i = 0; i < 30; ++i) {
        auto pkt = makePacket(PacketType::ReadRequest, 0, 15, 128);
        while (!net.inject(0, pkt))
            net.coreTick(++clock);
    }
    runCycles(net, clock, 400);
    auto heat = net.routerResidenceMeans();
    ASSERT_EQ(heat.size(), 16u);
    EXPECT_GT(heat[0], 0.0); // source router saw traffic
    EXPECT_GE(net.residenceVariance(), 0.0);
}

TEST(Network, TooSmallMeshRejected)
{
    NetworkSpec spec = meshSpec(1, 4);
    EXPECT_THROW(Network net(spec), std::logic_error);
}

TEST(Network, VcDepthOutsideByteRangeRejected)
{
    // Depth 0 leaves no flit storage behind a VC; above 127 the
    // byte-wide router credit counters overflow. Both ends of the
    // accepted range still build.
    for (int depth : {0, -1, 128}) {
        NetworkSpec spec = meshSpec(4, 4);
        spec.params.vcDepthFlits = depth;
        EXPECT_THROW(Network net(spec), std::logic_error) << depth;
    }
    for (int depth : {1, 127}) {
        NetworkSpec spec = meshSpec(4, 4);
        spec.params.vcDepthFlits = depth;
        EXPECT_NO_THROW(Network net(spec)) << depth;
    }
}

TEST(Network, ExportStatsCoversRoutersPortsAndNis)
{
    Network net(meshSpec(4, 4));
    TestSink sink;
    net.setSink(15, &sink);
    Cycle clock = 0;
    auto pkt = makePacket(PacketType::ReadRequest, 0, 15, 128);
    ASSERT_TRUE(net.inject(0, pkt));
    runCycles(net, clock, 60);
    ASSERT_EQ(sink.delivered.size(), 1u);

    StatGroup sg;
    net.exportStats(sg, "t");
    EXPECT_GT(sg.get("t.act.link_flits"), 0.0);
    EXPECT_DOUBLE_EQ(sg.get("t.lat.req.packets"), 1.0);
    EXPECT_GT(sg.get("t.lat.req.p50"), 0.0);
    // The source router forwarded the packet's flits: port-level
    // accounting must agree with the router-level total.
    EXPECT_GT(sg.get("t.router.0.flits"), 0.0);
    EXPECT_EQ(sg.get("t.router.0.in.inj0.flits"),
              sg.get("t.router.0.flits"));
    // (0,0) -> (3,3) under XY leaves router 0 eastward.
    EXPECT_EQ(sg.get("t.router.0.out.E.flits"),
              sg.get("t.router.0.flits"));
    // Allocator accounting: grants never exceed requests.
    EXPECT_GT(sg.get("t.router.0.sa_grant"), 0.0);
    EXPECT_GE(sg.get("t.router.0.sa_req"),
              sg.get("t.router.0.sa_grant"));
    EXPECT_GE(sg.get("t.router.0.va_req"),
              sg.get("t.router.0.va_grant"));
    // NI buffer 0 injected the whole packet.
    EXPECT_DOUBLE_EQ(sg.get("t.ni.0.buf0.packets"), 1.0);
    EXPECT_GT(sg.get("t.ni.0.buf0.flits"), 0.0);
}

TEST(Network, ResetStatsClearsEveryCounter)
{
    Network net(meshSpec(4, 4));
    TestSink sink;
    net.setSink(15, &sink);
    Cycle clock = 0;
    auto pkt = makePacket(PacketType::ReadRequest, 0, 15, 128);
    ASSERT_TRUE(net.inject(0, pkt));
    runCycles(net, clock, 60);
    ASSERT_TRUE(net.drained());

    net.resetStats();
    StatGroup sg;
    net.exportStats(sg, "t");
    for (const auto &[key, val] : sg.all()) {
        // ".router" keys are wiring (the buffer's target router id),
        // not counters; everything else must read zero after a reset.
        if (key.size() > 7 && key.compare(key.size() - 7, 7, ".router") == 0)
            continue;
        EXPECT_EQ(val, 0.0) << key;
    }

    // The network keeps working after a reset and repopulates stats.
    auto pkt2 = makePacket(PacketType::ReadRequest, 0, 15, 128);
    ASSERT_TRUE(net.inject(0, pkt2));
    runCycles(net, clock, 60);
    EXPECT_EQ(sink.delivered.size(), 2u);
    StatGroup sg2;
    net.exportStats(sg2, "t");
    EXPECT_DOUBLE_EQ(sg2.get("t.lat.req.packets"), 1.0);
    EXPECT_GT(sg2.get("t.act.link_flits"), 0.0);
}

} // namespace
} // namespace eqx
