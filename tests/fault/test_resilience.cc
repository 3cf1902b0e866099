/**
 * @file
 * Network-level fault injection and recovery (DESIGN.md §11): worm
 * drops with exactly-once delivery, stall semantics, permanent-kill
 * masking + fail-over, bounded loss with retxMax, and a seeded fault
 * schedule's full statistics pinned to a frozen golden.
 */

#include <gtest/gtest.h>

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
    accept(const PacketPtr &pkt, Cycle) override
    {
        ++delivered;
        last = pkt;
    }
    int delivered = 0;
    PacketPtr last;
};

NetworkSpec
meshSpec(int w, int h)
{
    NetworkSpec spec;
    spec.params.width = w;
    spec.params.height = h;
    return spec;
}

FaultEvent
eventAt(Cycle tick, FaultKind kind, NodeId ni, int buf)
{
    FaultEvent e;
    e.tick = tick;
    e.kind = kind;
    e.wire = -1;
    e.ni = ni;
    e.buf = buf;
    return e;
}

TEST(Resilience, CorruptWormsRedeliverExactlyOnce)
{
    FaultConfig fc;
    fc.retxTimeout = 64;
    FaultEvent e = eventAt(1, FaultKind::TransientCorrupt, 0, 0);
    e.worms = 3;
    fc.events.push_back(e);

    Network net(meshSpec(4, 4));
    net.armFaults(fc, "req", 1);
    CountingSink sink;
    net.setSink(15, &sink);
    Cycle clock = 0;
    for (int i = 0; i < 6; ++i) {
        auto pkt = makePacket(PacketType::ReadRequest, 0, 15, 128);
        while (!net.inject(0, pkt))
            net.coreTick(++clock);
    }
    for (int c = 0; c < 2000 && !net.drained(); ++c)
        net.coreTick(++clock);
    ASSERT_TRUE(net.drained());

    // The first three worms dropped on the wire; retransmission
    // recovered each one, and the receiver deduped, so the sink saw
    // every packet exactly once.
    EXPECT_EQ(sink.delivered, 6);
    const FaultStats &st = net.faultPlane()->stats();
    EXPECT_EQ(st.seqPackets, 6u);
    EXPECT_EQ(st.delivered, 6u);
    EXPECT_EQ(st.wormsDropped, 3u);
    EXPECT_GE(st.retransmissions, 3u);
    EXPECT_EQ(st.lost, 0u);
    // Credit reconciliation: every dropped flit's debit was restored
    // (or the VC would have leaked a slot per drop).
    EXPECT_GT(st.flitsDropped, 0u);
    EXPECT_EQ(st.creditsReconciled, st.flitsDropped);
}

TEST(Resilience, StallDelaysDeliveryWithoutLoss)
{
    FaultConfig fc;
    FaultEvent e = eventAt(1, FaultKind::TransientStall, 0, 0);
    e.duration = 100;
    fc.events.push_back(e);

    Network net(meshSpec(4, 4));
    net.armFaults(fc, "req", 1);
    CountingSink sink;
    net.setSink(15, &sink);
    Cycle clock = 0;
    auto pkt = makePacket(PacketType::ReadRequest, 0, 15, 128);
    ASSERT_TRUE(net.inject(0, pkt));
    for (int c = 0; c < 400 && !net.drained(); ++c)
        net.coreTick(++clock);
    ASSERT_TRUE(net.drained());

    // Nothing is lost on a stall; the worm just waits out the window.
    EXPECT_EQ(sink.delivered, 1);
    const FaultStats &st = net.faultPlane()->stats();
    EXPECT_EQ(st.stallEvents, 1u);
    EXPECT_EQ(st.wormsDropped, 0u);
    EXPECT_EQ(st.lost, 0u);
    // An unstalled 4x4 corner-to-corner trip takes ~30 cycles
    // (Network.SinglePacketDelivery); the 100-tick stall dominates.
    EXPECT_GT(pkt->cycleEjected - pkt->cycleInjected, 100u);
}

/**
 * Stall injection wire (@p src, @p buf) from tick 1 while a 5-flit
 * worm crosses it. The whole worm enters the stalled wire, so the
 * wire withholds several flits at once; they must still reach the
 * router in order and deliver the packet exactly once.
 */
void
expectStalledWormDelivered(const NetworkSpec &spec, NodeId src, int buf,
                           NodeId dst)
{
    constexpr Cycle kStall = 60;
    FaultConfig fc;
    FaultEvent e = eventAt(1, FaultKind::TransientStall, src, buf);
    e.duration = kStall;
    fc.events.push_back(e);

    Network net(spec);
    net.armFaults(fc, "reply", 1);
    CountingSink sink;
    net.setSink(dst, &sink);
    auto pkt = makePacket(PacketType::ReadReply, src, dst, 640);
    ASSERT_TRUE(net.inject(src, pkt));
    Cycle clock = 0;
    while (clock < kStall / 2)
        net.coreTick(++clock);
    // Mid-stall: every flit is on the wire, none has reached the router.
    const auto &ib = net.ni(src).injBuffer(buf);
    EXPECT_EQ(ib.flitsInjected, 5u);
    EXPECT_FALSE(net.router(ib.targetRouter).hasBufferedFlits());

    for (int c = 0; c < 400 && !net.drained(); ++c)
        net.coreTick(++clock);
    ASSERT_TRUE(net.drained());
    EXPECT_EQ(sink.delivered, 1);
    EXPECT_EQ(sink.last.get(), pkt.get());
    const FaultStats &st = net.faultPlane()->stats();
    EXPECT_EQ(st.stallEvents, 1u);
    EXPECT_EQ(st.flitsDropped, 0u);
    EXPECT_EQ(st.lost, 0u);
    EXPECT_GT(pkt->cycleEjected - pkt->cycleInjected, kStall);
}

TEST(Resilience, StalledWireKeepsWormOrder)
{
    {
        SCOPED_TRACE("local injection wire, latency 1");
        expectStalledWormDelivered(meshSpec(4, 4), 0, 0, 15);
    }
    {
        // A 4-hop EIR link: while the head is withheld, later flits
        // are already due in the following slots, so the withheld
        // flits must retry ahead of them.
        SCOPED_TRACE("EIR interposer wire, latency 2");
        NetworkSpec spec = meshSpec(8, 8);
        spec.eirGroups[{27}] = {45}; // (3,3) -> (5,5)
        expectStalledWormDelivered(spec, 27, 1, 63);
    }
}

TEST(Resilience, PermanentEirKillMasksPortAndDeliveryContinues)
{
    FaultConfig fc;
    fc.retxTimeout = 64;
    FaultEvent kill;
    kill.tick = 50;
    kill.kind = FaultKind::PermanentLinkKill;
    kill.wire = FaultEvent::kAnyInterposerWire;
    fc.events.push_back(kill);

    NetworkSpec spec = meshSpec(8, 8);
    spec.eirGroups[{27}] = {11, 25, 29, 43};
    Network net(spec);
    net.armFaults(fc, "reply", 3);
    std::vector<CountingSink> sinks(64);
    for (NodeId i = 0; i < 64; ++i)
        net.setSink(i, &sinks[static_cast<std::size_t>(i)]);

    // CB traffic to every quadrant, spanning the kill and the
    // detection window, so the surviving EIRs absorb the shift.
    Rng rng(5);
    Cycle clock = 0;
    int sent = 0;
    for (int c = 0; c < 600; ++c) {
        if (c % 3 == 0 && net.canInject(27)) {
            NodeId d = static_cast<NodeId>(rng.nextBounded(64));
            if (d != 27) {
                ASSERT_TRUE(net.inject(
                    27, makePacket(PacketType::ReadReply, 27, d, 640)));
                ++sent;
            }
        }
        net.coreTick(++clock);
    }
    for (int c = 0; c < 4000 && !net.drained(); ++c)
        net.coreTick(++clock);
    ASSERT_TRUE(net.drained());

    const FaultStats &st = net.faultPlane()->stats();
    EXPECT_EQ(st.killEvents, 1u);
    EXPECT_EQ(st.maskEvents, 1u);
    EXPECT_EQ(net.maskedInjBuffers(), 1);
    int got = 0;
    for (const auto &s : sinks)
        got += s.delivered;
    // Worms in flight toward the dead wire at kill time dropped and
    // were retransmitted; nothing is lost end to end.
    EXPECT_EQ(got, sent);
    EXPECT_EQ(st.delivered, static_cast<std::uint64_t>(sent));
    EXPECT_EQ(st.lost, 0u);
}

TEST(Resilience, RetxMaxBoundsLossAndNetworkStillDrains)
{
    FaultConfig fc;
    fc.retxTimeout = 32;
    fc.retxMax = 1;
    fc.detectLatency = 1;
    fc.events.push_back(
        eventAt(1, FaultKind::PermanentLinkKill, 0, 0));

    Network net(meshSpec(4, 4));
    net.armFaults(fc, "req", 1);
    CountingSink sink;
    net.setSink(15, &sink);
    Cycle clock = 0;
    for (int i = 0; i < 3; ++i) {
        auto pkt = makePacket(PacketType::ReadRequest, 0, 15, 128);
        while (!net.inject(0, pkt))
            net.coreTick(++clock);
    }
    for (int c = 0; c < 2000 && !net.drained(); ++c)
        net.coreTick(++clock);

    // Node 0's only injection wire is dead: every attempt (original +
    // one retransmission each) drops, then the NI gives up. The run
    // terminates cleanly instead of wedging on unackable packets.
    ASSERT_TRUE(net.drained());
    EXPECT_EQ(sink.delivered, 0);
    const FaultStats &st = net.faultPlane()->stats();
    EXPECT_EQ(st.lost, 3u);
    EXPECT_EQ(st.retransmissions, 3u);
    EXPECT_EQ(st.delivered, 0u);
    EXPECT_EQ(st.creditsReconciled, st.flitsDropped);
    EXPECT_EQ(net.maskedInjBuffers(), 1);
}

TEST(Resilience, TickLoopsBitIdenticalUnderIdenticalFaultSchedule)
{
    // Transient stalls and corruptions on the injection wires of a
    // 6x6 with one EIR group. The golden was captured at commit
    // 7f8757d, where the activity-scheduled and the exhaustive tick
    // loop both produced it under this schedule.
    FaultConfig fc;
    fc.ratePerKTick = 20;
    fc.kinds = kTransientFaultKinds;
    fc.horizonTicks = 2000;
    fc.retxTimeout = 64;
    fc.stallTicks = 8;

    NetworkSpec spec = meshSpec(6, 6);
    spec.eirGroups[{21}] = {9, 19, 23, 33};
    Network net(spec);
    net.armFaults(fc, "reply", 17);
    int n = net.params().numNodes();
    std::vector<CountingSink> sinks(static_cast<std::size_t>(n));
    for (NodeId i = 0; i < n; ++i)
        net.setSink(i, &sinks[static_cast<std::size_t>(i)]);

    Rng rng(11);
    Cycle clock = 0;
    for (int c = 0; c < 1000; ++c) {
        for (NodeId s = 0; s < n; ++s) {
            if (!rng.chance(0.05))
                continue;
            NodeId d = static_cast<NodeId>(rng.nextBounded(n));
            if (d != s && net.canInject(s))
                net.inject(s,
                           makePacket(PacketType::ReadReply, s, d, 640));
        }
        net.coreTick(++clock);
    }
    for (int c = 0; c < 8000 && !net.drained(); ++c)
        net.coreTick(++clock);
    ASSERT_TRUE(net.drained());

    // The schedule actually fired (otherwise this test proves nothing).
    EXPECT_GT(net.faultPlane()->stats().stallEvents +
                  net.faultPlane()->stats().corruptEvents,
              0u);
    StatGroup sg;
    net.exportStats(sg, "net");
    EXPECT_EQ(golden::ofStats(sg, clock),
              (golden::Golden{0xde1b5b73aeaa5ec4ULL, 1064, 46625, 1778,
                              21322}));
}

} // namespace
} // namespace eqx
