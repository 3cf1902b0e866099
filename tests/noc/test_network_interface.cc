/** @file NI injection policies, including the paper's Buffer Selection. */

#include <gtest/gtest.h>

#include <memory>

#include "noc/network_interface.hh"
#include "test_wheel.hh"

namespace eqx {
namespace {

/** Expose the protected dispatch policy and buffers for testing. */
template <typename Base>
class ExposedNi : public Base
{
  public:
    using Base::Base;
    using Base::selectBuffer;

    NetworkInterface::InjBuffer &
    buffer(int i)
    {
        return this->bufs_[static_cast<std::size_t>(i)];
    }

    void
    occupy(int i)
    {
        buffer(i).queue.push_back(
            makePacket(PacketType::ReadReply, 0, 1, 640));
    }
};

/** Test fixture wiring an NI at CB (3,3) with four axis EIRs. */
class EquiNoxNiTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        topo = makeTopology(8, 8);
        ni = std::make_unique<ExposedNi<EquiNoxNi>>(
            cb, topo.get(), &params, &activity, &latency);
        // Buffer 0: local; buffers 1..4: E(5,3), W(1,3), S(3,5), N(3,1).
        chans.reserve(5);
        for (int i = 0; i < 5; ++i)
            chans.push_back(std::make_unique<Channel<Flit>>(
                wheel.channel<Flit>(1, static_cast<std::uint32_t>(i))));
        ni->addInjBuffer(1, chans[0].get(), cb, false);
        ni->addInjBuffer(1, chans[1].get(), topo->node({5, 3}), true);
        ni->addInjBuffer(1, chans[2].get(), topo->node({1, 3}), true);
        ni->addInjBuffer(1, chans[3].get(), topo->node({3, 5}), true);
        ni->addInjBuffer(1, chans[4].get(), topo->node({3, 1}), true);
    }

    PacketPtr
    replyTo(Coord dest)
    {
        return makePacket(PacketType::ReadReply, cb, topo->node(dest),
                          640);
    }

    NodeId cb = 27; // (3,3)
    NocParams params;
    NetworkActivity activity;
    LatencyStats latency;
    std::unique_ptr<const Topology> topo;
    TestWheel wheel;
    std::vector<std::unique_ptr<Channel<Flit>>> chans;
    std::unique_ptr<ExposedNi<EquiNoxNi>> ni;
};

TEST_F(EquiNoxNiTest, AxisDestUsesTheOneShortestPathEir)
{
    // (7,3): due east; only the east EIR (buffer 1) is on a shortest
    // path.
    EXPECT_EQ(ni->selectBuffer(replyTo({7, 3})), 1);
    EXPECT_EQ(ni->selectBuffer(replyTo({0, 3})), 2);
    EXPECT_EQ(ni->selectBuffer(replyTo({3, 7})), 3);
    EXPECT_EQ(ni->selectBuffer(replyTo({3, 0})), 4);
}

TEST_F(EquiNoxNiTest, AxisDestFallsBackToLocalWhenEirBusy)
{
    ni->occupy(1);
    EXPECT_EQ(ni->selectBuffer(replyTo({7, 3})), 0);
}

TEST_F(EquiNoxNiTest, AxisDestRetriesWhenEirAndLocalBusy)
{
    ni->occupy(1);
    ni->occupy(0);
    EXPECT_EQ(ni->selectBuffer(replyTo({7, 3})), -1);
}

TEST_F(EquiNoxNiTest, QuadrantDestRoundRobinsBetweenTwoEirs)
{
    // (6,6): south-east quadrant; east and south EIRs both lie on
    // shortest paths.
    int a = ni->selectBuffer(replyTo({6, 6}));
    int b = ni->selectBuffer(replyTo({6, 6}));
    EXPECT_TRUE(a == 1 || a == 3);
    EXPECT_TRUE(b == 1 || b == 3);
    EXPECT_NE(a, b);
}

TEST_F(EquiNoxNiTest, QuadrantDestSingleFreeEirWins)
{
    ni->occupy(1);
    EXPECT_EQ(ni->selectBuffer(replyTo({6, 6})), 3);
}

TEST_F(EquiNoxNiTest, QuadrantDestAllEirsBusyUsesLocal)
{
    ni->occupy(1);
    ni->occupy(3);
    EXPECT_EQ(ni->selectBuffer(replyTo({6, 6})), 0);
}

TEST_F(EquiNoxNiTest, NearDestinationBehindEirUsesLocal)
{
    // (4,3) is 1 hop east: the east EIR at (5,3) would overshoot
    // (not on a shortest path), so the local router is used.
    EXPECT_EQ(ni->selectBuffer(replyTo({4, 3})), 0);
}

TEST(BasicNiTest, SingleBufferUntilFull)
{
    Mesh2D topo(4, 4);
    NocParams params;
    NetworkActivity act;
    LatencyStats lat;
    ExposedNi<BasicNi> ni(0, &topo, &params, &act, &lat);
    TestWheel wheel;
    auto ch = wheel.channel<Flit>(1, 0);
    ni.addInjBuffer(1, &ch, 0, false);
    auto pkt = makePacket(PacketType::ReadRequest, 0, 5, 128);
    EXPECT_EQ(ni.selectBuffer(pkt), 0);
    ni.occupy(0);
    EXPECT_EQ(ni.selectBuffer(pkt), -1);
}

TEST(MultiPortNiTest, RoundRobinSkipsFullBuffers)
{
    Mesh2D topo(4, 4);
    NocParams params;
    NetworkActivity act;
    LatencyStats lat;
    ExposedNi<MultiPortNi> ni(0, &topo, &params, &act, &lat);
    TestWheel wheel;
    std::vector<std::unique_ptr<Channel<Flit>>> chans;
    for (int i = 0; i < 3; ++i) {
        chans.push_back(std::make_unique<Channel<Flit>>(
            wheel.channel<Flit>(1, static_cast<std::uint32_t>(i))));
        ni.addInjBuffer(1, chans.back().get(), 0, false);
    }
    auto pkt = makePacket(PacketType::ReadReply, 0, 5, 640);
    int a = ni.selectBuffer(pkt);
    ni.occupy(a);
    int b = ni.selectBuffer(pkt);
    ni.occupy(b);
    int c = ni.selectBuffer(pkt);
    ni.occupy(c);
    EXPECT_NE(a, b);
    EXPECT_NE(b, c);
    EXPECT_NE(a, c);
    EXPECT_EQ(ni.selectBuffer(pkt), -1);
}

TEST_F(EquiNoxNiTest, QuadrantRoundRobinAlternatesStrictly)
{
    // Over many dispatches to the same quadrant, the two eligible EIRs
    // must alternate strictly (the paper's Buffer Selection 1 policy),
    // not drift toward one of them.
    int picks[2] = {0, 0};
    int prev = -1;
    for (int i = 0; i < 20; ++i) {
        int b = ni->selectBuffer(replyTo({6, 6}));
        ASSERT_TRUE(b == 1 || b == 3);
        EXPECT_NE(b, prev);
        prev = b;
        ++picks[b == 1 ? 0 : 1];
    }
    EXPECT_EQ(picks[0], 10);
    EXPECT_EQ(picks[1], 10);
}

TEST_F(EquiNoxNiTest, OppositeQuadrantsUseDisjointEirPairs)
{
    // North-west quadrant: only the west (2) and north (4) EIRs lie on
    // shortest paths; the pair must be disjoint from the south-east
    // pair {1, 3}.
    for (int i = 0; i < 4; ++i) {
        int b = ni->selectBuffer(replyTo({1, 1}));
        EXPECT_TRUE(b == 2 || b == 4) << b;
    }
}

TEST(MultiPortNiTest, RoundRobinFairUnderPermanentlyFullBuffer)
{
    // One buffer stays full; the remaining buffers must split the
    // dispatch stream evenly (no starvation, no bias).
    Mesh2D topo(4, 4);
    NocParams params;
    NetworkActivity act;
    LatencyStats lat;
    ExposedNi<MultiPortNi> ni(0, &topo, &params, &act, &lat);
    TestWheel wheel;
    std::vector<std::unique_ptr<Channel<Flit>>> chans;
    for (int i = 0; i < 3; ++i) {
        chans.push_back(std::make_unique<Channel<Flit>>(
            wheel.channel<Flit>(1, static_cast<std::uint32_t>(i))));
        ni.addInjBuffer(1, chans.back().get(), 0, false);
    }
    ni.occupy(0); // buffer 0 full for the whole test

    auto pkt = makePacket(PacketType::ReadReply, 0, 5, 640);
    int picked[3] = {0, 0, 0};
    for (int i = 0; i < 40; ++i) {
        int b = ni.selectBuffer(pkt);
        ASSERT_TRUE(b == 1 || b == 2) << b;
        ++picked[b];
        // Nothing is enqueued, so buffers 1 and 2 stay free; only the
        // round-robin pointer advances between queries.
    }
    EXPECT_EQ(picked[0], 0);
    EXPECT_EQ(picked[1], 20);
    EXPECT_EQ(picked[2], 20);
}

TEST_F(EquiNoxNiTest, OneMaskedEirShiftsToTheUnmaskedShortestPath)
{
    // (6,6): shortest-path EIRs are E(1) and S(3). Masking E must pin
    // every dispatch on S — still the legacy policy, no detours.
    ni->maskBuffer(1);
    EXPECT_EQ(ni->maskedBuffers(), 1);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(ni->selectBuffer(replyTo({6, 6})), 3);
}

TEST_F(EquiNoxNiTest, AllShortestPathEirsMaskedFailsOverFairly)
{
    // Masking both shortest-path EIRs of (6,6) enters degraded mode:
    // dispatch must rotate strictly over the survivors W(2) and N(4)
    // even though neither is on a shortest path.
    ni->maskBuffer(1);
    ni->maskBuffer(3);
    int picks[5] = {0, 0, 0, 0, 0};
    int prev = -1;
    for (int i = 0; i < 20; ++i) {
        int b = ni->selectBuffer(replyTo({6, 6}));
        ASSERT_TRUE(b == 2 || b == 4) << b;
        EXPECT_NE(b, prev);
        prev = b;
        ++picks[b];
    }
    EXPECT_EQ(picks[2], 10);
    EXPECT_EQ(picks[4], 10);
}

TEST_F(EquiNoxNiTest, ThreeMaskedEirsUseTheSoleSurvivor)
{
    ni->maskBuffer(1);
    ni->maskBuffer(3);
    ni->maskBuffer(4);
    EXPECT_EQ(ni->maskedBuffers(), 3);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(ni->selectBuffer(replyTo({6, 6})), 2);
}

TEST_F(EquiNoxNiTest, AllEirsMaskedDegradesToLocalWithoutLivelock)
{
    for (int b = 1; b <= 4; ++b)
        ni->maskBuffer(b);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(ni->selectBuffer(replyTo({6, 6})), 0);
    // Local busy too: retry (-1), never an EIR and never a crash.
    ni->occupy(0);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(ni->selectBuffer(replyTo({6, 6})), -1);
}

TEST_F(EquiNoxNiTest, MaskingIsIdempotentAndSurvivorsMustBeFree)
{
    ni->maskBuffer(1);
    ni->maskBuffer(1);
    EXPECT_EQ(ni->maskedBuffers(), 1);
    // Degraded mode still honours buffer occupancy: with the sole
    // shortest-path survivor masked and every other EIR busy, fall
    // back to local.
    ni->maskBuffer(3);
    ni->occupy(2);
    ni->occupy(4);
    EXPECT_EQ(ni->selectBuffer(replyTo({6, 6})), 0);
}

TEST(NiInjection, PerBufferLoadCountersTrackInjection)
{
    Mesh2D topo(4, 4);
    NocParams params;
    NetworkActivity act;
    LatencyStats lat;
    BasicNi ni(0, &topo, &params, &act, &lat);
    TestWheel wheel;
    auto ch = wheel.channel<Flit>(1, 0);
    ni.addInjBuffer(1, &ch, 0, false);
    auto pkt = makePacket(PacketType::ReadReply, 0, 5, 640); // 5 flits
    ASSERT_TRUE(ni.inject(pkt, 0));
    Cycle t = 0;
    for (int i = 0; i < 10; ++i) {
        ++t;
        ni.tick(t, t);
    }
    EXPECT_EQ(ni.injBuffer(0).packetsInjected, 1u);
    EXPECT_EQ(ni.injBuffer(0).flitsInjected, 5u);

    ni.resetStats();
    EXPECT_EQ(ni.injBuffer(0).packetsInjected, 0u);
    EXPECT_EQ(ni.injBuffer(0).flitsInjected, 0u);
    EXPECT_EQ(ni.injBuffer(0).creditStallTicks, 0u);
}

TEST(NiInjection, CreditStallTicksCountStarvation)
{
    Mesh2D topo(4, 4);
    NocParams params;
    params.vcDepthFlits = 2;
    NetworkActivity act;
    LatencyStats lat;
    BasicNi ni(0, &topo, &params, &act, &lat);
    TestWheel wheel;
    auto ch = wheel.channel<Flit>(1, 0);
    ni.addInjBuffer(1, &ch, 0, false);
    // 640 bits = 5 flits but only 2 credits and nobody returns them:
    // after the buffer drains its credits, every further tick stalls.
    auto pkt = makePacket(PacketType::ReadReply, 0, 5, 640);
    ASSERT_TRUE(ni.inject(pkt, 0));
    Cycle t = 0;
    for (int i = 0; i < 10; ++i) {
        ++t;
        ni.tick(t, t);
    }
    EXPECT_EQ(ni.injBuffer(0).flitsInjected, 2u);
    EXPECT_GE(ni.injBuffer(0).creditStallTicks, 6u);
}

TEST(NiInjection, SerializesAndStampsPacket)
{
    Mesh2D topo(4, 4);
    NocParams params;
    NetworkActivity act;
    LatencyStats lat;
    BasicNi ni(0, &topo, &params, &act, &lat);
    TestWheel wheel;
    auto ch = wheel.channel<Flit>(1, 0);
    ni.addInjBuffer(1, &ch, 0, false);
    auto pkt = makePacket(PacketType::ReadReply, 0, 5, 640); // 5 flits
    ASSERT_TRUE(ni.inject(pkt, 10));
    Cycle t = 10;
    for (int i = 0; i < 10; ++i) {
        ++t;
        ni.tick(t, t);
    }
    // 5 flits must have been sent, head first.
    auto flits = wheel.take<Flit>(0, t + 1);
    ASSERT_EQ(flits.size(), 5u);
    EXPECT_TRUE(flits.front().isHead);
    EXPECT_TRUE(flits.back().isTail);
    EXPECT_GE(pkt->cycleInjected, 10u);
    EXPECT_EQ(pkt->entryRouter, 0);
    EXPECT_EQ(act.replyBits, 640u);
}

TEST(NiInjection, CoreQueueCapacityBounds)
{
    Mesh2D topo(4, 4);
    NocParams params;
    NetworkActivity act;
    LatencyStats lat;
    BasicNi ni(0, &topo, &params, &act, &lat);
    TestWheel wheel;
    auto ch = wheel.channel<Flit>(1, 0);
    ni.addInjBuffer(1, &ch, 0, false);
    auto mk = [] {
        return makePacket(PacketType::ReadRequest, 0, 5, 128);
    };
    EXPECT_TRUE(ni.inject(mk(), 0));
    EXPECT_TRUE(ni.inject(mk(), 0));
    EXPECT_FALSE(ni.inject(mk(), 0)); // core queue full
    EXPECT_FALSE(ni.canInject());
}

} // namespace
} // namespace eqx
