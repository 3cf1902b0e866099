/** @file Property sweeps: delivery/no-loss/drain across configs. */

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "common/rng.hh"
#include "noc/network.hh"

namespace eqx {
namespace {

class CountingSink : public PacketSink
{
  public:
    bool
    canAccept(const PacketPtr &) override
    {
        return true;
    }
    void
    accept(const PacketPtr &pkt, Cycle) override
    {
        ++count;
        lastId = pkt->id;
    }
    int count = 0;
    std::uint64_t lastId = 0;
};

using NetCfg = std::tuple<int /*size*/, int /*vcs*/, RoutingMode,
                          bool /*classVcs*/>;

class NetworkProperties : public ::testing::TestWithParam<NetCfg> {};

TEST_P(NetworkProperties, RandomTrafficDeliveredAndDrained)
{
    auto [size, vcs, routing, class_vcs] = GetParam();
    NetworkSpec spec;
    spec.params.width = spec.params.height = size;
    spec.params.vcsPerPort = vcs;
    spec.params.routing = routing;
    spec.params.classVcs = class_vcs;
    Network net(spec);

    int n = net.topology().numNodes();
    std::vector<CountingSink> sinks(static_cast<std::size_t>(n));
    for (NodeId i = 0; i < n; ++i)
        net.setSink(i, &sinks[static_cast<std::size_t>(i)]);

    Rng rng(static_cast<std::uint64_t>(size * 100 + vcs));
    Cycle clock = 0;
    int sent = 0;
    // Random mixed traffic at a bursty moderate rate for 2000 cycles.
    for (int cycle = 0; cycle < 2000; ++cycle) {
        for (NodeId s = 0; s < n; ++s) {
            if (!rng.chance(0.02))
                continue;
            NodeId d = static_cast<NodeId>(rng.nextBounded(
                static_cast<std::uint64_t>(n)));
            if (d == s)
                continue;
            bool reply = rng.chance(0.5);
            auto pkt = makePacket(reply ? PacketType::ReadReply
                                        : PacketType::ReadRequest,
                                  s, d, reply ? 640 : 128);
            if (net.inject(s, pkt))
                ++sent;
        }
        net.coreTick(++clock);
    }
    // Drain.
    for (int i = 0; i < 30000 && !net.drained(); ++i)
        net.coreTick(++clock);

    ASSERT_TRUE(net.drained()) << "possible deadlock or livelock";
    int got = 0;
    for (const auto &s : sinks)
        got += s.count;
    EXPECT_EQ(got, sent); // conservation: nothing dropped or duplicated
    EXPECT_GT(sent, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, NetworkProperties,
    ::testing::Values(
        NetCfg{4, 2, RoutingMode::XY, false},
        NetCfg{4, 2, RoutingMode::MinimalAdaptive, false},
        NetCfg{4, 2, RoutingMode::XY, true},
        NetCfg{4, 4, RoutingMode::MinimalAdaptive, false},
        NetCfg{6, 2, RoutingMode::MinimalAdaptive, false},
        NetCfg{6, 3, RoutingMode::XY, true},
        NetCfg{8, 2, RoutingMode::MinimalAdaptive, false},
        NetCfg{8, 4, RoutingMode::XY, true}),
    [](const auto &info) {
        std::string name = "s";
        name.append(std::to_string(std::get<0>(info.param)))
            .append("v")
            .append(std::to_string(std::get<1>(info.param)));
        name += std::get<2>(info.param) == RoutingMode::XY ? "XY" : "AD";
        if (std::get<3>(info.param))
            name += "cls";
        return name;
    });

TEST(NetworkProperty, VcMonoConservesUnderMixedTraffic)
{
    NetworkSpec spec;
    spec.params.width = spec.params.height = 6;
    spec.params.classVcs = true;
    spec.params.vcMono = true;
    spec.params.vcMonoWindow = 8;
    Network net(spec);
    int n = net.topology().numNodes();
    std::vector<CountingSink> sinks(static_cast<std::size_t>(n));
    for (NodeId i = 0; i < n; ++i)
        net.setSink(i, &sinks[static_cast<std::size_t>(i)]);

    Rng rng(77);
    Cycle clock = 0;
    int sent = 0;
    for (int cycle = 0; cycle < 3000; ++cycle) {
        for (NodeId s = 0; s < n; ++s) {
            // Reply-heavy phase then request-heavy phase, so
            // monopolization actually triggers.
            bool reply_phase = (cycle / 500) % 2 == 0;
            if (!rng.chance(0.03))
                continue;
            NodeId d = static_cast<NodeId>(rng.nextBounded(
                static_cast<std::uint64_t>(n)));
            if (d == s)
                continue;
            auto pkt = makePacket(reply_phase ? PacketType::ReadReply
                                              : PacketType::ReadRequest,
                                  s, d, reply_phase ? 640 : 128);
            if (net.inject(s, pkt))
                ++sent;
        }
        net.coreTick(++clock);
    }
    for (int i = 0; i < 50000 && !net.drained(); ++i)
        net.coreTick(++clock);
    ASSERT_TRUE(net.drained()) << "VC-Mono deadlocked";
    int got = 0;
    for (const auto &s : sinks)
        got += s.count;
    EXPECT_EQ(got, sent);
}

TEST(NetworkProperty, LongEirLinksTakeExtraCycles)
{
    // A 2-hop EIR link is a 1-cycle channel; a 4-hop link needs two.
    NetworkSpec near_spec;
    near_spec.params.width = near_spec.params.height = 8;
    near_spec.eirGroups[{0}] = {2}; // (2,0): span 2
    Network near_net(near_spec);

    NetworkSpec far_spec = near_spec;
    far_spec.eirGroups.clear();
    far_spec.eirGroups[{0}] = {4}; // (4,0): span 4
    Network far_net(far_spec);

    auto run = [](Network &net, NodeId eir) {
        CountingSink sink;
        net.setSink(7, &sink);
        Cycle clock = 0;
        auto pkt = makePacket(PacketType::ReadReply, 0, 7, 640);
        net.inject(0, pkt);
        for (int i = 0; i < 200; ++i)
            net.coreTick(++clock);
        EXPECT_EQ(sink.count, 1);
        EXPECT_EQ(pkt->entryRouter, eir);
        return pkt->networkLatency();
    };
    Cycle lat_near = run(near_net, 2);
    Cycle lat_far = run(far_net, 4);
    // The far EIR saves 2 router hops (~6 ticks) but its channel costs
    // +1 cycle; net effect: strictly less than the near-EIR latency,
    // by less than the full hop saving.
    EXPECT_LT(lat_far, lat_near);
    EXPECT_GT(lat_far + 6, lat_near);
}

} // namespace
} // namespace eqx
