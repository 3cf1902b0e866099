/** @file PE model: issue, L1 behaviour, stalls, reply handling. */

#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "gpu/pe.hh"

namespace eqx {
namespace {

class CapturingInjector : public PacketInjector
{
  public:
    bool canInject(NodeId) const override { return accepting; }

    bool
    tryInject(const PacketPtr &pkt) override
    {
        ++attempts;
        if (!accepting)
            return false;
        sent.push_back(pkt);
        return true;
    }

    void watchSlots(const WakeBit &) override {} // ticked every cycle

    bool accepting = true;
    int attempts = 0; ///< tryInject calls, accepted or not
    std::vector<PacketPtr> sent;
};

struct Fixture
{
    explicit Fixture(WorkloadProfile wp, PeParams pp = PeParams{})
        : amap{64, {10, 20}},
          pe(0, pp, PeTraceGen(wp, 0, 1), &amap, &inj, &sizes)
    {}

    void
    run(int cycles)
    {
        for (int i = 0; i < cycles; ++i)
            pe.tick(++clock);
    }

    PacketPtr
    replyFor(const PacketPtr &req)
    {
        bool read = req->type == PacketType::ReadRequest;
        return makePacket(read ? PacketType::ReadReply
                               : PacketType::WriteReply,
                          req->dst, req->src,
                          read ? sizes.readReplyBits
                               : sizes.writeReplyBits,
                          req->addr);
    }

    AddressMap amap;
    CapturingInjector inj;
    PacketSizes sizes;
    Cycle clock = 0;
    ProcessingElement pe;
};

WorkloadProfile
aluOnly()
{
    WorkloadProfile wp;
    wp.instsPerPe = 100;
    wp.memRatio = 0.0;
    return wp;
}

WorkloadProfile
readStream(int lines = 4096)
{
    WorkloadProfile wp;
    wp.instsPerPe = 20;
    wp.memRatio = 1.0;
    wp.readFrac = 1.0;
    wp.privateLines = lines;
    wp.sharedFrac = 0.0;
    wp.seqProb = 1.0;
    return wp;
}

TEST(Pe, AluOnlyFinishesWithoutTraffic)
{
    Fixture f(aluOnly());
    f.run(200);
    EXPECT_TRUE(f.pe.done());
    EXPECT_EQ(f.pe.instsIssued(), 100u);
    EXPECT_TRUE(f.inj.sent.empty());
}

TEST(Pe, ReadMissSendsRequestToMappedCb)
{
    Fixture f(readStream());
    f.run(2);
    ASSERT_FALSE(f.inj.sent.empty());
    const auto &pkt = f.inj.sent.front();
    EXPECT_EQ(pkt->type, PacketType::ReadRequest);
    EXPECT_EQ(pkt->src, 0);
    EXPECT_EQ(pkt->dst, f.amap.cbNodeOf(pkt->addr));
    EXPECT_GT(f.pe.outstanding(), 0);
    EXPECT_FALSE(f.pe.done());
}

TEST(Pe, RepliesCompleteTheRun)
{
    Fixture f(readStream());
    for (int round = 0; round < 50 && !f.pe.done(); ++round) {
        f.run(5);
        for (auto &req : f.inj.sent)
            f.pe.accept(f.replyFor(req), f.clock);
        f.inj.sent.clear();
    }
    EXPECT_TRUE(f.pe.done());
    EXPECT_EQ(f.pe.outstanding(), 0);
    EXPECT_EQ(f.pe.instsIssued(), 20u);
}

TEST(Pe, SecondAccessToSameLineHitsInL1)
{
    // One-line working set: after the fill, everything is an L1 hit.
    Fixture f(readStream(1));
    f.run(2);
    ASSERT_EQ(f.inj.sent.size(), 1u);
    f.pe.accept(f.replyFor(f.inj.sent[0]), f.clock);
    f.inj.sent.clear();
    f.run(50);
    EXPECT_TRUE(f.pe.done());
    EXPECT_TRUE(f.inj.sent.empty()); // no further misses
    EXPECT_GT(f.pe.stats().get("l1_read_hits"), 0.0);
}

TEST(Pe, MshrMergesSameLineMisses)
{
    // Same line, merges instead of duplicate requests. The reply
    // completes every merged target.
    PeParams pp;
    pp.issueWidth = 4;
    Fixture f(readStream(1), pp);
    f.pe.tick(++f.clock); // issues several ops to the same line
    EXPECT_EQ(f.inj.sent.size(), 1u);
    EXPECT_GE(f.pe.outstanding(), 2);
    f.pe.accept(f.replyFor(f.inj.sent[0]), f.clock);
    EXPECT_EQ(f.pe.outstanding(), 0);
}

TEST(Pe, InjectorRefusalStallsWithoutLoss)
{
    Fixture f(readStream());
    f.inj.accepting = false;
    f.run(20);
    EXPECT_TRUE(f.inj.sent.empty());
    EXPECT_GT(f.pe.stats().get("stall_inject"), 0.0);
    f.inj.accepting = true;
    for (int round = 0; round < 50 && !f.pe.done(); ++round) {
        f.run(5);
        for (auto &req : f.inj.sent)
            f.pe.accept(f.replyFor(req), f.clock);
        f.inj.sent.clear();
    }
    EXPECT_TRUE(f.pe.done());
}

TEST(Pe, RefusedInjectionAllocatesNoPackets)
{
    // The PE asks canInject before building a request, so a refused
    // retry every cycle neither allocates nor offers a packet.
    Fixture f(readStream());
    f.inj.accepting = false;
    f.run(1); // any lazy pool setup happens outside the window
    std::size_t free_before = packetPoolFreeCount();
    std::uint64_t id_before = nextPacketId();
    f.run(50);
    EXPECT_EQ(packetPoolFreeCount(), free_before);
    EXPECT_EQ(nextPacketId(), id_before + 1); // no makePacket in between
    EXPECT_EQ(f.inj.attempts, 0);
    EXPECT_EQ(f.pe.stats().get("stall_inject"), 51.0);
}

TEST(Pe, OutstandingWindowLimitsIssue)
{
    PeParams pp;
    pp.maxOutstanding = 2;
    pp.issueWidth = 4;
    WorkloadProfile wp = readStream(4096);
    wp.seqProb = 0.0; // jump around: all distinct lines
    Fixture f(wp, pp);
    f.run(10);
    EXPECT_LE(f.pe.outstanding(), 2);
    EXPECT_GT(f.pe.stats().get("stall_window"), 0.0);
}

TEST(Pe, WritesAreWriteThrough)
{
    WorkloadProfile wp = readStream(8);
    wp.readFrac = 0.0; // all writes
    Fixture f(wp);
    f.run(3);
    ASSERT_FALSE(f.inj.sent.empty());
    EXPECT_EQ(f.inj.sent.front()->type, PacketType::WriteRequest);
    int before = f.pe.outstanding();
    EXPECT_GT(before, 0);
    f.pe.accept(f.replyFor(f.inj.sent.front()), f.clock);
    EXPECT_EQ(f.pe.outstanding(), before - 1);
}

TEST(Pe, ScriptedRunStatsMatchGolden)
{
    // Every PE counter, pinned from the string-keyed StatGroup the PE
    // used before its counters became typed. The script exercises L1
    // hits, MSHR merges, both MSHR stalls, window stalls, injection
    // and ack-injection stalls, and invalidation handling.
    PeParams pp;
    pp.l1 = CacheGeometry{4 * 64, 64, 2}; // 2 sets x 2 ways
    pp.l1Mshrs = 2;
    pp.l1TargetsPerMshr = 2;
    pp.maxOutstanding = 6;
    WorkloadProfile wp;
    wp.instsPerPe = 600;
    wp.memRatio = 0.6;
    wp.readFrac = 0.8;
    wp.privateLines = 6;
    wp.sharedFrac = 0.0;
    wp.seqProb = 0.2;
    Fixture f(wp, pp);

    std::deque<std::pair<Cycle, PacketPtr>> inflight;
    for (int cycle = 0; cycle < 4000 && !f.pe.done(); ++cycle) {
        f.inj.accepting = (cycle / 5) % 3 != 0;
        if (cycle % 37 == 5)
            f.pe.accept(makePacket(PacketType::Invalidate, 10, 0,
                                   f.sizes.invalidateBits,
                                   static_cast<Addr>(cycle % 6) * 64,
                                   static_cast<std::uint64_t>(cycle)),
                        f.clock);
        f.pe.tick(++f.clock);
        for (auto &pkt : f.inj.sent)
            if (pkt->type != PacketType::InvAck)
                inflight.emplace_back(f.clock + 12, pkt);
        f.inj.sent.clear();
        while (!inflight.empty() && inflight.front().first <= f.clock) {
            f.pe.accept(f.replyFor(inflight.front().second), f.clock);
            inflight.pop_front();
        }
    }
    ASSERT_TRUE(f.pe.done());
    EXPECT_EQ(f.pe.instsIssued(), 600u);
    const std::map<std::string, double> golden = {
        {"inv_acks_sent", 15},       {"invalidations_received", 15},
        {"l1_read_hits", 201},       {"l1_read_merges", 46},
        {"l1_read_misses", 56},      {"read_replies", 56},
        {"stall_ack_inject", 15},    {"stall_inject", 51},
        {"stall_mshr_full", 11},     {"stall_mshr_targets", 145},
        {"stall_window", 43},        {"write_replies", 62},
        {"writes_issued", 62},
    };
    EXPECT_EQ(f.pe.stats().all(), golden);
}

TEST(Pe, RequestDeliveryToPePanics)
{
    Fixture f(readStream());
    auto req = makePacket(PacketType::ReadRequest, 5, 0, 128);
    EXPECT_THROW(f.pe.accept(req, 0), std::logic_error);
}

} // namespace
} // namespace eqx
