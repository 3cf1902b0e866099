/** @file Cache bank: L2 service, miss handling, reply backpressure. */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "gpu/cache_bank.hh"

namespace eqx {
namespace {

class CapturingInjector : public PacketInjector
{
  public:
    bool canInject(NodeId) const override { return accepting; }

    bool
    tryInject(const PacketPtr &pkt) override
    {
        if (!accepting)
            return false;
        sent.push_back(pkt);
        return true;
    }

    void watchSlots(const WakeBit &) override {} // ticked every cycle

    bool accepting = true;
    std::vector<PacketPtr> sent;
};

struct Fixture
{
    explicit Fixture(CbParams p = CbParams{})
        : cb(5, p, &inj, &sizes)
    {}

    void
    run(int cycles)
    {
        for (int i = 0; i < cycles; ++i)
            cb.tick(++clock);
    }

    PacketPtr
    request(Addr addr, bool write = false, NodeId src = 1)
    {
        return makePacket(write ? PacketType::WriteRequest
                                : PacketType::ReadRequest,
                          src, 5,
                          write ? sizes.writeRequestBits
                                : sizes.readRequestBits,
                          addr);
    }

    CapturingInjector inj;
    PacketSizes sizes;
    Cycle clock = 0;
    CacheBank cb;
};

TEST(CacheBank, ColdReadMissProducesReadReply)
{
    Fixture f;
    auto req = f.request(0x4000);
    ASSERT_TRUE(f.cb.canAccept(req));
    f.cb.accept(req, 0);
    f.run(300);
    ASSERT_EQ(f.inj.sent.size(), 1u);
    const auto &rep = f.inj.sent[0];
    EXPECT_EQ(rep->type, PacketType::ReadReply);
    EXPECT_EQ(rep->src, 5);
    EXPECT_EQ(rep->dst, 1);
    EXPECT_EQ(rep->addr, 0x4000u);
    EXPECT_TRUE(f.cb.drained());
    EXPECT_EQ(f.cb.stats().get("l2_read_misses"), 1.0);
}

TEST(CacheBank, SecondAccessHitsAndIsFaster)
{
    Fixture f;
    f.cb.accept(f.request(0x4000), 0);
    f.run(300);
    Cycle miss_done = f.clock;
    (void)miss_done;
    f.inj.sent.clear();
    Cycle start = f.clock;
    f.cb.accept(f.request(0x4000, false, 2), f.clock);
    f.run(300);
    ASSERT_EQ(f.inj.sent.size(), 1u);
    EXPECT_EQ(f.cb.stats().get("l2_read_hits"), 1.0);
    // A hit completes in about the L2 pipeline latency.
    EXPECT_LE(f.inj.sent[0]->cycleCreated, start + 30);
}

TEST(CacheBank, ConcurrentMissesMerge)
{
    Fixture f;
    f.cb.accept(f.request(0x8000, false, 1), 0);
    f.cb.accept(f.request(0x8000, false, 2), 0);
    f.cb.accept(f.request(0x8000, false, 3), 0);
    f.run(400);
    EXPECT_EQ(f.inj.sent.size(), 3u); // one reply per requester
    EXPECT_EQ(f.cb.stats().get("l2_miss_merges"), 2.0);
    EXPECT_EQ(f.cb.stats().get("fills"), 1.0);
    // Only one memory access went to the HBM stack.
    EXPECT_EQ(f.cb.hbm().stats().get("reads"), 1.0);
}

TEST(CacheBank, WriteMissAllocatesAndAcks)
{
    Fixture f;
    f.cb.accept(f.request(0xC000, true), 0);
    f.run(400);
    ASSERT_EQ(f.inj.sent.size(), 1u);
    EXPECT_EQ(f.inj.sent[0]->type, PacketType::WriteReply);
    EXPECT_EQ(f.cb.stats().get("l2_write_misses"), 1.0);
    // Line is now resident and dirty; a read hits it.
    f.inj.sent.clear();
    f.cb.accept(f.request(0xC000), f.clock);
    f.run(50);
    ASSERT_EQ(f.inj.sent.size(), 1u);
    EXPECT_EQ(f.inj.sent[0]->type, PacketType::ReadReply);
    EXPECT_EQ(f.cb.stats().get("l2_read_hits"), 1.0);
}

TEST(CacheBank, InputQueueBoundsAcceptance)
{
    CbParams p;
    p.inputQueuePackets = 2;
    Fixture f(p);
    f.cb.accept(f.request(0x1000), 0);
    f.cb.accept(f.request(0x2000), 0);
    EXPECT_FALSE(f.cb.canAccept(f.request(0x3000)));
    f.run(300);
    EXPECT_TRUE(f.cb.canAccept(f.request(0x3000)));
}

TEST(CacheBank, BlockedReplyInjectionBackpressuresRequests)
{
    // The parking-lot mechanism: replies cannot inject, so the reply
    // queue fills, hits stall, the input queue fills, and canAccept
    // goes false - propagating pressure into the request network.
    CbParams p;
    p.inputQueuePackets = 4;
    p.replyQueuePackets = 2;
    Fixture f(p);
    f.inj.accepting = false;

    // Warm a line so subsequent requests are hits (hit path is the
    // one gated by the reply queue).
    f.cb.accept(f.request(0x0), 0);
    f.run(300);

    for (int i = 0; i < 12; ++i) {
        auto req = f.request(0x0, false, static_cast<NodeId>(i + 1));
        if (f.cb.canAccept(req))
            f.cb.accept(req, f.clock);
        f.run(20);
    }
    EXPECT_FALSE(f.cb.canAccept(f.request(0x0)));
    EXPECT_GT(f.cb.stats().get("stall_reply_queue"), 0.0);

    // Release the injection: everything drains.
    f.inj.accepting = true;
    f.run(600);
    EXPECT_TRUE(f.cb.drained());
    EXPECT_TRUE(f.cb.canAccept(f.request(0x0)));
}

TEST(CacheBank, DirtyEvictionWritesBack)
{
    // Tiny L2 so we can overflow a set quickly.
    CbParams p;
    p.l2 = CacheGeometry{2 * 64 * 4, 64, 2}; // 4 sets x 2 ways
    Fixture f(p);
    // Dirty a line, then evict it with two more lines in the same set.
    Addr base = 0;
    Addr stride = 4 * 64; // same set (4 sets)
    f.cb.accept(f.request(base, true), 0);
    f.run(300);
    f.cb.accept(f.request(base + stride), f.clock);
    f.run(300);
    f.cb.accept(f.request(base + 2 * stride), f.clock);
    f.run(500);
    EXPECT_GE(f.cb.hbm().stats().get("writes"), 1.0);
    EXPECT_GE(f.cb.stats().get("writebacks_done"), 1.0);
    EXPECT_TRUE(f.cb.drained());
}

TEST(CacheBank, ScriptedRunStatsMatchGolden)
{
    // Every CB and HBM counter, pinned from the string-keyed StatGroup
    // the bank used before its counters became typed. The script
    // exercises hits, misses, merges, fills, dirty writebacks, MSHR,
    // HBM-queue and reply-queue stalls, and the coherence directory.
    CbParams p;
    p.l2 = CacheGeometry{4 * 64 * 2, 64, 2}; // 4 sets x 2 ways
    p.mshrs = 4;
    p.targetsPerMshr = 2;
    p.replyQueuePackets = 2;
    p.inputQueuePackets = 4;
    p.hbm.channels = 2;
    p.hbm.queueDepth = 1;
    Fixture f(p);
    f.cb.enableCoherence(CoherenceParams{2});
    for (int cycle = 0; cycle < 3000; ++cycle) {
        f.inj.accepting = (cycle / 7) % 4 != 0;
        if (cycle < 1500 && cycle % 3 == 0) {
            // 12 lines, one DRAM row each, over 4 L2 sets and 4 HBM
            // banks: hits, evictions and row conflicts. Every 16th
            // request opens a same-line burst that overflows an MSHR.
            int i = cycle / 3;
            int k = i % 16 < 4 ? 0 : (i * 5) % 12;
            Addr addr = static_cast<Addr>(k * 1024 + k % 4) * 64;
            auto req = f.request(addr, i % 4 == 1,
                                 static_cast<NodeId>(1 + i % 7));
            if (f.cb.canAccept(req))
                f.cb.accept(req, f.clock);
        }
        if (cycle % 50 == 7)
            f.cb.accept(makePacket(PacketType::InvAck, 3, 5,
                                   f.sizes.invAckBits, 0),
                        f.clock);
        f.run(1);
    }
    EXPECT_TRUE(f.cb.drained());
    const std::map<std::string, double> cb_golden = {
        {"fills", 55},
        {"inv_acks_received", 60},
        {"invalidations_injected", 103},
        {"invalidations_sent", 103},
        {"l2_miss_merges", 28},
        {"l2_read_hits", 177},
        {"l2_read_misses", 41},
        {"l2_write_hits", 46},
        {"l2_write_misses", 14},
        {"read_requests", 240},
        {"replies_injected", 306},
        {"stall_hbm_queue", 49},
        {"stall_mshr_full", 64},
        {"stall_mshr_targets", 354},
        {"stall_reply_queue", 726},
        {"write_requests", 66},
        {"writebacks_done", 16},
    };
    const std::map<std::string, double> hbm_golden = {
        {"completions", 71}, {"reads", 55},    {"row_conflicts", 52},
        {"row_empty", 4},    {"row_hits", 15}, {"writes", 16},
    };
    EXPECT_EQ(f.cb.stats().all(), cb_golden);
    EXPECT_EQ(f.cb.hbm().stats().all(), hbm_golden);
}

TEST(CacheBank, ReplyDelivModeRejectsReplies)
{
    Fixture f;
    auto reply = makePacket(PacketType::ReadReply, 2, 5, 640);
    EXPECT_THROW(f.cb.canAccept(reply), std::logic_error);
}

} // namespace
} // namespace eqx
