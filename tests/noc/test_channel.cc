/** @file Pipelined channel: where sends land on the pending wheel. */

#include <gtest/gtest.h>

#include <vector>

#include "noc/channel.hh"
#include "noc/packet.hh"

namespace eqx {
namespace {

/** An 8-slot wheel: slot index = due tick & 7. */
struct Wheel
{
    static constexpr std::uint32_t kMask = 7;
    std::vector<WheelSlot> slots = std::vector<WheelSlot>(kMask + 1);

    std::size_t
    items() const
    {
        std::size_t n = 0;
        for (const auto &s : slots)
            n += s.flits.size() + s.credits.size();
        return n;
    }
};

Credit
credit(int vc)
{
    return Credit{0, vc};
}

TEST(Channel, DeliversAfterLatency)
{
    Wheel w;
    Channel<Credit> ch(3, w.slots.data(), Wheel::kMask, 17);
    ch.send(credit(1), 10);
    // Due at 13: slot 13 & 7 == 5, tagged with the wire.
    const auto &slot = w.slots[13 & Wheel::kMask];
    ASSERT_EQ(slot.credits.size(), 1u);
    EXPECT_EQ(slot.credits[0].wire, 17u);
    EXPECT_EQ(slot.credits[0].c.vc, 1);
    EXPECT_EQ(w.items(), 1u);
}

TEST(Channel, FifoOrder)
{
    // Successive sends fall due in successive slots, wrapping round
    // the wheel, so due order is send order.
    Wheel w;
    Channel<Credit> ch(2, w.slots.data(), Wheel::kMask, 0);
    for (int t = 5; t < 9; ++t)
        ch.send(credit(t), static_cast<Cycle>(t));
    for (int t = 5; t < 9; ++t) {
        const auto &slot = w.slots[(t + 2) & Wheel::kMask];
        ASSERT_EQ(slot.credits.size(), 1u) << t;
        EXPECT_EQ(slot.credits[0].c.vc, t);
    }
}

TEST(Channel, ZeroLatencyRejected)
{
    Wheel w;
    EXPECT_THROW(Channel<Credit>(0, w.slots.data(), Wheel::kMask, 0),
                 std::logic_error);
}

TEST(Channel, LatencyBeyondWheelRejected)
{
    // A latency equal to the wheel size would land in the slot being
    // delivered.
    Wheel w;
    EXPECT_NO_THROW(Channel<Credit>(7, w.slots.data(), Wheel::kMask, 0));
    EXPECT_THROW(Channel<Credit>(8, w.slots.data(), Wheel::kMask, 0),
                 std::logic_error);
}

TEST(Channel, CarriesFlits)
{
    Wheel w;
    Channel<Flit> ch(1, w.slots.data(), Wheel::kMask, 4);
    Flit f;
    f.pkt = makePacket(PacketType::ReadReply, 1, 2, 640);
    f.index = 3;
    f.vc = 1;
    f.isHead = true;
    PacketPtr sent = f.pkt;
    ch.send(std::move(f), 5);
    const auto &slot = w.slots[6];
    ASSERT_EQ(slot.flits.size(), 1u);
    const auto &ev = slot.flits[0];
    EXPECT_EQ(ev.wire, 4u);
    EXPECT_EQ(ev.f.pkt.get(), sent.get());
    EXPECT_EQ(ev.f.pkt->dst, 2);
    EXPECT_EQ(ev.f.index, 3);
    EXPECT_EQ(ev.f.vc, 1);
    EXPECT_TRUE(ev.f.isHead);
    EXPECT_FALSE(ev.f.isTail);
}

TEST(Channel, SecondSendSameTickAsserts)
{
    // A physical link carries one item per tick, which also keeps a
    // wire to one event per wheel slot.
    Wheel w;
    Channel<Credit> ch(2, w.slots.data(), Wheel::kMask, 0);
    ch.send(credit(1), 5);
    EXPECT_THROW(ch.send(credit(2), 5), std::logic_error);
    EXPECT_EQ(w.items(), 1u); // the rejected send left no trace
    ch.send(credit(3), 6);    // the next tick is fine
    ASSERT_EQ(w.slots[7].credits.size(), 1u);
    EXPECT_EQ(w.slots[7].credits[0].c.vc, 1);
    ASSERT_EQ(w.slots[8 & Wheel::kMask].credits.size(), 1u);
    EXPECT_EQ(w.slots[8 & Wheel::kMask].credits[0].c.vc, 3);
}

TEST(Channel, SendTicksMustIncrease)
{
    Wheel w;
    Channel<Credit> ch(1, w.slots.data(), Wheel::kMask, 0);
    ch.send(credit(1), 10);
    EXPECT_THROW(ch.send(credit(2), 9), std::logic_error);
    EXPECT_EQ(w.items(), 1u);
    ASSERT_EQ(w.slots[11 & Wheel::kMask].credits.size(), 1u);
    EXPECT_EQ(w.slots[11 & Wheel::kMask].credits[0].c.vc, 1);
}

} // namespace
} // namespace eqx
