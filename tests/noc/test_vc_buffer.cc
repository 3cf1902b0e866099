/** @file VC buffer FIFO semantics. */

#include <gtest/gtest.h>

#include "noc/vc_buffer.hh"

namespace eqx {
namespace {

Flit
flitOf(PacketPtr pkt, int idx, int n)
{
    Flit f;
    f.pkt = std::move(pkt);
    f.index = idx;
    f.isHead = idx == 0;
    f.isTail = idx == n - 1;
    return f;
}

TEST(VcBuffer, FifoOrder)
{
    VcBuffer vcb(5);
    auto pkt = makePacket(PacketType::ReadReply, 0, 1, 640);
    for (int i = 0; i < 5; ++i)
        vcb.push(flitOf(pkt, i, 5));
    EXPECT_TRUE(vcb.full());
    for (int i = 0; i < 5; ++i) {
        Flit f = vcb.pop();
        EXPECT_EQ(f.index, i);
    }
    EXPECT_TRUE(vcb.empty());
}

TEST(VcBuffer, OverflowPanics)
{
    VcBuffer vcb(1);
    auto pkt = makePacket(PacketType::ReadRequest, 0, 1, 128);
    vcb.push(flitOf(pkt, 0, 1));
    EXPECT_THROW(vcb.push(flitOf(pkt, 0, 1)), std::logic_error);
}

TEST(VcBuffer, PopEmptyPanics)
{
    VcBuffer vcb(1);
    EXPECT_THROW(vcb.pop(), std::logic_error);
}

TEST(VcBuffer, OccupancyTracksPushPop)
{
    VcBuffer vcb(4);
    auto pkt = makePacket(PacketType::ReadRequest, 0, 1, 128);
    EXPECT_EQ(vcb.occupancy(), 0);
    vcb.push(flitOf(pkt, 0, 2));
    vcb.push(flitOf(pkt, 1, 2));
    EXPECT_EQ(vcb.occupancy(), 2);
    vcb.pop();
    EXPECT_EQ(vcb.occupancy(), 1);
    EXPECT_EQ(vcb.depth(), 4);
}

} // namespace
} // namespace eqx
