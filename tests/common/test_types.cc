/** @file Coordinates, directions, packet-type helpers and active sets. */

#include <gtest/gtest.h>

#include <vector>

#include "common/types.hh"

namespace eqx {
namespace {

TEST(Types, ManhattanAndChebyshev)
{
    EXPECT_EQ(manhattan({0, 0}, {3, 4}), 7);
    EXPECT_EQ(manhattan({3, 4}, {0, 0}), 7);
    EXPECT_EQ(chebyshev({0, 0}, {3, 4}), 4);
    EXPECT_EQ(chebyshev({1, 1}, {2, 2}), 1);
    EXPECT_EQ(manhattan({1, 1}, {1, 1}), 0);
}

TEST(Types, DirStepRoundTrip)
{
    for (Dir d : {Dir::North, Dir::East, Dir::South, Dir::West}) {
        Coord s = dirStep(d);
        Coord o = dirStep(opposite(d));
        EXPECT_EQ(s.x + o.x, 0);
        EXPECT_EQ(s.y + o.y, 0);
    }
    EXPECT_EQ(opposite(Dir::North), Dir::South);
    EXPECT_EQ(opposite(Dir::East), Dir::West);
}

TEST(Types, YGrowsSouth)
{
    EXPECT_EQ(dirStep(Dir::South).y, 1);
    EXPECT_EQ(dirStep(Dir::North).y, -1);
}

TEST(Types, PacketClassPredicates)
{
    EXPECT_TRUE(isRequest(PacketType::ReadRequest));
    EXPECT_TRUE(isRequest(PacketType::WriteRequest));
    EXPECT_FALSE(isRequest(PacketType::ReadReply));
    EXPECT_FALSE(isRequest(PacketType::WriteReply));
    EXPECT_TRUE(isReply(PacketType::WriteReply));
}

TEST(Types, Names)
{
    EXPECT_STREQ(dirName(Dir::North), "N");
    EXPECT_STREQ(dirName(Dir::Local), "L");
    EXPECT_STREQ(packetTypeName(PacketType::ReadReply), "ReadReply");
}

TEST(Types, CoordOrderingAndHash)
{
    Coord a{1, 2}, b{2, 1};
    EXPECT_TRUE(b < a); // row-major: y first
    EXPECT_NE(std::hash<Coord>{}(a), std::hash<Coord>{}(b));
    EXPECT_TRUE(a == (Coord{1, 2}));
    EXPECT_TRUE(a != b);
}

/** The indices a live walk of @p set visits, with @p during called
 *  at each one (it may change the set mid-walk). */
template <typename F>
std::vector<std::size_t>
walk(ActiveSet &set, F &&during)
{
    std::vector<std::size_t> seen;
    set.forEach([&](std::size_t i) {
        seen.push_back(i);
        during(i);
    });
    return seen;
}

TEST(ActiveSet, SetClearTestAny)
{
    ActiveSet set(130);
    EXPECT_FALSE(set.any());
    set.set(0);
    set.set(129);
    EXPECT_TRUE(set.test(0));
    EXPECT_TRUE(set.test(129));
    EXPECT_FALSE(set.test(64));
    set.clear(0);
    set.clear(129);
    EXPECT_FALSE(set.any());
}

TEST(ActiveSet, WalkVisitsBitsSetAheadOfTheCursor)
{
    ActiveSet set(200);
    set.set(5);
    // From 5: one later in the same word, one in a later word.
    auto seen = walk(set, [&](std::size_t i) {
        if (i == 5) {
            set.set(40);
            set.set(150);
        }
    });
    EXPECT_EQ(seen, (std::vector<std::size_t>{5, 40, 150}));
}

TEST(ActiveSet, BitsSetBehindTheCursorWaitForTheNextWalk)
{
    ActiveSet set(200);
    set.set(30);
    set.set(100);
    // From 30, 10 is behind in the same word; from 100, 70 is behind
    // in the same word and 20 in an earlier one.
    auto first = walk(set, [&](std::size_t i) {
        if (i == 30)
            set.set(10);
        if (i == 100) {
            set.set(70);
            set.set(20);
        }
    });
    EXPECT_EQ(first, (std::vector<std::size_t>{30, 100}));
    auto second = walk(set, [](std::size_t) {});
    EXPECT_EQ(second, (std::vector<std::size_t>{10, 20, 30, 70, 100}));
}

TEST(ActiveSet, WalkCrossesTheWordBoundary)
{
    ActiveSet set(128);
    set.set(63);
    set.set(64);
    // Clearing the visited bit (how a component parks) and setting
    // the next word's first bit from the last bit of a word.
    auto seen = walk(set, [&](std::size_t i) {
        set.clear(i);
        if (i == 63)
            set.set(65);
    });
    EXPECT_EQ(seen, (std::vector<std::size_t>{63, 64, 65}));
    EXPECT_FALSE(set.any());
}

TEST(ActiveSet, WakeBitFiresExactlyItsIndex)
{
    for (std::size_t i : {0, 1, 63, 64, 127, 128}) {
        ActiveSet set(192);
        set.wakeBit(i).fire();
        auto seen = walk(set, [](std::size_t) {});
        EXPECT_EQ(seen, std::vector<std::size_t>{i}) << "bit " << i;
    }
    WakeBit{}.fire(); // an unwired bit is a no-op
}

} // namespace
} // namespace eqx
