/** @file HBM stack: FR-FCFS, row-buffer behaviour, bandwidth cap. */

#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "memory/hbm.hh"

namespace eqx {
namespace {

struct Harness
{
    explicit Harness(HbmParams p = {})
        : stack(p, [this](const MemRequest &r, Cycle c) {
              done.push_back({r, c});
          })
    {}

    void
    run(Cycle &clock, int cycles)
    {
        for (int i = 0; i < cycles; ++i)
            stack.tick(++clock);
    }

    std::vector<std::pair<MemRequest, Cycle>> done;
    HbmStack stack;
};

TEST(Hbm, AddressDecompositionInterleavesChannels)
{
    Harness h;
    // Consecutive lines hit consecutive channels.
    int ch0 = h.stack.channelOf(0);
    int ch1 = h.stack.channelOf(64);
    EXPECT_NE(ch0, ch1);
    EXPECT_EQ(h.stack.channelOf(0), h.stack.channelOf(16 * 64));
}

TEST(Hbm, MoreThan64ChannelsRejected)
{
    // The backlog mask has one bit per channel.
    HbmParams p;
    p.channels = 64;
    EXPECT_NO_THROW(HbmStack(p, nullptr));
    p.channels = 65;
    EXPECT_THROW(HbmStack(p, nullptr), std::logic_error);
}

TEST(Hbm, SingleReadCompletes)
{
    Harness h;
    Cycle clock = 0;
    ASSERT_TRUE(h.stack.canEnqueue(0x1000));
    h.stack.enqueue({0x1000, false, 7}, clock);
    EXPECT_EQ(h.stack.outstanding(), 1);
    h.run(clock, 100);
    ASSERT_EQ(h.done.size(), 1u);
    EXPECT_EQ(h.done[0].first.tag, 7u);
    EXPECT_EQ(h.stack.outstanding(), 0);
}

TEST(Hbm, RowHitFasterThanRowConflict)
{
    HbmParams p;
    Harness h(p);
    Cycle clock = 0;
    // Two accesses to the same row, then one to a different row in the
    // same bank.
    Addr a = 0;
    // Same channel (x16) and same bank (x8): the next line of row 0.
    Addr same_row = 64 * 16 * 8;
    h.stack.enqueue({a, false, 1}, clock);
    h.run(clock, 100);
    Cycle t0 = h.done[0].second;

    h.stack.enqueue({same_row, false, 2}, clock);
    h.run(clock, 100);
    Cycle hit_lat = h.done[1].second - t0;

    // Conflict: a line far enough to land in another row, same bank.
    Addr other_row = 64ull * 16 * 8 * 64 * 2;
    EXPECT_EQ(h.stack.channelOf(other_row), h.stack.channelOf(a));
    EXPECT_EQ(h.stack.bankOf(other_row), h.stack.bankOf(a));
    EXPECT_NE(h.stack.rowOf(other_row), h.stack.rowOf(a));
    Cycle t1 = h.done[1].second;
    h.stack.enqueue({other_row, false, 3}, clock);
    h.run(clock, 200);
    Cycle miss_lat = h.done[2].second - t1;
    EXPECT_LT(hit_lat, miss_lat);
    EXPECT_GT(h.stack.stats().get("row_hits"), 0.0);
    EXPECT_GT(h.stack.stats().get("row_conflicts"), 0.0);
}

TEST(Hbm, FrFcfsPrefersReadyRowHit)
{
    HbmParams p;
    p.channels = 1;
    p.banksPerChannel = 1;
    p.queueDepth = 8;
    Harness h(p);
    Cycle clock = 0;
    // Open row A, then enqueue row B (older) and row A (younger): the
    // row hit should finish first despite arriving later.
    h.stack.enqueue({0, false, 0}, clock);
    h.run(clock, 100);
    h.done.clear();
    Addr rowB = 64ull * 64 * 3;
    h.stack.enqueue({rowB, false, 1}, clock);
    h.stack.enqueue({64, false, 2}, clock); // same row as addr 0
    h.run(clock, 300);
    ASSERT_EQ(h.done.size(), 2u);
    EXPECT_EQ(h.done[0].first.tag, 2u); // the hit completed first
    EXPECT_EQ(h.done[1].first.tag, 1u);
}

TEST(Hbm, QueueDepthEnforced)
{
    HbmParams p;
    p.channels = 1;
    p.queueDepth = 2;
    Harness h(p);
    Cycle clock = 0;
    h.stack.enqueue({0, false, 0}, clock);
    h.stack.enqueue({64, false, 1}, clock);
    // The first may have issued at tick time 0? No ticks yet: both
    // queued, so the channel is full.
    EXPECT_FALSE(h.stack.canEnqueue(128));
    h.run(clock, 100);
    EXPECT_TRUE(h.stack.canEnqueue(128));
}

TEST(Hbm, WritesTakeRecoveryTime)
{
    HbmParams p;
    p.channels = 1;
    p.banksPerChannel = 1;
    Harness h(p);
    Cycle clock = 0;
    h.stack.enqueue({0, false, 0}, clock);
    h.run(clock, 200);
    Cycle start = clock;
    h.stack.enqueue({64, true, 1}, clock); // row hit write
    h.run(clock, 200);
    Cycle write_lat = h.done[1].second - start;
    EXPECT_GE(write_lat,
              static_cast<Cycle>(p.timing.tCL + p.timing.tBL +
                                 p.timing.tWR));
}

TEST(Hbm, ChannelBusSerializesBursts)
{
    HbmParams p;
    p.channels = 1;
    p.banksPerChannel = 8;
    Harness h(p);
    Cycle clock = 0;
    // 8 row-empty accesses to 8 different banks: bank-parallel but the
    // shared bus issues at most one burst per tBL.
    for (int b = 0; b < 8; ++b) {
        Addr addr = static_cast<Addr>(b) * 64;
        // channels=1 so lines map to consecutive banks
        h.stack.enqueue({addr, false, static_cast<std::uint64_t>(b)},
                        clock);
    }
    h.run(clock, 500);
    ASSERT_EQ(h.done.size(), 8u);
    // Completions must be spread by at least tBL apart on average.
    Cycle first = h.done.front().second;
    Cycle last = h.done.back().second;
    EXPECT_GE(last - first, static_cast<Cycle>(7 * p.timing.tBL));
}

TEST(Hbm, ThroughputScalesWithChannels)
{
    auto run_n = [](int channels) {
        HbmParams p;
        p.channels = channels;
        p.queueDepth = 64;
        Harness h(p);
        Cycle clock = 0;
        int sent = 0;
        for (int i = 0; i < 64; ++i) {
            Addr a = static_cast<Addr>(i) * 64;
            if (h.stack.canEnqueue(a)) {
                h.stack.enqueue({a, false, 0}, clock);
                ++sent;
            }
        }
        Cycle start = clock;
        while (h.stack.outstanding() > 0 && clock < start + 10000)
            h.stack.tick(++clock);
        return clock - start;
    };
    EXPECT_LT(run_n(16), run_n(2));
}

TEST(Hbm, RandomSequenceMatchesGolden)
{
    // A fixed-seed random stream over 4 channels x 4 banks x 3 rows,
    // offered faster than the stack drains it, so queues back up and
    // FR-FCFS reorders. Completion order and cycles, and every
    // counter, were pinned before the stack decoded bank and row at
    // enqueue time.
    HbmParams p;
    p.channels = 4;
    p.banksPerChannel = 4;
    p.queueDepth = 6;
    Harness h(p);
    Rng rng(42);
    Cycle clock = 0;
    constexpr int kRequests = 96;
    int next = 0;
    MemRequest pending;
    bool have = false;
    while ((next < kRequests || have || h.stack.outstanding() > 0) &&
           clock < 20000) {
        for (int slot = 0; slot < 3; ++slot) {
            if (!have && next < kRequests) {
                Addr line = rng.nextBounded(4 * 4 * 64 * 3);
                pending = MemRequest{line * 64, rng.chance(0.25),
                                     static_cast<std::uint64_t>(next++)};
                have = true;
            }
            if (!have || !h.stack.canEnqueue(pending.addr))
                break;
            h.stack.enqueue(pending, clock);
            have = false;
        }
        h.stack.tick(++clock);
    }
    ASSERT_EQ(h.done.size(), static_cast<std::size_t>(kRequests));
    std::vector<std::pair<std::uint64_t, Cycle>> order;
    for (const auto &[req, at] : h.done)
        order.emplace_back(req.tag, at);
    const std::vector<std::pair<std::uint64_t, Cycle>> golden_order = {
        {2, 37}, {0, 37}, {1, 37}, {9, 40}, {3, 41}, {7, 41},
        {12, 41}, {4, 45}, {8, 45}, {16, 45}, {25, 50}, {19, 61},
        {10, 67}, {14, 67}, {30, 77}, {18, 78}, {17, 87}, {5, 89},
        {6, 89}, {13, 89}, {11, 93}, {41, 97}, {26, 97}, {20, 97},
        {32, 99}, {36, 101}, {39, 107}, {31, 109}, {15, 113}, {34, 115},
        {22, 116}, {33, 117}, {24, 119}, {45, 121}, {59, 129}, {21, 133},
        {55, 136}, {28, 136}, {51, 137}, {57, 139}, {27, 141}, {47, 142},
        {43, 143}, {54, 145}, {48, 149}, {42, 156}, {64, 156}, {61, 159},
        {37, 161}, {56, 165}, {52, 167}, {40, 169}, {38, 175}, {44, 176},
        {66, 183}, {23, 189}, {65, 189}, {29, 191}, {53, 194}, {77, 196},
        {82, 197}, {63, 197}, {73, 203}, {50, 211}, {70, 212}, {90, 215},
        {78, 218}, {58, 219}, {76, 223}, {86, 227}, {80, 231}, {62, 232},
        {68, 237}, {69, 245}, {60, 249}, {92, 254}, {46, 259}, {91, 267},
        {71, 270}, {35, 270}, {67, 271}, {49, 273}, {84, 279}, {75, 282},
        {88, 290}, {72, 293}, {87, 293}, {95, 294}, {74, 307}, {83, 313},
        {89, 317}, {79, 327}, {93, 328}, {81, 364}, {94, 365}, {85, 435},
    };
    const std::map<std::string, double> golden_stats = {
        {"completions", 96},   {"reads", 69},    {"row_conflicts", 37},
        {"row_empty", 16},     {"row_hits", 43}, {"writes", 27},
    };
    EXPECT_EQ(order, golden_order);
    EXPECT_EQ(h.stack.stats().all(), golden_stats);
}

} // namespace
} // namespace eqx
