/** @file EIR candidate rules, group enumeration, selection validity. */

#include <gtest/gtest.h>

#include <set>

#include "core/eir_problem.hh"

namespace eqx {
namespace {

std::vector<Coord>
spreadCbs()
{
    return {{2, 0}, {5, 1}, {1, 2}, {4, 3}, {7, 4}, {0, 5}, {6, 6},
            {3, 7}};
}

TEST(Octant, EightDirections)
{
    Coord c{4, 4};
    EXPECT_EQ(directionOctant(c, {6, 4}), 0); // E
    EXPECT_EQ(directionOctant(c, {6, 2}), 1); // NE
    EXPECT_EQ(directionOctant(c, {4, 2}), 2); // N
    EXPECT_EQ(directionOctant(c, {2, 2}), 3); // NW
    EXPECT_EQ(directionOctant(c, {2, 4}), 4); // W
    EXPECT_EQ(directionOctant(c, {2, 6}), 5); // SW
    EXPECT_EQ(directionOctant(c, {4, 6}), 6); // S
    EXPECT_EQ(directionOctant(c, {6, 6}), 7); // SE
}

TEST(EirProblem, CandidatesRespectDistanceWindow)
{
    EirProblem prob(8, 8, spreadCbs(), 3, 4);
    for (int i = 0; i < prob.numCbs(); ++i) {
        for (const auto &c : prob.candidates(i)) {
            int d = manhattan(prob.cbs()[static_cast<std::size_t>(i)], c);
            EXPECT_GE(d, 2);
            EXPECT_LE(d, 3);
        }
    }
}

TEST(EirProblem, CandidatesAvoidOwnHotZoneAndCbs)
{
    EirProblem prob(8, 8, spreadCbs(), 3, 4);
    std::set<Coord> cbs(prob.cbs().begin(), prob.cbs().end());
    for (int i = 0; i < prob.numCbs(); ++i) {
        const Coord &own = prob.cbs()[static_cast<std::size_t>(i)];
        for (const auto &c : prob.candidates(i)) {
            EXPECT_GT(chebyshev(own, c), 1); // bypasses DAZ and CAZ
            EXPECT_EQ(cbs.count(c), 0u);
        }
    }
}

TEST(EirProblem, GroupsObeyOctantAndSizeRules)
{
    EirProblem prob(8, 8, spreadCbs(), 3, 4);
    auto groups = prob.groupsFor(3, TileMask(8, 8));
    ASSERT_FALSE(groups.empty());
    const Coord &cb = prob.cbs()[3];
    for (const auto &g : groups) {
        EXPECT_LE(g.size(), 4u);
        std::set<int> octs;
        for (const auto &e : g)
            EXPECT_TRUE(octs.insert(directionOctant(cb, e)).second);
    }
    // Empty fallback group is present exactly once, at the end.
    EXPECT_TRUE(groups.back().empty());
}

TEST(EirProblem, GroupsExcludeTakenTiles)
{
    EirProblem prob(8, 8, spreadCbs(), 3, 4);
    auto all = prob.candidates(3);
    ASSERT_FALSE(all.empty());
    Coord taken = all.front();
    TileMask mask(8, 8);
    mask.add(taken);
    auto groups = prob.groupsFor(3, mask);
    for (const auto &g : groups)
        for (const auto &e : g)
            EXPECT_FALSE(e == taken);
}

TEST(EirProblem, ValidAcceptsLegalSelection)
{
    EirProblem prob(8, 8, spreadCbs(), 3, 4);
    // Front groups may conflict across CBs; build incrementally.
    EirSelection sel;
    TileMask taken(8, 8);
    for (int i = 0; i < prob.numCbs(); ++i) {
        auto g = prob.groupsFor(i, taken).front();
        for (const auto &t : g)
            taken.add(t);
        sel.push_back(std::move(g));
    }
    std::string why;
    EXPECT_TRUE(prob.valid(sel, &why)) << why;
}

TEST(EirProblem, ValidRejectsSharingAndBadTiles)
{
    EirProblem prob(8, 8, spreadCbs(), 3, 4);
    EirSelection sel(static_cast<std::size_t>(prob.numCbs()));

    // Shared EIR between two CBs.
    Coord shared{3, 2}; // within 2..3 hops of cb2 (1,2) and cb3 (4,3)?
    sel[2] = {shared};
    sel[3] = {shared};
    std::string why;
    bool ok = prob.valid(sel, &why);
    EXPECT_FALSE(ok);

    // Illegal tile: a CB position.
    EirSelection sel2(static_cast<std::size_t>(prob.numCbs()));
    sel2[0] = {prob.cbs()[1]};
    EXPECT_FALSE(prob.valid(sel2));

    // Wrong number of groups.
    EirSelection sel3;
    EXPECT_FALSE(prob.valid(sel3));
}

TEST(EirProblem, LinkPlanMatchesSelection)
{
    EirProblem prob(8, 8, spreadCbs(), 3, 4);
    EirSelection sel(static_cast<std::size_t>(prob.numCbs()));
    sel[0] = {prob.candidates(0).front()};
    sel[4] = {prob.candidates(4).front()};
    LinkPlan plan = prob.linkPlan(sel);
    EXPECT_EQ(plan.size(), 2u);
    EXPECT_EQ(plan.links()[0].widthBits, 128);
    EXPECT_FALSE(plan.links()[0].bidirectional);
}

TEST(EirProblem, TooSmallHopLimitRejected)
{
    EXPECT_THROW(EirProblem(8, 8, spreadCbs(), 1, 4), std::logic_error);
}

} // namespace
} // namespace eqx
