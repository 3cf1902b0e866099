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
    GroupList groups = prob.groupsFor(3, TileMask(8, 8));
    ASSERT_FALSE(groups.empty());
    const Coord &cb = prob.cbs()[3];
    std::size_t prev_size = 4;
    for (std::size_t i = 0; i < groups.size(); ++i) {
        auto g = groups.group(i);
        EXPECT_LE(g.size(), prev_size); // larger groups first
        prev_size = g.size();
        std::set<int> octs;
        for (const auto &e : g)
            EXPECT_TRUE(octs.insert(directionOctant(cb, e)).second);
    }
    // Empty fallback group is present exactly once, at the end.
    EXPECT_TRUE(groups.group(groups.size() - 1).empty());
    EXPECT_FALSE(groups.group(groups.size() - 2).empty());
}

TEST(EirProblem, GroupsExcludeTakenTiles)
{
    EirProblem prob(8, 8, spreadCbs(), 3, 4);
    auto all = prob.candidates(3);
    ASSERT_FALSE(all.empty());
    Coord taken = all.front();
    TileMask mask(8, 8);
    mask.add(taken);
    GroupList groups = prob.groupsFor(3, mask);
    for (std::size_t i = 0; i < groups.size(); ++i)
        for (const auto &e : groups.group(i))
            EXPECT_FALSE(e == taken);
}

TEST(EirProblem, GroupListShufflesLikeAVector)
{
    // MCTS shuffles the packed list in place of the vector of groups
    // it used to shuffle; the permutation and the draws it consumes
    // must be the same.
    EirProblem prob(8, 8, spreadCbs(), 3, 4);
    GroupList groups = prob.groupsFor(3, TileMask(8, 8));
    std::vector<std::vector<Coord>> vec;
    for (std::size_t i = 0; i < groups.size(); ++i)
        vec.push_back(groups.group(i));
    ASSERT_GT(vec.size(), 64u);

    Rng a(11), b(11);
    groups.shuffle(a);
    b.shuffle(vec);
    ASSERT_EQ(groups.size(), vec.size());
    for (std::size_t i = 0; i < vec.size(); ++i)
        EXPECT_EQ(groups.group(i), vec[i]) << i;
    EXPECT_EQ(a.next(), b.next());

    groups.truncate(64);
    ASSERT_EQ(groups.size(), 64u);
    EXPECT_EQ(groups.group(63), vec[63]);
    groups.truncate(100); // never grows
    EXPECT_EQ(groups.size(), 64u);
}

TEST(EirProblem, ValidAcceptsLegalSelection)
{
    EirProblem prob(8, 8, spreadCbs(), 3, 4);
    // Front groups may conflict across CBs; build incrementally.
    EirSelection sel;
    TileMask taken(8, 8);
    for (int i = 0; i < prob.numCbs(); ++i) {
        auto g = prob.groupsFor(i, taken).group(0);
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
