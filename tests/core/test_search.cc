/** @file Search algorithms over the EIR design space. */

#include <gtest/gtest.h>

#include <set>

#include "core/eval_accumulator.hh"
#include "core/nqueen.hh"
#include "core/search.hh"

namespace eqx {
namespace {

class SearchTest : public ::testing::Test
{
  protected:
    SearchTest()
        : cbs{{2, 0}, {5, 1}, {1, 2}, {4, 3}, {7, 4}, {0, 5}, {6, 6},
              {3, 7}},
          prob(8, 8, cbs, 3, 4), eval(&prob)
    {}

    std::vector<Coord> cbs;
    EirProblem prob;
    EirEvaluator eval;
};

TEST_F(SearchTest, RandomGroupIsAlwaysLegal)
{
    Rng rng(1);
    for (int trial = 0; trial < 200; ++trial) {
        int cb = trial % prob.numCbs();
        auto g = randomGroup(prob, cb, TileMask(8, 8), rng);
        EXPECT_LE(g.size(), 4u);
        std::set<int> octs;
        std::set<Coord> uniq;
        for (const auto &e : g) {
            EXPECT_TRUE(uniq.insert(e).second);
            EXPECT_TRUE(
                octs.insert(
                        directionOctant(
                            prob.cbs()[static_cast<std::size_t>(cb)], e))
                    .second);
        }
    }
}

TEST_F(SearchTest, RandomGroupRespectsTaken)
{
    Rng rng(2);
    TileMask taken(8, 8);
    for (const auto &c : prob.candidates(3))
        taken.add(c);
    auto g = randomGroup(prob, 3, taken, rng);
    EXPECT_TRUE(g.empty());
}

TEST_F(SearchTest, MctsProducesValidSelection)
{
    MctsParams mp;
    mp.iterationsPerLevel = 120;
    auto res = mctsSearch(prob, eval, mp);
    EXPECT_TRUE(prob.valid(res.selection));
    EXPECT_GT(res.evaluations, 0u);
    EXPECT_EQ(res.method, "mcts");
}

TEST_F(SearchTest, MctsDeterministicForSeed)
{
    MctsParams mp;
    mp.iterationsPerLevel = 80;
    mp.seed = 7;
    auto a = mctsSearch(prob, eval, mp);
    auto b = mctsSearch(prob, eval, mp);
    EXPECT_EQ(a.selection, b.selection);
}

TEST_F(SearchTest, MctsBeatsRandomOnAverage)
{
    MctsParams mp;
    mp.iterationsPerLevel = 250;
    auto m = mctsSearch(prob, eval, mp);
    auto r = randomSearch(prob, eval, 250, 3);
    EXPECT_LE(m.eval.score, r.eval.score * 1.05);
}

TEST_F(SearchTest, GreedyValidAndBetterThanNothing)
{
    auto g = greedySearch(prob, eval, 256);
    EXPECT_TRUE(prob.valid(g.selection));
    // An untouched accumulator scores the all-local design.
    EXPECT_LT(g.eval.score, EvalAccumulator(&eval).score());
}

TEST_F(SearchTest, AnnealImprovesOnItsStart)
{
    AnnealParams ap;
    ap.steps = 600;
    auto a = annealSearch(prob, eval, ap);
    EXPECT_TRUE(prob.valid(a.selection));
    auto r = randomSearch(prob, eval, 1, ap.seed); // the same start
    EXPECT_LE(a.eval.score, r.eval.score + 1e-9);
}

TEST_F(SearchTest, GeneticProducesValidSelection)
{
    GeneticParams gp;
    gp.population = 12;
    gp.generations = 10;
    auto g = geneticSearch(prob, eval, gp);
    EXPECT_TRUE(prob.valid(g.selection));
}

TEST_F(SearchTest, PolishNeverWorsens)
{
    auto start = randomSearch(prob, eval, 1, 11);
    auto p = polishSelection(prob, eval, start.selection, 3, 256);
    EXPECT_TRUE(prob.valid(p.selection));
    EXPECT_LE(p.eval.score, start.eval.score + 1e-9);
}

TEST_F(SearchTest, PolishFixedPointIsStable)
{
    auto p1 = polishSelection(prob, eval, EirSelection(8), 4, 256);
    auto p2 = polishSelection(prob, eval, p1.selection, 4, 256);
    EXPECT_NEAR(p1.eval.score, p2.eval.score, 1e-9);
}

} // namespace
} // namespace eqx
