/**
 * @file
 * The incremental-evaluation contract: EvalAccumulator scores must be
 * bit-identical doubles to the from-scratch referenceEvaluate()
 * oracle, at every prefix, under push/pop backtracking, under setGroup
 * in-place replacement, and regardless of whether a contribution is
 * served from the memo or recomputed (DESIGN.md §15).
 *
 * Every comparison below is EXPECT_EQ on doubles on purpose: the
 * design guarantee is exact equality, not closeness.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "core/eval_accumulator.hh"
#include "core/nqueen.hh"
#include "core/search.hh"
#include "eval_reference.hh"

namespace eqx {
namespace {

EirProblem
paperProblem(int n, int num_cbs)
{
    Rng rng(7);
    auto placed = bestNQueenPlacement(n, num_cbs, rng);
    return EirProblem(n, n, placed.cbs);
}

/** Draw a random full selection, prefix by prefix. */
EirSelection
drawSelection(const EirProblem &prob, Rng &rng)
{
    EirSelection sel;
    TileMask taken(prob.width(), prob.height());
    for (int cb = 0; cb < prob.numCbs(); ++cb) {
        auto g = randomGroup(prob, cb, taken, rng);
        for (const auto &t : g)
            taken.add(t);
        sel.push_back(std::move(g));
    }
    return sel;
}

void
expectSameBreakdown(const EvalBreakdown &a, const EvalBreakdown &b)
{
    EXPECT_EQ(a.score, b.score);
    EXPECT_EQ(a.maxLoad, b.maxLoad);
    EXPECT_EQ(a.avgHops, b.avgHops);
    EXPECT_EQ(a.crossings, b.crossings);
    EXPECT_EQ(a.totalLength, b.totalLength);
    EXPECT_EQ(a.repeaterFrac, b.repeaterFrac);
}

/** Incremental == from-scratch at every prefix of random selections. */
void
checkProblem(const EirProblem &prob, int rounds)
{
    EirEvaluator eval(&prob);
    EvalAccumulator acc(&eval);
    Rng rng(42);

    for (int round = 0; round < rounds; ++round) {
        EirSelection sel = drawSelection(prob, rng);
        acc.reset();
        for (int cb = 0; cb < prob.numCbs(); ++cb) {
            acc.push(cb, sel[static_cast<std::size_t>(cb)]);
            // From-scratch reference on the same prefix (undecided
            // CBs = empty groups, exactly like the accumulator).
            EirSelection prefix(sel.begin(), sel.begin() + cb + 1);
            prefix.resize(static_cast<std::size_t>(prob.numCbs()));
            expectSameBreakdown(acc.evaluate(),
                                referenceEvaluate(eval, prefix));
        }
    }
}

void
checkScale(int n, int num_cbs, int rounds)
{
    checkProblem(paperProblem(n, num_cbs), rounds);
}

TEST(EvalIncremental, MatchesFromScratch6x6)
{
    checkScale(6, 4, 6);
}

TEST(EvalIncremental, MatchesFromScratchPaperScale8x8)
{
    checkScale(8, 8, 6);
}

TEST(EvalIncremental, MatchesFromScratch16x16)
{
    checkScale(16, 8, 3);
}

TEST(EvalIncremental, MatchesFromScratchOnTorusAndCMesh)
{
    // Fabrics whose hop metric is not Manhattan (DESIGN.md §17): the
    // wrap links and the shared CMesh routers change which group
    // tiles lie on a shortest path.
    Rng place(7);
    auto placed = bestNQueenPlacement(12, 8, place);
    for (TopologyKind kind : {TopologyKind::Torus, TopologyKind::CMesh}) {
        TopoSpec topo;
        topo.kind = kind;
        SCOPED_TRACE(topologyKindName(kind));
        checkProblem(EirProblem(12, 12, placed.cbs, 3, 4, topo), 3);
    }
}

TEST(EvalIncremental, ArbitraryGroupsMatchFromScratch)
{
    // The evaluator scores any ordered tile list, legal or not:
    // repeated tiles, other CBs' tiles, tiles far outside the EIR
    // window and lists longer than maxPerGroup. Buffer Selection
    // still reads the first two eligible entries in list order.
    // (A link from a CB to its own tile is the one thing the oracle's
    // link plan rejects.)
    EirProblem prob = paperProblem(8, 8);
    EirEvaluator eval(&prob);
    Rng rng(5);
    for (int round = 0; round < 100; ++round) {
        EirSelection sel(static_cast<std::size_t>(prob.numCbs()));
        for (int cb = 0; cb < prob.numCbs(); ++cb) {
            auto &group = sel[static_cast<std::size_t>(cb)];
            int n = static_cast<int>(rng.nextBounded(7));
            while (static_cast<int>(group.size()) < n) {
                Coord t{static_cast<int>(rng.nextBounded(8)),
                        static_cast<int>(rng.nextBounded(8))};
                if (!group.empty() && rng.chance(0.25))
                    t = group[rng.nextBounded(group.size())];
                if (t != prob.cbs()[static_cast<std::size_t>(cb)])
                    group.push_back(t);
            }
        }
        EvalAccumulator acc(&eval);
        for (int cb = 0; cb < prob.numCbs(); ++cb)
            acc.push(cb, sel[static_cast<std::size_t>(cb)]);
        expectSameBreakdown(acc.evaluate(), referenceEvaluate(eval, sel));
    }
}

TEST(EvalIncremental, PushPopRestoresScoreBitExactly)
{
    EirProblem prob = paperProblem(8, 8);
    EirEvaluator eval(&prob);
    EvalAccumulator acc(&eval);
    Rng rng(3);

    EirSelection sel = drawSelection(prob, rng);
    for (int cb = 0; cb < 5; ++cb)
        acc.push(cb, sel[static_cast<std::size_t>(cb)]);
    double before = acc.score();
    EvalBreakdown before_b = acc.evaluate();

    // Descend three more levels, then backtrack.
    for (int cb = 5; cb < 8; ++cb)
        acc.push(cb, sel[static_cast<std::size_t>(cb)]);
    while (acc.depth() > 5)
        acc.pop();

    EXPECT_EQ(acc.score(), before);
    expectSameBreakdown(acc.evaluate(), before_b);
}

TEST(EvalIncremental, SetGroupRevertIsBitExact)
{
    EirProblem prob = paperProblem(8, 8);
    EirEvaluator eval(&prob);
    EvalAccumulator acc(&eval);
    Rng rng(11);

    EirSelection sel = drawSelection(prob, rng);
    for (int cb = 0; cb < prob.numCbs(); ++cb)
        acc.push(cb, sel[static_cast<std::size_t>(cb)]);
    double before = acc.score();

    // Replace CB 3's group with a fresh draw, then revert: the
    // simulated-annealing reject path.
    std::vector<Coord> old_group = acc.group(3);
    acc.setGroup(3, {});
    acc.setGroup(3, randomGroup(prob, 3, acc.takenMask(), rng));
    EXPECT_EQ(acc.evaluate().score,
              referenceEvaluate(eval, acc.selection()).score);
    acc.setGroup(3, old_group);
    EXPECT_EQ(acc.score(), before);
}

TEST(EvalIncremental, MemoHitEqualsMemoMiss)
{
    EirProblem prob = paperProblem(8, 8);
    EirEvaluator eval(&prob);
    Rng rng(5);
    EirSelection sel = drawSelection(prob, rng);

    // Cold pass populates the memo; warm pass must be served from it
    // and produce the identical score.
    EvalAccumulator cold(&eval);
    for (int cb = 0; cb < prob.numCbs(); ++cb)
        cold.push(cb, sel[static_cast<std::size_t>(cb)]);
    double cold_score = cold.score();
    std::uint64_t misses = eval.memoMisses();
    EXPECT_GT(misses, 0u);

    EvalAccumulator warm(&eval);
    for (int cb = 0; cb < prob.numCbs(); ++cb)
        warm.push(cb, sel[static_cast<std::size_t>(cb)]);
    EXPECT_EQ(warm.score(), cold_score);
    EXPECT_EQ(eval.memoMisses(), misses); // all hits, no recompute
    EXPECT_GT(eval.memoHits(), 0u);
}

TEST(EvalIncremental, EmptyAccumulatorMatchesEmptySelections)
{
    EirProblem prob = paperProblem(8, 8);
    EirEvaluator eval(&prob);
    EvalAccumulator acc(&eval);

    EvalBreakdown scratch_sized = referenceEvaluate(
        eval, EirSelection(static_cast<std::size_t>(prob.numCbs())));
    EvalBreakdown scratch_empty = referenceEvaluate(eval, EirSelection{});
    expectSameBreakdown(acc.evaluate(), scratch_sized);
    expectSameBreakdown(acc.evaluate(), scratch_empty);

    // And after a full load/unload cycle.
    Rng rng(9);
    EirSelection sel = drawSelection(prob, rng);
    for (int cb = 0; cb < prob.numCbs(); ++cb)
        acc.push(cb, sel[static_cast<std::size_t>(cb)]);
    while (acc.depth() > 0)
        acc.pop();
    expectSameBreakdown(acc.evaluate(), scratch_sized);
}

TEST(EvalIncremental, SearchMethodsAgreeWithFromScratchFinalEval)
{
    // Every search reads its final breakdown from its accumulator; the
    // from-scratch oracle must score the reported selection the same.
    EirProblem prob = paperProblem(8, 8);
    EirEvaluator eval(&prob);

    SearchResult g = greedySearch(prob, eval);
    EXPECT_EQ(g.eval.score, referenceEvaluate(eval, g.selection).score);

    SearchResult a = annealSearch(prob, eval, {});
    EXPECT_EQ(a.eval.score, referenceEvaluate(eval, a.selection).score);

    SearchResult m = mctsSearch(prob, eval, {});
    EXPECT_EQ(m.eval.score, referenceEvaluate(eval, m.selection).score);

    SearchResult ga = geneticSearch(prob, eval, {});
    EXPECT_EQ(ga.eval.score, referenceEvaluate(eval, ga.selection).score);

    SearchResult p = polishSelection(prob, eval, m.selection);
    EXPECT_EQ(p.eval.score, referenceEvaluate(eval, p.selection).score);
}

} // namespace
} // namespace eqx
