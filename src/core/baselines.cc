/**
 * @file
 * Baseline EIR search methods: greedy, random sampling, simulated
 * annealing and a genetic algorithm. The paper argues (Section 4.3)
 * that GA/SA fit the problem representation less naturally than MCTS;
 * these implementations back that ablation quantitatively.
 *
 * All methods score through the incremental EvalAccumulator: a greedy
 * candidate or an annealing neighbour is a push/pop or setGroup away
 * from the previous state, so each probe costs O(changed CB), and the
 * final breakdown is read from the same accumulator (DESIGN.md §15).
 */

#include <algorithm>
#include <cmath>
#include <set>

#include "common/logging.hh"
#include "core/eval_accumulator.hh"
#include "core/search.hh"

namespace eqx {

namespace {

/** Flatten a selection's tiles into a fresh mask. */
TileMask
maskOf(const EirProblem &prob, const EirSelection &sel)
{
    TileMask mask(prob.width(), prob.height());
    for (const auto &g : sel)
        for (const auto &t : g)
            mask.add(t);
    return mask;
}

EirSelection
randomSelection(const EirProblem &prob, Rng &rng)
{
    EirSelection sel;
    TileMask taken(prob.width(), prob.height());
    for (int cb = 0; cb < prob.numCbs(); ++cb) {
        auto group = randomGroup(prob, cb, taken, rng);
        for (const auto &t : group)
            taken.add(t);
        sel.push_back(std::move(group));
    }
    return sel;
}

/** Load a full selection into the accumulator and score it. */
double
scoreSelection(EvalAccumulator &acc, const EirSelection &sel)
{
    acc.reset();
    for (std::size_t cb = 0; cb < sel.size(); ++cb)
        acc.push(static_cast<int>(cb), sel[cb]);
    return acc.score();
}

/** Drop EIRs that collide with earlier groups (GA crossover repair). */
void
repair(const EirProblem &prob, EirSelection &sel)
{
    std::set<Coord> seen;
    for (int cb = 0; cb < static_cast<int>(sel.size()); ++cb) {
        auto &group = sel[static_cast<std::size_t>(cb)];
        std::vector<Coord> kept;
        std::set<int> octs;
        const Coord &c = prob.cbs()[static_cast<std::size_t>(cb)];
        for (const auto &e : group) {
            if (seen.count(e))
                continue;
            int oct = directionOctant(c, e);
            if (octs.count(oct))
                continue;
            kept.push_back(e);
            seen.insert(e);
            octs.insert(oct);
        }
        group = std::move(kept);
    }
}

} // namespace

SearchResult
greedySearch(const EirProblem &prob, const EirEvaluator &eval,
             std::size_t max_groups_per_cb)
{
    SearchResult result;
    result.method = "greedy";
    EvalAccumulator acc(&eval);
    for (int cb = 0; cb < prob.numCbs(); ++cb) {
        GroupList groups = prob.groupsFor(cb, acc.takenMask());
        groups.truncate(max_groups_per_cb);
        double best_score = 0;
        std::size_t best_idx = 0;
        for (std::size_t i = 0; i < groups.size(); ++i) {
            acc.push(cb, groups.group(i));
            double s = acc.score();
            acc.pop();
            ++result.evaluations;
            if (i == 0 || s < best_score) {
                best_score = s;
                best_idx = i;
            }
        }
        acc.push(cb, groups.group(best_idx));
    }
    result.selection = acc.selection();
    result.eval = acc.evaluate();
    eqx_assert(prob.valid(result.selection),
               "greedy produced an invalid selection");
    return result;
}

SearchResult
polishSelection(const EirProblem &prob, const EirEvaluator &eval,
                EirSelection start, int max_passes,
                std::size_t max_groups_per_cb)
{
    SearchResult result;
    result.method = "polish";
    while (static_cast<int>(start.size()) < prob.numCbs())
        start.emplace_back();

    EvalAccumulator acc(&eval);
    for (std::size_t cb = 0; cb < start.size(); ++cb)
        acc.push(static_cast<int>(cb), std::move(start[cb]));
    double cur = acc.score();
    ++result.evaluations;

    for (int pass = 0; pass < max_passes; ++pass) {
        bool improved = false;
        for (int cb = 0; cb < prob.numCbs(); ++cb) {
            // Free this CB's group, then best-respond.
            std::vector<Coord> best_group = acc.group(cb);
            acc.setGroup(cb, {});
            GroupList groups = prob.groupsFor(cb, acc.takenMask());
            groups.truncate(max_groups_per_cb);
            for (std::size_t i = 0; i < groups.size(); ++i) {
                acc.setGroup(cb, groups.group(i));
                double s = acc.score();
                ++result.evaluations;
                if (s < cur) {
                    cur = s;
                    best_group = acc.group(cb);
                    improved = true;
                }
            }
            acc.setGroup(cb, std::move(best_group));
        }
        if (!improved)
            break;
    }
    result.selection = acc.selection();
    result.eval = acc.evaluate();
    eqx_assert(prob.valid(result.selection),
               "polish produced an invalid selection");
    return result;
}

SearchResult
randomSearch(const EirProblem &prob, const EirEvaluator &eval, int trials,
             std::uint64_t seed)
{
    Rng rng(seed);
    SearchResult result;
    result.method = "random";
    EvalAccumulator acc(&eval);
    bool first = true;
    for (int t = 0; t < trials; ++t) {
        EirSelection sel = randomSelection(prob, rng);
        double s = scoreSelection(acc, sel);
        ++result.evaluations;
        if (first || s < result.eval.score) {
            result.selection = std::move(sel);
            result.eval = acc.evaluate();
            first = false;
        }
    }
    return result;
}

SearchResult
annealSearch(const EirProblem &prob, const EirEvaluator &eval,
             const AnnealParams &params)
{
    Rng rng(params.seed);
    SearchResult result;
    result.method = "anneal";

    EvalAccumulator acc(&eval);
    double cur_score = scoreSelection(acc, randomSelection(prob, rng));
    ++result.evaluations;
    result.selection = acc.selection();
    result.eval = acc.evaluate();

    for (int step = 0; step < params.steps; ++step) {
        double frac = static_cast<double>(step) / params.steps;
        double temp = params.tStart *
                      std::pow(params.tEnd / params.tStart, frac);

        // Neighbour: re-pick one CB's group.
        int cb = static_cast<int>(rng.nextBounded(
            static_cast<std::uint64_t>(prob.numCbs())));
        std::vector<Coord> old_group = acc.group(cb);
        acc.setGroup(cb, {});
        acc.setGroup(cb, randomGroup(prob, cb, acc.takenMask(), rng));
        double next_score = acc.score();
        ++result.evaluations;

        bool accept = next_score <= cur_score ||
                      rng.chance(std::exp((cur_score - next_score) /
                                          std::max(temp, 1e-9)));
        if (accept) {
            cur_score = next_score;
            if (cur_score < result.eval.score) {
                result.selection = acc.selection();
                result.eval = acc.evaluate();
            }
        } else {
            // Exact arithmetic: restoring the old group restores the
            // accumulator state bit for bit.
            acc.setGroup(cb, std::move(old_group));
        }
    }
    return result;
}

SearchResult
geneticSearch(const EirProblem &prob, const EirEvaluator &eval,
              const GeneticParams &params)
{
    Rng rng(params.seed);
    SearchResult result;
    result.method = "genetic";

    struct Individual
    {
        EirSelection sel;
        double score = 0;
    };

    EvalAccumulator acc(&eval);
    std::vector<Individual> pop;
    pop.reserve(static_cast<std::size_t>(params.population));
    for (int i = 0; i < params.population; ++i) {
        Individual ind;
        ind.sel = randomSelection(prob, rng);
        ind.score = scoreSelection(acc, ind.sel);
        ++result.evaluations;
        pop.push_back(std::move(ind));
    }

    auto tournament = [&]() -> const Individual & {
        const Individual &a = pop[rng.nextBounded(pop.size())];
        const Individual &b = pop[rng.nextBounded(pop.size())];
        return a.score <= b.score ? a : b;
    };

    for (int gen = 0; gen < params.generations; ++gen) {
        std::vector<Individual> next;
        next.reserve(pop.size());
        // Elitism: carry the best individual forward.
        const Individual *best = &pop[0];
        for (const auto &ind : pop)
            if (ind.score < best->score)
                best = &ind;
        next.push_back(*best);

        while (next.size() < pop.size()) {
            const Individual &pa = tournament();
            const Individual &pb = tournament();
            Individual child;
            // Uniform per-CB crossover followed by conflict repair.
            for (int cb = 0; cb < prob.numCbs(); ++cb)
                child.sel.push_back(
                    rng.chance(0.5)
                        ? pa.sel[static_cast<std::size_t>(cb)]
                        : pb.sel[static_cast<std::size_t>(cb)]);
            repair(prob, child.sel);
            if (rng.chance(params.mutationRate)) {
                int cb = static_cast<int>(rng.nextBounded(
                    static_cast<std::uint64_t>(prob.numCbs())));
                child.sel[static_cast<std::size_t>(cb)].clear();
                child.sel[static_cast<std::size_t>(cb)] = randomGroup(
                    prob, cb, maskOf(prob, child.sel), rng);
            }
            child.score = scoreSelection(acc, child.sel);
            ++result.evaluations;
            next.push_back(std::move(child));
        }
        pop = std::move(next);
    }

    const Individual *best = &pop[0];
    for (const auto &ind : pop)
        if (ind.score < best->score)
            best = &ind;
    result.selection = best->sel;
    // Reload the winner to read its breakdown; not a search evaluation.
    scoreSelection(acc, result.selection);
    result.eval = acc.evaluate();
    return result;
}

} // namespace eqx
