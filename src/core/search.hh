/**
 * @file
 * Search algorithms over the EIR design space. The paper's method is
 * Monte Carlo Tree Search (Section 4.3); greedy, random, simulated
 * annealing and genetic baselines are provided for the search-method
 * discussion and the ablation benches.
 */

#ifndef EQX_CORE_SEARCH_HH
#define EQX_CORE_SEARCH_HH

#include <cstdint>
#include <string>

#include "common/rng.hh"
#include "common/tile_mask.hh"
#include "core/eir_problem.hh"
#include "core/evaluation.hh"

namespace eqx {

/** Outcome common to every search method. */
struct SearchResult
{
    EirSelection selection;
    EvalBreakdown eval;
    std::uint64_t evaluations = 0; ///< evaluation-function invocations
    std::string method;
};

/**
 * Pick a uniformly random legal group for one CB: visit the direction
 * octants in random order, taking a random free candidate from each
 * with probability take_prob, up to the group-size limit. Taken tests
 * are O(1) against a mask, e.g. EvalAccumulator::takenMask().
 */
std::vector<Coord> randomGroup(const EirProblem &prob, int cb_idx,
                               const TileMask &taken, Rng &rng,
                               double take_prob = 0.85);

/** Parameters of the MCTS search. */
struct MctsParams
{
    int iterationsPerLevel = 600; ///< tree iterations before committing
    double ucbC = 0.7;            ///< UCB exploration constant
    int maxChildrenPerNode = 64;  ///< sampled expansion width
    std::uint64_t seed = 1;
};

/**
 * The paper's MCTS: group-per-CB expansion (tree depth = #CBs), UCB
 * selection, random rollout, 4-metric evaluation backpropagation.
 * After each level's iteration budget, the best level child is
 * committed and search continues from the extended root state.
 */
SearchResult mctsSearch(const EirProblem &prob, const EirEvaluator &eval,
                        const MctsParams &params = {});

/** Greedy: per CB, take the enumerated group with the best score. */
SearchResult greedySearch(const EirProblem &prob,
                          const EirEvaluator &eval,
                          std::size_t max_groups_per_cb = 4096);

/** Pure random sampling of full selections. */
SearchResult randomSearch(const EirProblem &prob, const EirEvaluator &eval,
                          int trials, std::uint64_t seed = 1);

/** Simulated annealing over single-CB group re-picks. */
struct AnnealParams
{
    int steps = 4000;
    double tStart = 0.5;
    double tEnd = 0.005;
    std::uint64_t seed = 1;
};
SearchResult annealSearch(const EirProblem &prob, const EirEvaluator &eval,
                          const AnnealParams &params = {});

/**
 * Local polish: per-CB best-response sweeps until a fixed point (or
 * max_passes). Used by the design flow after the global search to
 * squeeze out residual crossings / over-length links.
 */
SearchResult polishSelection(const EirProblem &prob,
                             const EirEvaluator &eval,
                             EirSelection start, int max_passes = 4,
                             std::size_t max_groups_per_cb = 1024);

/** Genetic algorithm with per-CB crossover and conflict repair. */
struct GeneticParams
{
    int population = 32;
    int generations = 60;
    double mutationRate = 0.25;
    std::uint64_t seed = 1;
};
SearchResult geneticSearch(const EirProblem &prob,
                           const EirEvaluator &eval,
                           const GeneticParams &params = {});

} // namespace eqx

#endif // EQX_CORE_SEARCH_HH
