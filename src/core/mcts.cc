/**
 * @file
 * Monte Carlo Tree Search for EIR selection (paper Section 4.3 and
 * Figure 6): iterative selection / expansion / simulation /
 * backpropagation with UCB, one tree level per CB group.
 *
 * The search threads one EvalAccumulator down the tree — groups are
 * pushed on descend/expansion/rollout and popped on backtrack — so a
 * full rollout costs O(changed CBs) evaluator work, and the
 * accumulator's taken-mask tracks which tiles are spoken for. The
 * committed selection's breakdown is read from the same accumulator
 * (see DESIGN.md §15).
 */

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <vector>

#include "common/logging.hh"
#include "core/eval_accumulator.hh"
#include "core/search.hh"

namespace eqx {

namespace {

struct Node
{
    std::vector<Coord> group;      ///< the group this node adds
    int depth = 0;                 ///< CBs decided including this node
    double totalReward = 0.0;
    int visits = 0;
    Node *parent = nullptr;
    std::vector<std::unique_ptr<Node>> children;
    std::vector<std::vector<Coord>> untried;
    bool untriedInit = false;
};

/** Reward in (0, 1]: lower evaluation scores map to higher rewards. */
double
rewardOf(double score)
{
    return 1.0 / (1.0 + score);
}

} // namespace

std::vector<Coord>
randomGroup(const EirProblem &prob, int cb_idx, const TileMask &taken,
            Rng &rng, double take_prob)
{
    std::vector<Coord> group;
    std::array<int, 8> octs{{0, 1, 2, 3, 4, 5, 6, 7}};
    rng.shuffle(octs);

    auto is_taken = [&](const Coord &c) {
        if (taken.test(c))
            return true;
        for (const auto &g : group)
            if (g == c)
                return true;
        return false;
    };

    std::vector<Coord> opts;
    for (int oct : octs) {
        if (static_cast<int>(group.size()) >= prob.maxPerGroup())
            break;
        if (!rng.chance(take_prob))
            continue;
        opts.clear();
        for (const auto &c : prob.candidatesIn(cb_idx, oct))
            if (!is_taken(c))
                opts.push_back(c);
        if (opts.empty())
            continue;
        group.push_back(opts[rng.nextBounded(opts.size())]);
    }
    return group;
}

SearchResult
mctsSearch(const EirProblem &prob, const EirEvaluator &eval,
           const MctsParams &params)
{
    Rng rng(params.seed);
    SearchResult result;
    result.method = "mcts";

    // The accumulator holds the committed groups (the evolving root)
    // plus, transiently, the tree path and rollout of the current
    // iteration.
    EvalAccumulator acc(&eval);

    for (int level = 0; level < prob.numCbs(); ++level) {
        Node root;
        root.depth = level;

        auto initUntried = [&](Node &node) {
            GroupList groups = prob.groupsFor(node.depth, acc.takenMask());
            groups.shuffle(rng);
            groups.truncate(
                static_cast<std::size_t>(params.maxChildrenPerNode));
            node.untried.reserve(groups.size());
            for (std::size_t i = 0; i < groups.size(); ++i)
                node.untried.push_back(groups.group(i));
            node.untriedInit = true;
        };

        for (int it = 0; it < params.iterationsPerLevel; ++it) {
            // (1) Selection: descend while fully expanded.
            Node *node = &root;
            for (;;) {
                if (node->depth >= prob.numCbs())
                    break; // terminal
                if (!node->untriedInit)
                    initUntried(*node);
                if (!node->untried.empty() || node->children.empty())
                    break;
                // UCB over children.
                Node *best = nullptr;
                double best_ucb = -1;
                for (auto &ch : node->children) {
                    double v = ch->totalReward / ch->visits;
                    double u = v + params.ucbC *
                                       std::sqrt(std::log(static_cast<
                                                          double>(
                                                     node->visits)) /
                                                 ch->visits);
                    if (u > best_ucb) {
                        best_ucb = u;
                        best = ch.get();
                    }
                }
                node = best;
                acc.push(node->depth - 1, node->group);
            }

            // (2) Expansion.
            if (node->depth < prob.numCbs() && !node->untried.empty()) {
                auto group = std::move(node->untried.back());
                node->untried.pop_back();
                auto child = std::make_unique<Node>();
                child->group = std::move(group);
                child->depth = node->depth + 1;
                child->parent = node;
                node->children.push_back(std::move(child));
                node = node->children.back().get();
                acc.push(node->depth - 1, node->group);
            }

            // (3) Simulation: random rollout for the remaining CBs.
            for (int cb = static_cast<int>(acc.depth());
                 cb < prob.numCbs(); ++cb)
                acc.push(cb,
                         randomGroup(prob, cb, acc.takenMask(), rng));
            double score = acc.score();
            ++result.evaluations;
            double reward = rewardOf(score);

            // (4) Backpropagation, then backtrack the accumulator to
            // the committed root state.
            for (Node *n = node; n != nullptr; n = n->parent) {
                n->totalReward += reward;
                ++n->visits;
            }
            while (acc.depth() > static_cast<std::size_t>(level))
                acc.pop();
        }

        // Commit the level-(level+1) child with the highest accumulated
        // score, as in the paper.
        Node *best = nullptr;
        for (auto &ch : root.children) {
            if (!best || ch->totalReward > best->totalReward)
                best = ch.get();
        }
        if (best) {
            acc.push(level, best->group);
        } else {
            acc.push(level, {}); // no legal group at all
        }
    }

    result.selection = acc.selection();
    result.eval = acc.evaluate();
    eqx_assert(prob.valid(result.selection),
               "MCTS produced an invalid selection");
    return result;
}

} // namespace eqx
