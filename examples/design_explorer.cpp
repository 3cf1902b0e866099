/**
 * @file
 * Design-space exploration: run the EquiNox design flow with each
 * search algorithm (MCTS, greedy, random, simulated annealing,
 * genetic), print the resulting EIR maps side by side with their
 * physical-viability reports, and sweep mesh sizes.
 *
 * Usage: design_explorer [seed=1] [size=8] [iters=600]
 * (size= is the mesh side, in [3, 1024]: the 8 CBs need room.)
 */

#include <cstdio>

#include "common/config.hh"
#include "common/logging.hh"
#include "core/design_flow.hh"
#include "schemes/scheme_registry.hh"

using namespace eqx;

int
main(int argc, char **argv)
try {
    Config cfg = parseCliArgs(argc, argv);
    long side = cfg.getInt("size", 8);
    if (side < 3 || side > 1024)
        eqx_fatal("knob size=", side,
                  " is not a mesh side for the 8 CBs (want an integer "
                  "in [3, 1024])");
    int size = static_cast<int>(side);
    std::uint64_t seed = static_cast<std::uint64_t>(cfg.getInt("seed", 1));
    int iters = static_cast<int>(cfg.getInt("iters", 600));
    cfg.rejectUnused();

    // Everything registered with the SchemeRegistry, including
    // variants that exist only as registry entries (no legacy enum).
    std::printf("=== registered schemes ===\n");
    std::printf("%-18s %-6s %-10s %s\n", "name", "nets",
                "reply-net", "summary");
    for (const SchemeModel *m : SchemeRegistry::instance().models())
        std::printf("%-18s %-6s %-10s %s\n", m->name(),
                    m->singleNetwork() ? "single" : "split",
                    m->singleNetwork() ? "-" : m->replyNetName(),
                    m->summary());

    std::printf("\n=== search methods on a %dx%d mesh ===\n", size, size);
    for (SearchMethod m :
         {SearchMethod::Mcts, SearchMethod::Greedy, SearchMethod::Random,
          SearchMethod::Anneal, SearchMethod::Genetic}) {
        DesignParams dp;
        dp.width = dp.height = size;
        dp.seed = seed;
        dp.method = m;
        dp.mcts.iterationsPerLevel = iters;
        EquiNoxDesign d = buildEquiNoxDesign(dp);
        std::printf("\n--- %s ---\n%s", searchMethodName(m),
                    d.ascii().c_str());
        std::printf("score=%.3f eirs=%d crossings=%d layers=%d "
                    "len=%.0f hops(max)=%d repeaters=%s evals=%llu\n",
                    d.eval.score, d.numEirs(), d.rdl.crossings,
                    d.rdl.layersNeeded, d.rdl.totalLengthHops,
                    d.rdl.maxHops, d.rdl.needsRepeaters ? "yes" : "no",
                    static_cast<unsigned long long>(d.evaluations));
    }

    std::printf("\n=== MCTS across mesh sizes ===\n");
    for (int n : {8, 12, 16}) {
        DesignParams dp;
        dp.width = dp.height = n;
        dp.seed = seed;
        dp.mcts.iterationsPerLevel = 300;
        EquiNoxDesign d = buildEquiNoxDesign(dp);
        std::printf("%2dx%-2d: eirs=%d crossings=%d score=%.3f "
                    "placementPenalty=%d\n",
                    n, n, d.numEirs(), d.rdl.crossings, d.eval.score,
                    d.placementPenalty);
    }
    return 0;
} catch (const FatalError &) {
    return 2;
}
