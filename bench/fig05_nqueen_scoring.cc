/**
 * @file
 * Figure 5 / Section 4.2: the N-Queen scoring policy. Enumerates all
 * 92 8x8 N-Queen solutions, scores each with the hot-zone penalty,
 * prints the distribution and the winning placement, and reproduces
 * the paper's worked example (a tile with two overlap neighbours
 * scores 1+2 = 3).
 */

#include <algorithm>
#include <cstdio>

#include "bench_util.hh"
#include "core/hotzone.hh"
#include "core/nqueen.hh"
#include "core/placement.hh"

using namespace eqx;

int
main(int argc, char **argv)
try {
    Config cfg = parseCliArgs(argc, argv);
    Rng rng(static_cast<std::uint64_t>(cfg.getInt("seed", 1)));
    cfg.rejectUnused();

    printHeader("fig05_nqueen_scoring: N-Queen placement scoring",
                "EquiNox (HPCA'20) Figure 5 / Section 4.2");

    auto sols = solveNQueens(8, 1000000);
    std::printf("8x8 N-Queen solutions: %zu (paper: 92)\n", sols.size());

    std::vector<int> scores;
    int best = -1;
    std::size_t best_idx = 0;
    for (std::size_t i = 0; i < sols.size(); ++i) {
        int p = placementPenalty(sols[i], 8, 8);
        scores.push_back(p);
        if (best < 0 || p < best) {
            best = p;
            best_idx = i;
        }
    }
    std::sort(scores.begin(), scores.end());
    std::printf("penalty min=%d median=%d max=%d\n", scores.front(),
                scores[scores.size() / 2], scores.back());

    std::printf("\nleast-penalized N-Queen placement (penalty %d):\n%s",
                best, placementAscii(sols[best_idx], 8, 8).c_str());

    std::printf("classic placements under the same policy:\n");
    for (auto kind : {PlacementKind::Top, PlacementKind::Side,
                      PlacementKind::Diagonal, PlacementKind::Diamond}) {
        auto cbs = makePlacement(kind, 8, 8, 8);
        std::printf("  %-9s penalty = %d\n", placementName(kind),
                    placementPenalty(cbs, 8, 8));
    }

    // Paper worked example: a node with two hot-zone-overlap direct
    // neighbours carries penalty 1+2 = 3.
    HotZoneMap map({{2, 2}, {4, 2}, {2, 4}}, 8, 8);
    std::printf("\nworked example: tile (3,3) penalty = %d (paper: "
                "two overlap neighbours -> 3)\n",
                tilePenalty(map, {3, 3}));

    // Larger boards: sampled solutions.
    for (int n : {12, 16}) {
        ScoredPlacement sp = bestNQueenPlacement(n, 8, rng, 128);
        std::printf("%dx%d: best sampled N-Queen (8 CBs) penalty = %d\n",
                    n, n, sp.penalty);
    }
    return 0;
} catch (const FatalError &) {
    return 2;
}
