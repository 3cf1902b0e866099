/**
 * @file
 * Section 6.8: when the number of CBs exceeds N (the mesh dimension),
 * the knight-move placement minimizes co-row/column/diagonal CBs and
 * the scoring policy still applies (DAZ-DAZ and CAZ-CAZ overlaps now
 * possible). This bench compares knight-move against row-major and
 * random placements for 10 and 12 CBs on an 8x8 mesh, then runs the
 * design flow on top.
 */

#include <cstdio>

#include "bench_util.hh"
#include "common/rng.hh"
#include "core/design_flow.hh"
#include "core/hotzone.hh"
#include "core/nqueen.hh"

using namespace eqx;

namespace {

std::vector<Coord>
rowMajor(int n, int count)
{
    std::vector<Coord> cbs;
    for (int i = 0; i < count; ++i)
        cbs.push_back({i % n, i / n});
    return cbs;
}

std::vector<Coord>
randomPlacement(int n, int count, Rng &rng)
{
    std::vector<Coord> all;
    for (int y = 0; y < n; ++y)
        for (int x = 0; x < n; ++x)
            all.push_back({x, y});
    rng.shuffle(all);
    all.resize(static_cast<std::size_t>(count));
    return all;
}

} // namespace

int
main(int argc, char **argv)
try {
    Config cfg = parseCliArgs(argc, argv);
    std::uint64_t seed = static_cast<std::uint64_t>(cfg.getInt("seed", 1));
    cfg.rejectUnused();

    printHeader("abl_many_cbs: more CBs than N (knight-move placement)",
                "EquiNox (HPCA'20) Section 6.8");

    Rng rng(seed);
    std::printf("\nhot-zone penalty on an 8x8 mesh:\n");
    std::printf("%8s %12s %12s %12s\n", "#CBs", "knight", "row-major",
                "random");
    for (int count : {9, 10, 12}) {
        int knight = placementPenalty(knightPlacement(8, count), 8, 8);
        int rowm = placementPenalty(rowMajor(8, count), 8, 8);
        int rnd = placementPenalty(randomPlacement(8, count, rng), 8, 8);
        std::printf("%8d %12d %12d %12d\n", count, knight, rowm, rnd);
    }

    std::printf("\nfull design flow with 10 CBs (knight placement):\n");
    DesignParams dp;
    dp.numCbs = 10;
    dp.seed = seed;
    EquiNoxDesign d = buildEquiNoxDesign(dp);
    std::printf("%s", d.ascii().c_str());
    std::printf("eirs=%d crossings=%d layers=%d penalty=%d "
                "score=%.3f\n",
                d.numEirs(), d.rdl.crossings, d.rdl.layersNeeded,
                d.placementPenalty, d.eval.score);
    return 0;
} catch (const FatalError &) {
    return 2;
}
