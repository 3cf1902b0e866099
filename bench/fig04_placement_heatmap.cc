/**
 * @file
 * Figure 4: heat maps of per-router average flit residence under
 * few-to-many reply traffic for the Top / Side / Diagonal / Diamond /
 * N-Queen CB placements, with the across-router variance the paper
 * reports under each sub-figure (N-Queen: 0.54, 35.7% below Diamond,
 * 96.7% below Top).
 */

#include <cstdio>

#include "bench_util.hh"
#include "common/rng.hh"
#include "core/nqueen.hh"
#include "core/placement.hh"
#include "sim/synthetic.hh"

using namespace eqx;

int
main(int argc, char **argv)
try {
    Config cfg = parseCliArgs(argc, argv);
    double rate = cfg.getDouble("rate", 0.22);
    Cycle measure = static_cast<Cycle>(cfg.getInt("cycles", 12000));
    std::uint64_t seed = static_cast<std::uint64_t>(cfg.getInt("seed", 1));
    cfg.rejectUnused();

    printHeader("fig04_placement_heatmap: CB placement heat maps",
                "EquiNox (HPCA'20) Figure 4");

    struct Entry
    {
        const char *name;
        std::vector<Coord> cbs;
    };
    Rng rng(seed);
    std::vector<Entry> entries = {
        {"Top", makePlacement(PlacementKind::Top, 8, 8, 8)},
        {"Side", makePlacement(PlacementKind::Side, 8, 8, 8)},
        {"Diagonal", makePlacement(PlacementKind::Diagonal, 8, 8, 8)},
        {"Diamond", makePlacement(PlacementKind::Diamond, 8, 8, 8)},
        {"NQueen", bestNQueenPlacement(8, 8, rng).cbs},
    };

    double top_var = 0, diamond_var = 0, nq_var = 0;
    for (const auto &e : entries) {
        SyntheticParams sp;
        sp.cbs = e.cbs;
        sp.pattern = TrafficPattern::FewToMany;
        sp.injectionRate = rate;
        sp.warmupCycles = 2000;
        sp.measureCycles = measure;
        sp.seed = seed;
        SyntheticResult r = runSynthetic(sp);
        std::printf("\n%s placement (variance = %.2f, mean latency = "
                    "%.1f cycles, delivered = %llu)\n",
                    e.name, r.heatVariance, r.avgTotalLatency,
                    static_cast<unsigned long long>(r.delivered));
        std::printf("%s", placementAscii(e.cbs, 8, 8).c_str());
        std::printf("router residence heat map (cycles/flit):\n%s",
                    heatAscii(r.routerHeat, 8, 8).c_str());
        if (std::string(e.name) == "Top")
            top_var = r.heatVariance;
        if (std::string(e.name) == "Diamond")
            diamond_var = r.heatVariance;
        if (std::string(e.name) == "NQueen")
            nq_var = r.heatVariance;
    }

    std::printf("\npaper: N-Queen variance 35.7%% below Diamond, 96.7%% "
                "below Top\n");
    if (diamond_var > 0 && top_var > 0)
        std::printf("measured: %.1f%% below Diamond, %.1f%% below Top\n",
                    100.0 * (1.0 - nq_var / diamond_var),
                    100.0 * (1.0 - nq_var / top_var));
    return 0;
} catch (const FatalError &) {
    return 2;
}
