/**
 * @file
 * Figures 6/7 / Section 4.3: the MCTS EIR search. Runs the full
 * design flow on 8x8 and prints the found design with the attributes
 * the paper highlights: EIRs two hops from their CBs (bypassing the
 * DAZ/CAZ hot zone), zero RDL crossings (one metal layer), and links
 * within the 1-cycle interposer reach; plus the searched fraction of
 * the design space.
 *
 * Arguments (besides the shared seed= / iters=):
 *   jsonl=<path>  one JSON record for the run; every field except
 *                 wall_ms is deterministic for a given seed
 */

#include <chrono>
#include <cstdio>
#include <string>

#include "bench_util.hh"
#include "core/design_flow.hh"
#include "core/hotzone.hh"

using namespace eqx;

int
main(int argc, char **argv)
try {
    Config cfg = parseCliArgs(argc, argv);
    DesignParams dp;
    dp.seed = static_cast<std::uint64_t>(cfg.getInt("seed", 1));
    dp.mcts.iterationsPerLevel =
        static_cast<int>(cfg.getInt("iters", 600));
    std::string jsonl = cfg.getString("jsonl", "");
    cfg.rejectUnused();

    printHeader("fig07_mcts_eir: MCTS-selected EIR groups",
                "EquiNox (HPCA'20) Figures 6 and 7");

    auto t0 = std::chrono::steady_clock::now();
    EquiNoxDesign d = buildEquiNoxDesign(dp);
    auto t1 = std::chrono::steady_clock::now();
    double wall_ms =
        std::chrono::duration<double>(t1 - t0).count() * 1e3;

    std::printf("placement penalty: %d\n", d.placementPenalty);
    std::printf("design (CBs upper case, their EIRs lower case):\n%s\n",
                d.ascii().c_str());

    int h2 = 0, h3 = 0, bypass = 0, total = 0;
    HotZoneMap hot(d.cbs, d.width, d.height);
    for (std::size_t i = 0; i < d.eirGroups.size(); ++i) {
        for (const auto &e : d.eirGroups[i]) {
            ++total;
            int h = manhattan(d.cbs[i], e);
            if (h == 2)
                ++h2;
            else
                ++h3;
            if (chebyshev(d.cbs[i], e) > 1)
                ++bypass;
        }
    }
    std::printf("EIRs: %d total (%d at exactly 2 hops, %d at 3 hops)\n",
                total, h2, h3);
    std::printf("all EIRs bypass their CB's DAZ/CAZ hot zone: %s\n",
                bypass == total ? "yes" : "NO");
    std::printf("RDL crossings: %d (paper: 0)  metal layers: %d "
                "(paper: 1)\n",
                d.rdl.crossings, d.rdl.layersNeeded);
    std::printf("max link span: %d hops -> repeaters needed: %s "
                "(paper: no, 2-hop links fit one cycle)\n",
                d.rdl.maxHops, d.rdl.needsRepeaters ? "yes" : "no");
    std::printf("evaluation: maxLoad=%.1f avgHops=%.2f score=%.3f\n",
                d.eval.maxLoad, d.eval.avgHops, d.eval.score);

    // Search-space coverage (paper: 1.7e10 combinations for 8x8 within
    // 3 hops; MCTS assessed 0.047% of its space).
    EirProblem prob(d.width, d.height, d.cbs, 3, 4);
    const TileMask none(prob.width(), prob.height());
    double space = 1.0;
    for (int i = 0; i < prob.numCbs(); ++i)
        space *= static_cast<double>(prob.groupsFor(i, none).size());
    std::printf("\ndesign space (product of per-CB group counts): "
                "%.3g combinations\n",
                space);
    std::printf("evaluation-function invocations: %llu (%.3g%% of the "
                "space)\n",
                static_cast<unsigned long long>(d.evaluations),
                100.0 * static_cast<double>(d.evaluations) / space);

    std::printf("\nper-CB groups:\n");
    for (std::size_t i = 0; i < d.eirGroups.size(); ++i) {
        std::printf("  CB%zu (%d,%d):", i, d.cbs[i].x, d.cbs[i].y);
        for (const auto &e : d.eirGroups[i])
            std::printf(" (%d,%d)", e.x, e.y);
        std::printf("\n");
    }

    if (!jsonl.empty()) {
        std::FILE *f = std::fopen(jsonl.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "cannot open %s for writing\n",
                         jsonl.c_str());
            return 1;
        }
        std::fprintf(
            f,
            "{\"bench\": \"fig07_mcts_eir\", \"seed\": %llu, "
            "\"placement_penalty\": %d, \"eirs\": %d, "
            "\"crossings\": %d, \"metal_layers\": %d, "
            "\"max_link_hops\": %d, \"max_load\": %.3f, "
            "\"avg_hops\": %.6f, \"score\": %.6f, "
            "\"evaluations\": %llu, \"wall_ms\": %.1f}\n",
            static_cast<unsigned long long>(dp.seed),
            d.placementPenalty, total, d.rdl.crossings,
            d.rdl.layersNeeded, d.rdl.maxHops, d.eval.maxLoad,
            d.eval.avgHops, d.eval.score,
            static_cast<unsigned long long>(d.evaluations), wall_ms);
        std::fclose(f);
        std::printf("wrote %s\n", jsonl.c_str());
    }
    return 0;
} catch (const FatalError &) {
    return 2;
}
