/**
 * @file
 * Figure 9 (a)(b)(c): execution time, NoC energy and EDP for the seven
 * schemes across the benchmark suite, each normalized to SingleBase.
 * The paper's headline numbers: EquiNox cuts execution time by 47.7 %
 * vs SingleBase and 23.5 % vs SeparateBase, energy by 15.0 % / 18.9 %,
 * and EDP by 55.0 % / 32.8 %.
 */

#include <cstdio>

#include "bench_util.hh"
#include "sim/experiment.hh"

using namespace eqx;

int
main(int argc, char **argv)
try {
    Config cfg = parseCliArgs(argc, argv);
    ExperimentConfig ec;
    applyMatrixKnobs(ec, cfg, 0.20, 29);
    ec.verbose = cfg.getBool("verbose", false);
    ec.schemes = parseSchemeKnob(cfg, ec.schemes);
    applyRunnerKnobs(ec, cfg, false);
    SweepOptions so = parseSweepKnobs(cfg);
    std::string csv = cfg.getString("csv", "");
    cfg.rejectUnused();

    printHeader("fig09_performance: execution time / energy / EDP",
                "EquiNox (HPCA'20) Figure 9(a)(b)(c)");

    auto cells = runMatrixOrSweep(ec, so);
    // A failed cell would skew every normalized table below.
    if (listFailedCells(cells) > 0)
        return 1;

    if (!csv.empty())
        writeCellsCsv(cells, csv);
    if (ec.collectMetrics)
        printMetricsDigest(cells, ec.schemes);

    printNormalizedTable(cells, ec.schemes, "Fig 9(a) execution time",
                         [](const RunResult &r) { return r.execNs; },
                         "SingleBase");
    printNormalizedTable(cells, ec.schemes, "Fig 9(b) NoC energy",
                         [](const RunResult &r) { return r.energyPj; },
                         "SingleBase");
    printNormalizedTable(cells, ec.schemes, "Fig 9(c) EDP",
                         [](const RunResult &r) { return r.edp; },
                         "SingleBase");

    // Paper headline ratios.
    auto exec = [](const RunResult &r) { return r.execNs; };
    auto energy = [](const RunResult &r) { return r.energyPj; };
    auto edp = [](const RunResult &r) { return r.edp; };
    double eq_t = schemeGeomean(cells, "EquiNox", exec);
    double sb_t = schemeGeomean(cells, "SingleBase", exec);
    double sp_t = schemeGeomean(cells, "SeparateBase", exec);
    double eq_e = schemeGeomean(cells, "EquiNox", energy);
    double sb_e = schemeGeomean(cells, "SingleBase", energy);
    double sp_e = schemeGeomean(cells, "SeparateBase", energy);
    double eq_d = schemeGeomean(cells, "EquiNox", edp);
    double sb_d = schemeGeomean(cells, "SingleBase", edp);
    double sp_d = schemeGeomean(cells, "SeparateBase", edp);

    std::printf("\nheadline reductions (paper -> measured)\n");
    std::printf("exec vs SingleBase  : 47.7%% -> %.1f%%\n",
                100.0 * (1.0 - eq_t / sb_t));
    std::printf("exec vs SeparateBase: 23.5%% -> %.1f%%\n",
                100.0 * (1.0 - eq_t / sp_t));
    std::printf("energy vs SingleBase  : 15.0%% -> %.1f%%\n",
                100.0 * (1.0 - eq_e / sb_e));
    std::printf("energy vs SeparateBase: 18.9%% -> %.1f%%\n",
                100.0 * (1.0 - eq_e / sp_e));
    std::printf("EDP vs SingleBase  : 55.0%% -> %.1f%%\n",
                100.0 * (1.0 - eq_d / sb_d));
    std::printf("EDP vs SeparateBase: 32.8%% -> %.1f%%\n",
                100.0 * (1.0 - eq_d / sp_d));
    return 0;
} catch (const FatalError &) {
    return 2;
}
