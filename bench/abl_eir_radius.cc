/**
 * @file
 * Ablation for Section 4.3's 2-hop claim: sweep the EIR distance
 * window (candidates within maxHops of the CB) and measure both the
 * design metrics and full-system execution time. The paper observes
 * that 2-hop EIRs bypass the DAZ/CAZ hot zone and that longer links
 * buy nothing while requiring repeaters.
 */

#include <cstdio>

#include "bench_util.hh"
#include "sim/experiment.hh"

using namespace eqx;

int
main(int argc, char **argv)
try {
    Config cfg = parseCliArgs(argc, argv);
    ExperimentConfig base;
    applyMatrixKnobs(base, cfg, 0.15, 2);
    applyRunnerKnobs(base, cfg, false);
    cfg.rejectUnused();

    printHeader("abl_eir_radius: EIR distance window sweep",
                "EquiNox (HPCA'20) Section 4.3 (2-hop observation)");

    // Baseline: SeparateBase execution time.
    ExperimentConfig sep_ec = base;
    sep_ec.schemes = {"SeparateBase"}; // fixed: the ablation baseline
    sep_ec.jsonlPath.clear(); // per-point runners would clobber one file
    ExperimentRunner base_runner(sep_ec);
    auto base_cells = base_runner.runMatrix();
    auto exec = [](const RunResult &r) { return r.execNs; };
    double sep = schemeGeomean(base_cells, "SeparateBase", exec);

    std::printf("\n%8s %6s %7s %7s %9s %11s %13s\n", "maxHops", "eirs",
                "cross", "maxSpan", "repeater", "exec vs Sep",
                "designScore");
    for (int radius : {2, 3, 4}) {
        DesignParams dp;
        dp.seed = base.seed;
        dp.maxHops = radius;
        EquiNoxDesign design = buildEquiNoxDesign(dp);

        ExperimentConfig ec = base;
        ec.tweak = [&](SystemConfig &sc) { sc.preDesign = &design; };
        ec.schemes = {"EquiNox"};
        if (!ec.jsonlPath.empty())
            ec.jsonlPath += ".hops" + std::to_string(radius);
        ExperimentRunner runner(ec);
        auto cells = runner.runMatrix();
        double eq = schemeGeomean(cells, "EquiNox", exec);

        std::printf("%8d %6d %7d %7d %9s %10.3f %13.3f\n", radius,
                    design.numEirs(), design.rdl.crossings,
                    design.rdl.maxHops,
                    design.rdl.needsRepeaters ? "yes" : "no", eq / sep,
                    design.eval.score);
    }
    std::printf("\n(the 2-hop window should match or beat larger "
                "windows, without repeaters)\n");
    return 0;
} catch (const FatalError &) {
    return 2;
}
