/**
 * @file
 * Ablation for Section 3.2.1: how many EIRs per group? Sweeps the
 * per-CB group-size cap (1 = the existing single-injection-router
 * architecture) and, for contrast, the MultiPort port count. The
 * paper argues for a middle ground: one EIR regresses to the
 * baseline, while "all PEs as EIRs" wastes interposer links.
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

    printHeader("abl_eir_count: EIRs per group / MultiPort ports",
                "EquiNox (HPCA'20) Section 3.2.1 trade-off");

    auto exec = [](const RunResult &r) { return r.execNs; };
    ExperimentConfig sep_ec = base;
    sep_ec.schemes = {"SeparateBase"}; // fixed: the ablation baseline
    sep_ec.jsonlPath.clear(); // per-point runners would clobber one file
    ExperimentRunner base_runner(sep_ec);
    double sep = schemeGeomean(base_runner.runMatrix(),
                               "SeparateBase", exec);

    std::printf("\nEquiNox group-size cap sweep (exec normalized to "
                "SeparateBase = 1.0):\n");
    std::printf("%10s %6s %8s %12s\n", "maxGroup", "eirs", "links",
                "exec");
    for (int cap : {1, 2, 3, 4, 6}) {
        DesignParams dp;
        dp.seed = base.seed;
        dp.maxPerGroup = cap;
        EquiNoxDesign design = buildEquiNoxDesign(dp);

        ExperimentConfig ec = base;
        ec.tweak = [&](SystemConfig &sc) { sc.preDesign = &design; };
        ec.schemes = {"EquiNox"};
        if (!ec.jsonlPath.empty())
            ec.jsonlPath += ".cap" + std::to_string(cap);
        ExperimentRunner runner(ec);
        double eq =
            schemeGeomean(runner.runMatrix(), "EquiNox", exec);
        std::printf("%10d %6d %8d %12.3f\n", cap, design.numEirs(),
                    static_cast<int>(design.plan.size()), eq / sep);
    }

    std::printf("\nMultiPort injection-port sweep (same metric):\n");
    std::printf("%10s %12s\n", "ports", "exec");
    for (int ports : {2, 4, 6}) {
        ExperimentConfig ec = base;
        ec.tweak = [&](SystemConfig &sc) {
            sc.multiPortInjPorts = ports;
        };
        ec.schemes = {"MultiPort"};
        if (!ec.jsonlPath.empty())
            ec.jsonlPath += ".ports" + std::to_string(ports);
        ExperimentRunner runner(ec);
        double mp =
            schemeGeomean(runner.runMatrix(), "MultiPort", exec);
        std::printf("%10d %12.3f\n", ports, mp / sep);
    }
    return 0;
} catch (const FatalError &) {
    return 2;
}
