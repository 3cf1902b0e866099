/**
 * @file
 * Quickstart: build an EquiNox design for an 8x8 interposer-based
 * throughput processor, inspect it, and run one benchmark on the full
 * system — the ~40 lines a new user needs to see.
 *
 * Usage: quickstart [seed=1] [benchmark=kmeans]
 */

#include <cstdio>
#include <string>

#include "common/config.hh"
#include "common/logging.hh"
#include "core/design_flow.hh"
#include "sim/system.hh"

using namespace eqx;

int
main(int argc, char **argv)
try {
    Config cfg = parseCliArgs(argc, argv);
    DesignParams dp;
    dp.seed = static_cast<std::uint64_t>(cfg.getInt("seed", 1));
    std::string benchmark = cfg.getString("benchmark", "kmeans");
    cfg.rejectUnused();

    // 1. Run the EquiNox design flow: N-Queen CB placement scored by
    //    the hot-zone penalty, then MCTS selection of the Equivalent
    //    Injection Routers and their interposer links.
    EquiNoxDesign design = buildEquiNoxDesign(dp);

    std::printf("EquiNox design for %dx%d, %zu cache banks:\n%s\n",
                design.width, design.height, design.cbs.size(),
                design.ascii().c_str());
    std::printf("EIRs: %d, RDL crossings: %d, metal layers: %d, "
                "ubumps: %d (%.2f mm^2)\n\n",
                design.numEirs(), design.rdl.crossings,
                design.rdl.layersNeeded, design.rdl.numUbumps,
                design.rdl.ubumpAreaMm2);

    // 2. Deploy it on the full system (PEs + L1s + NoC + L2 banks +
    //    HBM stacks) and run one benchmark.
    WorkloadProfile wp = workloadByName(benchmark);
    wp.instsPerPe /= 4; // quick demo run

    SystemConfig sc;
    sc.scheme = Scheme::EquiNox;
    sc.preDesign = &design;
    System system(sc, wp);
    RunResult r = system.run();

    std::printf("ran %s: %llu instructions in %llu cycles "
                "(IPC %.2f, %.1f us)\n",
                wp.name.c_str(),
                static_cast<unsigned long long>(r.totalInsts),
                static_cast<unsigned long long>(r.cycles), r.ipc,
                r.execNs / 1000.0);
    std::printf("NoC energy %.1f nJ, EDP %.3g pJ*ns, area %.2f mm^2\n",
                r.energyPj / 1000.0, r.edp, r.areaMm2);
    std::printf("avg packet latency: request %.1f ns, reply %.1f ns\n",
                r.reqQueueNs + r.reqNetNs, r.repQueueNs + r.repNetNs);

    // 3. Compare against the conventional separate-network baseline.
    SystemConfig base = sc;
    base.scheme = Scheme::SeparateBase;
    base.preDesign = nullptr;
    System baseline(base, wp);
    RunResult rb = baseline.run();
    std::printf("\nSeparateBase takes %.2fx as long; EquiNox saves "
                "%.1f%% execution time.\n",
                rb.execNs / r.execNs,
                100.0 * (1.0 - r.execNs / rb.execNs));
    return 0;
} catch (const FatalError &) {
    return 2;
}
