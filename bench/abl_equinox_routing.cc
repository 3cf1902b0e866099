/**
 * @file
 * Ablation: reply-network routing in the EquiNox scheme. Compares
 * SeparateBase against EquiNox under its default minimal-adaptive
 * reply routing and against the registry-only EquiNox-XY variant
 * (identical EIR wiring, dimension-ordered reply routing). Isolates
 * how much of EquiNox's win needs adaptivity on the reply path versus
 * the EIR injection structure alone. EquiNox-XY exists purely as a
 * SchemeRegistry entry — no simulator-core support.
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
    applyMatrixKnobs(ec, cfg, 0.15, 2);
    // Fixed rows: the ablation contrasts exactly these three.
    ec.schemes = {"SeparateBase", "EquiNox", "EquiNox-XY"};
    applyRunnerKnobs(ec, cfg, false);
    cfg.rejectUnused();

    printHeader("abl_equinox_routing: EquiNox reply-routing ablation",
                "EquiNox (HPCA'20) Section 5 (routing sensitivity)");

    ExperimentRunner runner(ec);
    auto cells = runner.runMatrix();

    auto exec = [](const RunResult &r) { return r.execNs; };
    printNormalizedTable(cells, ec.schemes, "execution time", exec,
                         "SeparateBase");

    double eq = schemeGeomean(cells, "EquiNox", exec);
    double xy = schemeGeomean(cells, "EquiNox-XY", exec);
    std::printf("\nreply latency ns/packet (queue + network):\n");
    for (const std::string &s : ec.schemes) {
        double q = 0, n = 0;
        int cnt = 0;
        for (const auto &c : cells) {
            if (c.scheme != s)
                continue;
            q += c.result.repQueueNs;
            n += c.result.repNetNs;
            ++cnt;
        }
        std::printf("  %-14s q=%7.2f net=%7.2f\n", s.c_str(),
                    cnt ? q / cnt : 0.0, cnt ? n / cnt : 0.0);
    }
    if (eq > 0)
        std::printf("\nEquiNox-XY exec vs EquiNox (adaptive): %+.1f%%\n",
                    100.0 * (xy / eq - 1.0));

    if (ec.collectMetrics)
        printMetricsDigest(cells, ec.schemes);
    return 0;
} catch (const FatalError &) {
    return 2;
}
