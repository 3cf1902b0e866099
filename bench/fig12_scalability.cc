/**
 * @file
 * Figure 12: scalability of EquiNox. The same N-Queen + MCTS flow is
 * run for 8x8, 12x12 and 16x16 networks and EquiNox's average-IPC
 * improvement over SeparateBase is reported. Paper: 1.23x (8x8),
 * 1.31x (12x12), 1.30x (16x16) — larger meshes suffer the injection
 * bottleneck more, so EquiNox helps at least as much.
 */

#include <cstdio>
#include <cstdlib>

#include "bench_util.hh"
#include "sim/experiment.hh"

using namespace eqx;

int
main(int argc, char **argv)
try {
    Config cfg = parseCliArgs(argc, argv);
    // size= accepts a comma list (e.g. size=16,32); the topology
    // variants (scheme=SeparateBase,EquiNox-Torus or
    // SeparateBase,SeparateBase-CMesh) ride the shared scheme= arg —
    // the reply fabric is part of the scheme name, so extending the
    // scalability rows per topology needs no new simulator surface.
    std::vector<int> sizes;
    for (const std::string &tok :
         splitList(cfg.getString("size", "8,12,16"))) {
        char *end = nullptr;
        long n = std::strtol(tok.c_str(), &end, 10);
        if (*end != '\0' || n < 3 || n > 1024)
            eqx_fatal("knob size=", tok,
                      " is not a mesh side (want an integer in [3, 1024])");
        sizes.push_back(static_cast<int>(n));
    }
    if (sizes.empty())
        eqx_fatal("size= needs at least one mesh side");

    ExperimentConfig base;
    // Per-PE work is kept constant, so larger meshes carry more total
    // demand into the same 8 CBs — the intensifying injection
    // bottleneck the paper's scalability argument rests on.
    applyMatrixKnobs(base, cfg, 0.15, 2);
    base.schemes = parseSchemeKnob(cfg, {"SeparateBase", "EquiNox"});
    // A dead knob, kept so the fig12 records and cell digests do not
    // move: EquiNox cells get preDesign = &equinoxDesign(), which the
    // runner builds from default DesignParams (600 iterations per
    // level). The 300 reaches only the hashed sc.design.* keys of
    // the SeparateBase cells, which build no design.
    base.tweak = [](SystemConfig &sc) {
        sc.design.mcts.iterationsPerLevel = 300;
    };
    applyRunnerKnobs(base, cfg, false);
    SweepOptions so = parseSweepKnobs(cfg);
    cfg.rejectUnused();

    printHeader("fig12_scalability: 8x8 / 12x12 / 16x16",
                "EquiNox (HPCA'20) Figure 12");

    double paper[3] = {1.23, 1.31, 1.30};

    std::printf("\n%8s %14s %14s %10s %10s\n", "mesh", "SepBase IPC",
                "EquiNox IPC", "speedup", "paper");
    int idx = 0;
    for (int n : sizes) {
        ExperimentConfig ec = base;
        ec.width = ec.height = n;
        // One JSONL file per mesh size: each size's runner would
        // otherwise reopen (and truncate) the same file. A single
        // size keeps the name it was given.
        if (sizes.size() > 1 && !ec.jsonlPath.empty())
            ec.jsonlPath += ".s" + std::to_string(n);
        auto cells = runMatrixOrSweep(ec, so);
        // A failed cell would skew every normalized table below.
        if (listFailedCells(cells) > 0)
            return 1;
        auto ipc = [](const RunResult &r) { return r.ipc; };
        // First scheme = baseline, last = variant: the default pair is
        // the paper's SeparateBase/EquiNox, and scheme= overrides
        // (e.g. topology variants) report their own speedup column.
        double sep = schemeGeomean(cells, ec.schemes.front(), ipc);
        double eq = schemeGeomean(cells, ec.schemes.back(), ipc);
        std::printf("%5dx%-3d %14.2f %14.2f %9.2fx %9.2fx\n", n, n, sep,
                    eq, eq / sep, idx < 3 ? paper[idx] : 0.0);
        ++idx;
    }
    std::printf("\n(EquiNox speedup should hold or grow with mesh "
                "size.)\n");
    return 0;
} catch (const FatalError &) {
    return 2;
}
