/**
 * @file
 * Section 6.6: ubump area of Interposer-CMesh vs EquiNox. Paper:
 * CMesh needs 128 unidirectional 256-bit die-interposer links =
 * 32,768 ubumps; EquiNox needs 24 unidirectional 128-bit links with
 * 2 bumps per wire = 6,144 ubumps — an 81.25% reduction. Here both
 * the paper-parameter arithmetic and the counts from our actually
 * constructed link plans are reported.
 */

#include <cstdio>

#include "bench_util.hh"
#include "core/design_flow.hh"
#include "interposer/ubump.hh"

using namespace eqx;

int
main(int argc, char **argv)
try {
    Config cfg = parseCliArgs(argc, argv);
    DesignParams dp;
    dp.seed = static_cast<std::uint64_t>(cfg.getInt("seed", 1));
    cfg.rejectUnused();

    printHeader("t_ubump_area: ubump cost comparison",
                "EquiNox (HPCA'20) Section 6.6");

    UbumpModel bumps;

    // Interposer-CMesh: 16 overlay routers x 4 concentrated tiles,
    // bidirectional 256-bit attachment links = 128 unidirectional
    // links; each wire drops onto the die once.
    int cmesh_links = 16 * 4 * 2;
    InterposerLink cmesh_link{{0, 0}, {1, 0}, 256, false};
    int cmesh_bumps =
        cmesh_links * bumps.bumpsForLink(cmesh_link, false);
    std::printf("\nInterposer-CMesh: %d x 256-bit links -> %d ubumps "
                "(paper: 32768), %.2f mm^2\n",
                cmesh_links, cmesh_bumps,
                bumps.areaForBumps(cmesh_bumps));

    // EquiNox paper parameters: 24 links, 128-bit, 2 bumps per wire.
    int paper_eq_bumps = 24 * 128 * 2;
    std::printf("EquiNox (paper params): 24 x 128-bit links -> %d "
                "ubumps (paper: 6144), %.2f mm^2\n",
                paper_eq_bumps, bumps.areaForBumps(paper_eq_bumps));
    std::printf("paper reduction: 81.25%% -> computed: %.2f%%\n",
                100.0 * (1.0 - static_cast<double>(paper_eq_bumps) /
                                   cmesh_bumps));

    // Our actually synthesized design.
    EquiNoxDesign d = buildEquiNoxDesign(dp);
    std::printf("\nour MCTS design: %d EIR links -> %d ubumps, "
                "%.2f mm^2 (%.2f%% below CMesh)\n",
                static_cast<int>(d.plan.size()), d.rdl.numUbumps,
                d.rdl.ubumpAreaMm2,
                100.0 * (1.0 - static_cast<double>(d.rdl.numUbumps) /
                                   cmesh_bumps));
    std::printf("RDL layers: CMesh 1, EquiNox %d (both avoid "
                "crossings)\n",
                d.rdl.layersNeeded);

    // Per-link area figure from Section 3.2.3 (40 um pitch).
    InterposerLink bidir{{0, 0}, {2, 0}, 128, true};
    std::printf("\n128-bit bidirectional link ubump area at 40 um "
                "pitch: %.2f mm^2 (paper: ~0.34 mm^2 for one drop per "
                "wire: %.2f mm^2)\n",
                bumps.areaForBumps(bumps.bumpsForLink(bidir, true)),
                bumps.areaForBumps(bumps.bumpsForLink(bidir, false)));
    return 0;
} catch (const FatalError &) {
    return 2;
}
