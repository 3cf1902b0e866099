/**
 * @file
 * Figure 11: NoC area of the seven schemes (no simulation needed —
 * computed from the constructed hardware). Paper headlines: single
 * networks cheapest except Interposer-CMesh (extra 2x-port overlay
 * routers); MultiPort and EquiNox cost more than SeparateBase via the
 * extra ports, with EquiNox at +4.6% over SeparateBase.
 */

#include <cstdio>

#include "bench_util.hh"
#include "sim/system.hh"

using namespace eqx;

int
main(int argc, char **argv)
try {
    Config cfg = parseCliArgs(argc, argv);
    // The paper's seven by default; scheme= swaps in any registered
    // set (registry keys, e.g. scheme=SeparateBase,EquiNox-XY).
    std::vector<std::string> schemes =
        parseSchemeKnob(cfg, paperSchemeNames());
    std::uint64_t seed = static_cast<std::uint64_t>(cfg.getInt("seed", 1));
    cfg.rejectUnused();

    printHeader("fig11_area: NoC area comparison",
                "EquiNox (HPCA'20) Figure 11");

    WorkloadProfile wp = workloadByName("kmeans");
    wp.instsPerPe = 8; // construction only; no run

    double single = 0, separate = 0, equinox = 0;
    std::printf("\n%-18s %10s %8s\n", "scheme", "area mm^2", "norm");
    std::vector<std::pair<std::string, double>> rows;
    for (const std::string &s : schemes) {
        SystemConfig sc;
        sc.schemeKey = s;
        sc.seed = seed;
        System sys(sc, wp);
        double a = sys.areaMm2();
        rows.emplace_back(s, a);
        if (s == "SingleBase")
            single = a;
        if (s == "SeparateBase")
            separate = a;
        if (s == "EquiNox")
            equinox = a;
    }
    for (const auto &[s, a] : rows)
        std::printf("%-18s %10.2f %8.3f\n", s.c_str(), a,
                    single > 0 ? a / single : 0.0);

    if (separate > 0 && equinox > 0)
        std::printf("\nEquiNox die-area overhead vs SeparateBase "
                    "(paper: +4.6%%): %+.1f%%\n",
                    100.0 * (equinox / separate - 1.0));
    return 0;
} catch (const FatalError &) {
    return 2;
}
