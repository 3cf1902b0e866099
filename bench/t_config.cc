/**
 * @file
 * Table 1: the key simulation parameters, as configured in this
 * reproduction, side by side with the paper's values.
 */

#include <cstdio>

#include "bench_util.hh"
#include "power/power_model.hh"
#include "sim/scheme.hh"

using namespace eqx;

int
main(int argc, char **argv)
try {
    parseCliArgs(argc, argv).rejectUnused();
    printHeader("t_config: key simulation parameters",
                "EquiNox (HPCA'20) Table 1");

    SystemConfig sc;
    PowerParams pp;

    std::printf("\n%-28s %-24s %s\n", "parameter", "paper", "this repo");
    std::printf("%-28s %-24s %dx%d (also 12x12, 16x16)\n",
                "Network size", "8x8, 12x12, 16x16", sc.width,
                sc.height);
    std::printf("%-28s %-24s %s\n", "Network routing",
                "Minimum adaptive",
                "minimal adaptive + escape VC (XY in single nets)");
    std::printf("%-28s %-24s %d/port, %d flits (1 pkt)/VC\n",
                "Virtual channels", "2/port, 1 pkt/VC", sc.vcsPerPort,
                sc.vcDepthFlits);
    std::printf("%-28s %-24s %s\n", "Allocator",
                "Separable input first", "separable input-first");
    std::printf("%-28s %-24s %.0f MHz\n", "PE frequency", "1126 MHz",
                pp.freqGhz * 1000);
    std::printf("%-28s %-24s %ld KB\n", "L1 cache / PE", "16 KB",
                static_cast<long>(sc.pe.l1.sizeBytes / 1024));
    std::printf("%-28s %-24s %ld MB\n", "L2 (LLC) per bank", "2 MB",
                static_cast<long>(sc.cb.l2.sizeBytes / 1024 / 1024));
    std::printf("%-28s %-24s %d\n", "# of LLC banks", "8", sc.numCbs);
    std::printf("%-28s %-24s %d channels x %d banks, FR-FCFS\n",
                "HBM / memory controllers", "8 MCs, FR-FCFS",
                sc.cb.hbm.channels, sc.cb.hbm.banksPerChannel);
    std::printf("%-28s %-24s %d bits\n", "Flit / link width", "128 bit",
                sc.flitBits);
    std::printf("%-28s %-24s read req %d / write req %d / read reply "
                "%d / write reply %d bits\n",
                "Packet sizes", "(64 B lines)",
                sc.sizes.readRequestBits, sc.sizes.writeRequestBits,
                sc.sizes.readReplyBits, sc.sizes.writeReplyBits);
    std::printf("%-28s %-24s 29 synthetic profiles "
                "(Rodinia + CUDA SDK names)\n",
                "Benchmarks", "29 (Rodinia + CUDA SDK)");
    return 0;
} catch (const FatalError &) {
    return 2;
}
