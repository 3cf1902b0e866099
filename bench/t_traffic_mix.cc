/**
 * @file
 * Section 2.2: the traffic-mix measurement motivating the work —
 * reply traffic (read + write replies) accounts for 72.7% of NoC bits
 * across the suite, request traffic for 27.3%.
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
    applyMatrixKnobs(ec, cfg, 0.2, 12);
    ec.schemes = {"SeparateBase"};
    applyTrafficKnobs(ec.traffic, cfg);
    cfg.rejectUnused();

    printHeader("t_traffic_mix: request vs reply bits",
                "EquiNox (HPCA'20) Section 2.2");

    ExperimentRunner runner(ec);
    auto cells = runner.runMatrix();

    std::printf("\n%-16s %14s %14s %8s\n", "benchmark", "req bits",
                "reply bits", "reply%");
    std::uint64_t req = 0, rep = 0;
    for (const auto &c : cells) {
        req += c.result.requestBits;
        rep += c.result.replyBits;
        std::printf("%-16s %14llu %14llu %7.1f%%\n",
                    c.benchmark.c_str(),
                    static_cast<unsigned long long>(
                        c.result.requestBits),
                    static_cast<unsigned long long>(c.result.replyBits),
                    100.0 * static_cast<double>(c.result.replyBits) /
                        static_cast<double>(c.result.requestBits +
                                            c.result.replyBits));
    }
    std::printf("\nsuite total: reply %.1f%% of bits (paper: 72.7%%), "
                "request %.1f%% (paper: 27.3%%)\n",
                100.0 * static_cast<double>(rep) /
                    static_cast<double>(req + rep),
                100.0 * static_cast<double>(req) /
                    static_cast<double>(req + rep));
    return 0;
} catch (const FatalError &) {
    return 2;
}
