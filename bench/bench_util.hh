/**
 * @file
 * Shared output helpers for the bench harness. The knobs the benches
 * share are parsed in src/sweep/knobs.hh, which lists them; each bench
 * documents its own and ends its parse with Config::rejectUnused().
 */

#ifndef EQX_BENCH_UTIL_HH
#define EQX_BENCH_UTIL_HH

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/logging.hh"
#include "sim/experiment.hh"
#include "sweep/knobs.hh"

namespace eqx {

/**
 * Per-scheme observability digest printed by the matrix benches when
 * metrics=1: hottest router, credit-stall totals and the measured
 * max-EIR load next to the MCTS-predicted one.
 */
inline void
printMetricsDigest(const std::vector<CellResult> &cells,
                   const std::vector<std::string> &schemes)
{
    std::printf("\nobservability digest (metrics=1)\n");
    std::printf("%-18s %12s %14s %14s %12s\n", "scheme", "hot-router",
                "hot-flits", "credit-stalls", "max-eir-load");
    for (const std::string &s : schemes) {
        int hot_router = -1;
        double hot_flits = 0, stalls = 0;
        std::uint64_t max_eir = 0;
        for (const auto &c : cells) {
            if (c.scheme != s)
                continue;
            max_eir = std::max(max_eir, c.result.maxEirLoadPackets);
            for (const auto &[k, v] : c.result.metrics.all()) {
                // keys look like "<net>.router.<id>.flits"
                auto r = k.find(".router.");
                if (r == std::string::npos)
                    continue;
                auto tail = k.substr(r + 8);
                auto dot = tail.find('.');
                if (dot == std::string::npos)
                    continue;
                if (tail.substr(dot) == ".flits" && v > hot_flits) {
                    hot_flits = v;
                    hot_router = std::atoi(tail.c_str());
                }
                if (tail.substr(dot) == ".credit_stall")
                    stalls += v;
            }
        }
        std::printf("%-18s %12d %14.0f %14.0f %12llu\n", s.c_str(),
                    hot_router, hot_flits, stalls,
                    static_cast<unsigned long long>(max_eir));
    }
}

inline void
printHeader(const char *title, const char *paper_ref)
{
    std::printf("==================================================\n");
    std::printf("%s\n", title);
    std::printf("reproduces: %s\n", paper_ref);
    std::printf("==================================================\n");
}

} // namespace eqx

#endif // EQX_BENCH_UTIL_HH
