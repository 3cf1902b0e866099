/**
 * @file
 * Synthetic-traffic study: latency-throughput curves of the reply
 * network under the few-to-many pattern, with and without EIRs, plus
 * a uniform-random reference — the classic NoC characterization view
 * of the injection bottleneck the paper attacks.
 *
 * Usage: traffic_study [seed=1] [points=8]
 */

#include <cstdio>

#include "common/config.hh"
#include "common/logging.hh"
#include "core/design_flow.hh"
#include "sim/synthetic.hh"

using namespace eqx;

namespace {

void
sweep(const char *label, const SyntheticParams &base, int points,
      double max_rate)
{
    std::printf("\n%s\n", label);
    std::printf("%10s %12s %12s %12s\n", "rate", "throughput",
                "latency", "queue-lat");
    for (int i = 1; i <= points; ++i) {
        SyntheticParams sp = base;
        sp.injectionRate = max_rate * i / points;
        SyntheticResult r = runSynthetic(sp);
        std::printf("%10.3f %12.3f %12.1f %12.1f\n", sp.injectionRate,
                    r.throughput, r.avgTotalLatency,
                    r.avgQueueLatency);
    }
}

} // namespace

int
main(int argc, char **argv)
try {
    Config cfg = parseCliArgs(argc, argv);
    int points = static_cast<int>(cfg.getInt("points", 8));
    std::uint64_t seed = static_cast<std::uint64_t>(cfg.getInt("seed", 1));
    cfg.rejectUnused();

    // The EquiNox design supplies placement and EIR groups.
    DesignParams dp;
    dp.seed = seed;
    EquiNoxDesign design = buildEquiNoxDesign(dp);

    SyntheticParams base;
    base.cbs = design.cbs;
    base.pattern = TrafficPattern::FewToMany;
    base.warmupCycles = 1500;
    base.measureCycles = 6000;
    base.seed = seed;

    sweep("few-to-many replies, plain reply network", base, points,
          0.9);

    SyntheticParams eir = base;
    eir.eirGroups = design.eirGroupsByNode();
    sweep("few-to-many replies, EquiNox EIRs deployed", eir, points,
          0.9);

    SyntheticParams uni = base;
    uni.pattern = TrafficPattern::Uniform;
    uni.packetBits = 128;
    sweep("uniform random, single-flit packets (reference)", uni,
          points, 0.25);

    std::printf("\n(rate = packets/cycle per source; few-to-many "
                "sources are the %zu CBs.)\n",
                base.cbs.size());
    return 0;
} catch (const FatalError &) {
    return 2;
}
