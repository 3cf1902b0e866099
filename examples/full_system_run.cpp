/**
 * @file
 * Run one benchmark on all seven schemes and dump the full metric set:
 * cycles, IPC, latency decomposition, energy breakdown, area, traffic
 * mix, and per-component diagnostics.
 *
 * Usage: full_system_run [benchmark=kmeans] [scale=0.3] [seed=1]
 *                        [scheme=<key>[,<key>...]] [verbose=true]
 *                        [traffic knobs, src/sweep/knobs.hh]
 */

#include <cstdio>
#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "sweep/knobs.hh"

using namespace eqx;

namespace {

void
dumpRun(const std::string &scheme, const RunResult &r, const System *sys)
{
    std::printf("\n--- %s ---\n", scheme.c_str());
    std::printf("completed=%d cycles=%llu exec=%.1f ns insts=%llu "
                "ipc=%.2f\n",
                r.completed ? 1 : 0,
                static_cast<unsigned long long>(r.cycles), r.execNs,
                static_cast<unsigned long long>(r.totalInsts), r.ipc);
    std::printf("energy=%.1f nJ (buf %.1f, xbar %.1f, alloc %.1f, "
                "link %.1f, intp %.1f, leak %.1f)\n",
                r.energyPj / 1e3, r.energy.buffer / 1e3,
                r.energy.crossbar / 1e3, r.energy.allocators / 1e3,
                r.energy.links / 1e3, r.energy.interposerLinks / 1e3,
                r.energy.leakage / 1e3);
    std::printf("edp=%.3g pJ*ns  area=%.2f mm^2\n", r.edp, r.areaMm2);
    std::printf("latency ns/packet: req q=%.2f n=%.2f | rep q=%.2f "
                "n=%.2f (req pkts=%llu rep pkts=%llu)\n",
                r.reqQueueNs, r.reqNetNs, r.repQueueNs, r.repNetNs,
                static_cast<unsigned long long>(r.reqPackets),
                static_cast<unsigned long long>(r.repPackets));
    double total_bits =
        static_cast<double>(r.requestBits + r.replyBits);
    if (total_bits > 0)
        std::printf("traffic mix: reply %.1f%% of bits\n",
                    100.0 * static_cast<double>(r.replyBits) /
                        total_bits);

    if (sys) {
        for (int i = 0; i < sys->numNetworks(); ++i) {
            const Network &net = sys->network(i);
            const auto &a = net.activity();
            std::printf("  net[%d] %-10s flits(buf)=%llu links=%llu "
                        "intp=%llu heatvar=%.2f\n",
                        i, net.params().name.c_str(),
                        static_cast<unsigned long long>(a.bufferWrites),
                        static_cast<unsigned long long>(a.linkFlits),
                        static_cast<unsigned long long>(
                            a.interposerLinkFlits),
                        net.residenceVariance());
        }
        for (int i = 0; i < sys->numCacheBanks(); ++i) {
            const auto &cb = sys->cacheBank(i);
            std::printf("  cb[%d] node=%d l2hit=%llu l2miss=%llu "
                        "stall_reply=%g stall_mshr=%g\n",
                        i, cb.node(),
                        static_cast<unsigned long long>(cb.l2().hits()),
                        static_cast<unsigned long long>(
                            cb.l2().misses()),
                        cb.stats().get("stall_reply_queue"),
                        cb.stats().get("stall_mshr_full"));
        }
    }
}

} // namespace

int
main(int argc, char **argv)
try {
    Config cfg = parseCliArgs(argc, argv);
    WorkloadProfile wp = workloadByName(
        cfg.getString("benchmark", "kmeans"));
    wp.instsPerPe = static_cast<std::uint64_t>(
        static_cast<double>(wp.instsPerPe) * parseScaleKnob(cfg, 0.3));
    // The paper's seven by default; scheme= picks registered schemes
    // through the SchemeRegistry (name or alias, any case — unknown
    // keys abort with the registered key list).
    std::vector<std::string> schemes =
        parseSchemeKnob(cfg, paperSchemeNames());
    std::uint64_t seed = static_cast<std::uint64_t>(cfg.getInt("seed", 1));
    bool verbose = cfg.getBool("verbose", false);
    TrafficConfig traffic;
    applyTrafficKnobs(traffic, cfg);
    cfg.rejectUnused();

    std::printf("benchmark=%s instsPerPe=%llu\n", wp.name.c_str(),
                static_cast<unsigned long long>(wp.instsPerPe));

    // Build one EquiNox design shared across runs.
    DesignParams dp;
    dp.seed = seed;
    EquiNoxDesign design = buildEquiNoxDesign(dp);

    for (const std::string &s : schemes) {
        SystemConfig sc;
        sc.schemeKey = s;
        sc.seed = seed;
        sc.traffic = traffic;
        if (SchemeRegistry::instance().byName(s).usesEquiNoxDesign())
            sc.preDesign = &design;
        System sys(sc, wp);
        RunResult r = sys.run();
        dumpRun(s, r, verbose ? &sys : nullptr);
    }
    return 0;
} catch (const FatalError &) {
    return 2;
}
