/**
 * @file
 * NoC hot-loop runner: times the network-cycle kernels (idle and
 * loaded 8x8/16x16 meshes, loaded 16x16 torus) and writes them to
 * BENCH_noc_hotloop.json next to the frozen cost of the retired
 * exhaustive tick loop, measured at commit 529bc79 on the same
 * kernels. The CI perf-smoke job uploads that file and checks the
 * loaded/idle cost ratio, which a broken activity scheduler collapses.
 *
 * Arguments:
 *   out=<path>     output JSON (default BENCH_noc_hotloop.json)
 *   min_time=<s>   minimum measured wall time per kernel (default 0.2)
 */

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/rng.hh"
#include "noc/network.hh"

namespace eqx {
namespace {

using Clock = std::chrono::steady_clock;

/** Commit whose exhaustive-loop numbers are frozen below. */
constexpr const char *kHistoricalCommit = "529bc79";

struct KernelResult
{
    std::string name;
    int side = 0;                  ///< mesh/torus side (nodes per row)
    double historicalBeforeNs = 0; ///< exhaustive loop at kHistoricalCommit
    double ns = 0;                 ///< ns per core cycle, measured now
    double itemsPerSec = 0;        ///< node-cycles per second
};

/**
 * Run @p fn (one core cycle per call) until at least @p min_time
 * seconds have been measured, growing the batch geometrically so the
 * timing overhead amortises. Returns ns per call.
 */
template <typename F>
double
timeKernel(F &&fn, double min_time)
{
    std::uint64_t iters = 0;
    double elapsed = 0;
    std::uint64_t batch = 64;
    while (elapsed < min_time) {
        auto t0 = Clock::now();
        for (std::uint64_t i = 0; i < batch; ++i)
            fn();
        auto t1 = Clock::now();
        elapsed += std::chrono::duration<double>(t1 - t0).count();
        iters += batch;
        if (batch < (std::uint64_t{1} << 30))
            batch *= 2;
    }
    return elapsed * 1e9 / static_cast<double>(iters);
}

double
idleKernel(int side, double min_time)
{
    NetworkSpec spec;
    spec.params.width = spec.params.height = side;
    Network net(spec);
    Cycle clock = 0;
    return timeKernel([&] { net.coreTick(++clock); }, min_time);
}

double
loadedKernel(int side, double min_time,
             TopologyKind kind = TopologyKind::Mesh)
{
    NetworkSpec spec;
    spec.params.width = spec.params.height = side;
    spec.params.topo.kind = kind;
    if (kind == TopologyKind::Torus)
        spec.params.vcsPerPort = 3; // dateline + Duato escape pair
    Network net(spec);
    Rng rng(1);
    Cycle clock = 0;
    const NodeId nodes = static_cast<NodeId>(side * side);
    return timeKernel(
        [&] {
            for (NodeId n = 0; n < nodes; ++n) {
                if (!rng.chance(0.05))
                    continue;
                NodeId d = static_cast<NodeId>(rng.nextBounded(nodes));
                if (d != n)
                    net.inject(
                        n, makePacket(PacketType::ReadReply, n, d, 640));
            }
            net.coreTick(++clock);
        },
        min_time);
}

} // namespace
} // namespace eqx

int
main(int argc, char **argv)
try {
    using namespace eqx;
    Config cfg = parseCliArgs(argc, argv);
    std::string out = cfg.getString("out", "BENCH_noc_hotloop.json");
    double min_time = cfg.getDouble("min_time", 0.2);
    cfg.rejectUnused();

    printHeader("NoC hot-loop",
                "activity-driven tick scheduling (DESIGN.md #10)");

    // Exhaustive-loop ns/cycle at kHistoricalCommit (Release + LTO,
    // quiet machine); that loop no longer exists, so these are frozen.
    std::vector<KernelResult> results = {
        {"network_cycle_idle_8x8", 8, 5460.887},
        {"network_cycle_idle_16x16", 16, 22477.048},
        {"network_cycle_loaded_8x8", 8, 31822.403},
        {"network_cycle_loaded_16x16", 16, 127798.000},
        // Wrap-link fabric (DESIGN.md §17): same load on a 16x16
        // torus, so the dateline-VC route compute and the extra wrap
        // channels show up in the per-cycle cost.
        {"network_cycle_loaded_torus_16x16", 16, 105575.766},
    };
    results[0].ns = idleKernel(8, min_time);
    results[1].ns = idleKernel(16, min_time);
    results[2].ns = loadedKernel(8, min_time);
    results[3].ns = loadedKernel(16, min_time);
    results[4].ns = loadedKernel(16, min_time, TopologyKind::Torus);
    for (auto &r : results)
        r.itemsPerSec = r.side * r.side * 1e9 / r.ns;

    std::printf("%-34s %12s %14s@%s\n", "kernel", "ns/cyc",
                "exhaustive ns", kHistoricalCommit);
    for (const auto &r : results)
        std::printf("%-34s %12.1f %22.1f\n", r.name.c_str(), r.ns,
                    r.historicalBeforeNs);

    std::FILE *f = std::fopen(out.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot open %s for writing\n",
                     out.c_str());
        return 1;
    }
    std::fprintf(f,
                 "{\n  \"bench\": \"noc_hotloop\",\n"
                 "  \"historical_before_commit\": \"%s\",\n"
                 "  \"kernels\": [\n",
                 kHistoricalCommit);
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto &r = results[i];
        std::fprintf(f,
                     "    {\"name\": \"%s\", "
                     "\"ns_per_cycle\": %.3f, "
                     "\"historical_before_ns_per_cycle\": %.3f, "
                     "\"items_per_second\": %.0f}%s\n",
                     r.name.c_str(), r.ns, r.historicalBeforeNs,
                     r.itemsPerSec, i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", out.c_str());
    return 0;
} catch (const eqx::FatalError &) {
    return 2;
}
