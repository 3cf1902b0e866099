/**
 * @file
 * Open-loop overload campaign (DESIGN.md §16): drives every scheme
 * with rate-controlled storm traffic instead of the closed-loop PE
 * window, sweeping offered load to find the saturation point, then
 * re-running the spike under an armed fault plane (degraded-mode
 * delivery), and finishing with trace-replay and coherence-flow rows.
 *
 * mode=grid   (default) offered-load sweep + storm-under-fault +
 *             trace round-trip + coherence rows
 * mode=smoke  one flash-crowd point (CI asserts the storm columns are
 *             populated and deterministic across two runs)
 *
 * Knobs: seed=, scale=, mode=, scheme=, the runner, traffic and fault
 * knobs (src/sweep/knobs.hh), plus trace_file=<path> for the
 * round-trip scratch trace.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "sim/experiment.hh"

using namespace eqx;

namespace {

void
printStormPoint(const char *label, const std::vector<std::string> &schemes,
                const std::vector<CellResult> &cells)
{
    for (const std::string &s : schemes) {
        std::uint64_t off = 0, inj = 0, del = 0, drop = 0;
        double p99 = 0;
        int n = 0;
        bool completed = true;
        for (const auto &c : cells) {
            if (c.scheme != s)
                continue;
            const RunResult &r = c.result;
            off += r.stormOffered;
            inj += r.stormInjected;
            del += r.stormDelivered;
            drop += r.stormDropped;
            p99 += r.repP99Ns;
            completed &= r.completed;
            ++n;
        }
        double dr = off ? static_cast<double>(del) /
                              static_cast<double>(off)
                        : 0.0;
        std::printf("%-16s %-14s %9llu %9llu %9llu %8llu %7.4f %4s"
                    " %10.2f %4s\n",
                    label, s.c_str(),
                    static_cast<unsigned long long>(off),
                    static_cast<unsigned long long>(inj),
                    static_cast<unsigned long long>(del),
                    static_cast<unsigned long long>(drop), dr,
                    drop ? "yes" : "no", n ? p99 / n : 0.0,
                    completed ? "yes" : "NO");
    }
}

} // namespace

int
main(int argc, char **argv)
try {
    Config cfg = parseCliArgs(argc, argv);
    // Baseline config shared by every point. Storm cells ignore the
    // workload profile (the PEs are replaced), but the matrix still
    // names its rows after one.
    ExperimentConfig base;
    base.seed = static_cast<std::uint64_t>(cfg.getInt("seed", 1));
    base.instScale = parseScaleKnob(cfg, 0.1);
    base.workloads = workloadSubset(1);
    base.schemes = parseSchemeKnob(cfg, {"SeparateBase", "EquiNox"});
    applyRunnerKnobs(base, cfg, false);
    // The horizon bounds the run; keep a generous drain margin.
    base.tweak = [](SystemConfig &sc) { sc.maxCycles = 400'000; };
    std::string mode = cfg.getString("mode", "grid");
    std::string trace_file =
        cfg.getString("trace_file", "abl_storm_trace.json");
    TrafficConfig user_tc = base.traffic;
    if (!cfg.has("storm_horizon"))
        user_tc.stormHorizon = 20'000; // bench-speed default
    FaultConfig user_fc;
    applyFaultKnobs(user_fc, cfg);
    cfg.rejectUnused();

    printHeader("abl_storm_overload: open-loop storms, replay, coherence",
                "EquiNox (HPCA'20) under overload, DESIGN.md §16");

    const std::vector<std::string> &schemes = base.schemes;
    auto makeBase = [&](const std::string &jsonl_suffix) {
        ExperimentConfig ec = base;
        if (!ec.jsonlPath.empty())
            ec.jsonlPath += jsonl_suffix;
        return ec;
    };

    std::printf("\n%-16s %-14s %9s %9s %9s %8s %7s %4s %10s %4s\n",
                "point", "scheme", "offered", "injected", "delivered",
                "dropped", "deliv", "sat", "rep_p99_ns", "done");

    if (mode == "smoke") {
        ExperimentConfig ec = makeBase("");
        ec.traffic = user_tc;
        ec.traffic.model = "storm-flash";
        ExperimentRunner runner(ec);
        printStormPoint("flash-smoke", schemes, runner.runMatrix());
        return 0;
    }

    // 1) Offered-load sweep: flash-crowd spikes of increasing rate.
    //    The saturation point is the first rate with drops (sat=yes).
    for (double rate : {16.0, 64.0, 256.0}) {
        char label[32], suffix[32];
        std::snprintf(label, sizeof(label), "flash rate=%g", rate);
        std::snprintf(suffix, sizeof(suffix), ".r%g", rate);
        ExperimentConfig ec = makeBase(suffix);
        ec.traffic = user_tc;
        ec.traffic.model = "storm-flash";
        ec.traffic.stormRatePerK = rate;
        ExperimentRunner runner(ec);
        printStormPoint(label, schemes, runner.runMatrix());
    }

    // 2) Hotspot concentration at the middle rate.
    {
        ExperimentConfig ec = makeBase(".hot");
        ec.traffic = user_tc;
        ec.traffic.model = "storm-hotspot";
        ec.traffic.stormRatePerK = 64.0;
        ExperimentRunner runner(ec);
        printStormPoint("hotspot rate=64", schemes, runner.runMatrix());
    }

    // 3) Storm + fault: the same flash spike with a transient fault
    //    plane armed — degraded-mode delivery under overload.
    {
        ExperimentConfig ec = makeBase(".fault");
        ec.traffic = user_tc;
        ec.traffic.model = "storm-flash";
        ec.traffic.stormRatePerK = 64.0;
        ec.fault = user_fc;
        if (ec.fault.ratePerKTick <= 0)
            ec.fault.ratePerKTick = 4;
        ec.fault.kinds = kTransientFaultKinds;
        ExperimentRunner runner(ec);
        printStormPoint("flash+fault", schemes, runner.runMatrix());
    }

    // 4) Trace round-trip rows: capture the synthetic stream once
    //    (scheme-independent bytes), then replay it through every
    //    scheme — closed-loop numbers from a recorded workload.
    std::printf("\n%-16s %-14s %12s %9s %10s %4s\n", "point", "scheme",
                "cycles", "ipc", "rep_p99_ns", "done");
    {
        ExperimentConfig ec = makeBase("");
        ec.schemes = {schemes.front()};
        ec.workers = 1; // one cell writes the trace file
        ec.jsonlPath.clear();
        ec.traffic.trace = "capture:" + trace_file;
        ExperimentRunner runner(ec);
        runner.runMatrix();
    }
    {
        ExperimentConfig ec = makeBase(".replay");
        ec.traffic.trace = "replay:" + trace_file;
        ExperimentRunner runner(ec);
        for (const auto &c : runner.runMatrix())
            std::printf("%-16s %-14s %12llu %9.4f %10.2f %4s\n",
                        "trace-replay", c.scheme.c_str(),
                        static_cast<unsigned long long>(c.result.cycles),
                        c.result.ipc, c.result.repP99Ns,
                        c.result.completed ? "yes" : "NO");
    }

    // 5) Coherence-flow rows: invalidation/ack multicast on top of the
    //    closed-loop streams.
    std::printf("\n%-16s %-14s %12s %12s %10s %4s\n", "point", "scheme",
                "invals", "inv_acks", "rep_p99_ns", "done");
    {
        ExperimentConfig ec = makeBase(".coh");
        ec.traffic = user_tc;
        ec.traffic.model = "coherence";
        ExperimentRunner runner(ec);
        for (const auto &c : runner.runMatrix())
            std::printf("%-16s %-14s %12llu %12llu %10.2f %4s\n",
                        "coherence", c.scheme.c_str(),
                        static_cast<unsigned long long>(
                            c.result.cohInvalidations),
                        static_cast<unsigned long long>(
                            c.result.cohInvAcks),
                        c.result.repP99Ns,
                        c.result.completed ? "yes" : "NO");
    }
    return 0;
} catch (const FatalError &) {
    return 2;
}
