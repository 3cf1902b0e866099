/**
 * @file
 * Fault-resilience campaign (DESIGN.md §11): sweeps fault rate x
 * fault-kind set over SeparateBase and EquiNox, then injects one
 * permanent EIR-link kill to exercise EquiNox's injection-port
 * fail-over. Reports delivered-throughput ratio, retransmission rate
 * and p99 latency under faults per (scheme, point).
 *
 * mode=grid      (default) fault_rate sweep with transient kinds,
 *                followed by the EIR-kill point
 * mode=transient one transient-only point at fault_rate (CI asserts
 *                exact-once delivery on its JSONL)
 * mode=eirkill   one permanent interposer-link kill on the reply
 *                network (CI asserts degraded-but-complete delivery)
 *
 * Knobs: seed=, scale=, benchmarks=, mode=, scheme=, the runner and
 * fault knobs (src/sweep/knobs.hh), plus kill_tick=<n> for the
 * eirkill arming time.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "sim/experiment.hh"

using namespace eqx;

namespace {

void
printPoint(const char *label, const std::vector<std::string> &schemes,
           const std::vector<CellResult> &cells)
{
    for (const std::string &s : schemes) {
        std::uint64_t seq = 0, del = 0, retx = 0, lost = 0, worms = 0;
        int masked = 0, n = 0;
        double p99 = 0;
        bool completed = true;
        for (const auto &c : cells) {
            if (c.scheme != s)
                continue;
            const RunResult &r = c.result;
            seq += r.faultSeqPackets;
            del += r.faultDelivered;
            retx += r.faultRetx;
            lost += r.faultLost;
            worms += r.faultWormsDropped;
            masked = std::max(masked, r.faultMaskedPorts);
            p99 += r.repP99Ns;
            completed &= r.completed;
            ++n;
        }
        double dr = seq ? static_cast<double>(del) /
                              static_cast<double>(seq)
                        : 1.0;
        double rr = seq ? static_cast<double>(retx) /
                              static_cast<double>(seq)
                        : 0.0;
        std::printf("%-14s %-14s %9.6f %9.6f %8llu %6llu %6d %10.2f"
                    " %4s\n",
                    label, s.c_str(), dr, rr,
                    static_cast<unsigned long long>(worms),
                    static_cast<unsigned long long>(lost), masked,
                    n ? p99 / n : 0.0, completed ? "yes" : "NO");
    }
}

} // namespace

int
main(int argc, char **argv)
try {
    Config cfg = parseCliArgs(argc, argv);
    ExperimentConfig point;
    applyMatrixKnobs(point, cfg, 0.1, 2);
    point.schemes = parseSchemeKnob(cfg, {"SeparateBase", "EquiNox"});
    applyRunnerKnobs(point, cfg, false);
    // A permanently faulted run must still terminate promptly.
    point.tweak = [](SystemConfig &sc) { sc.maxCycles = 400'000; };
    std::string mode = cfg.getString("mode", "grid");
    Cycle kill_tick = static_cast<Cycle>(cfg.getInt("kill_tick", 500));
    FaultConfig base;
    applyFaultKnobs(base, cfg);
    cfg.rejectUnused();

    printHeader("abl_fault_resilience: NoC fault injection + recovery",
                "EquiNox (HPCA'20) injection redundancy, DESIGN.md §11");

    auto runPoint = [&](const char *label, const FaultConfig &fc,
                        const std::string &jsonl_suffix) {
        ExperimentConfig ec = point;
        ec.fault = fc;
        if (!ec.jsonlPath.empty())
            ec.jsonlPath += jsonl_suffix;
        ExperimentRunner runner(ec);
        printPoint(label, ec.schemes, runner.runMatrix());
    };

    std::printf("\n%-14s %-14s %9s %9s %8s %6s %6s %10s %4s\n",
                "point", "scheme", "deliv", "retx/pkt", "worms",
                "lost", "masked", "p99_ns", "done");

    if (mode == "transient") {
        FaultConfig fc = base;
        if (fc.ratePerKTick <= 0)
            fc.ratePerKTick = 4;
        fc.kinds = kTransientFaultKinds;
        runPoint("transient", fc, "");
        return 0;
    }
    if (mode == "eirkill") {
        FaultConfig fc = base;
        fc.ratePerKTick = 0;
        FaultEvent kill;
        kill.tick = kill_tick;
        kill.kind = FaultKind::PermanentLinkKill;
        kill.wire = FaultEvent::kAnyInterposerWire;
        kill.net = "reply";
        fc.events.push_back(kill);
        runPoint("eir-kill", fc, "");
        return 0;
    }

    // Default grid: transient-rate sweep, then the EIR-kill point.
    for (double rate : {1.0, 4.0, 16.0}) {
        FaultConfig fc = base;
        fc.ratePerKTick = rate;
        fc.kinds = kTransientFaultKinds;
        char label[32];
        std::snprintf(label, sizeof(label), "rate=%g", rate);
        char suffix[32];
        std::snprintf(suffix, sizeof(suffix), ".r%g", rate);
        runPoint(label, fc, suffix);
    }
    {
        FaultConfig fc = base;
        fc.ratePerKTick = 0;
        FaultEvent kill;
        kill.tick = kill_tick;
        kill.kind = FaultKind::PermanentLinkKill;
        kill.wire = FaultEvent::kAnyInterposerWire;
        kill.net = "reply";
        fc.events.push_back(kill);
        runPoint("eir-kill", fc, ".eirkill");
    }
    return 0;
} catch (const FatalError &) {
    return 2;
}
