/**
 * @file
 * Figure 10: NoC packet latency decomposed into queuing/non-queuing
 * parts for request and reply traffic, in ns, normalized to
 * SingleBase. Paper headline: EquiNox reduces request/reply/total
 * packet latency by 44.6% / 40.6% / 45.8% vs SingleBase, and the
 * request latency exceeds the reply latency everywhere (parking-lot
 * backpressure).
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
    applyMatrixKnobs(ec, cfg, 0.25, 8);
    ec.schemes = parseSchemeKnob(cfg, ec.schemes);
    applyRunnerKnobs(ec, cfg, false);
    SweepOptions so = parseSweepKnobs(cfg);
    cfg.rejectUnused();

    printHeader("fig10_latency: packet latency decomposition",
                "EquiNox (HPCA'20) Figure 10");

    auto cells = runMatrixOrSweep(ec, so);
    // A failed cell would skew every normalized table below.
    if (listFailedCells(cells) > 0)
        return 1;

    if (ec.collectMetrics) {
        printMetricsDigest(cells, ec.schemes);
        // Tail latency per scheme (ns, averaged over benchmarks).
        std::printf("\n%-18s %9s %9s %9s %9s %9s %9s\n", "scheme",
                    "req-p50", "req-p95", "req-p99", "rep-p50",
                    "rep-p95", "rep-p99");
        for (const std::string &s : ec.schemes) {
            double p[6] = {0, 0, 0, 0, 0, 0};
            int n = 0;
            for (const auto &c : cells) {
                if (c.scheme != s)
                    continue;
                p[0] += c.result.reqP50Ns;
                p[1] += c.result.reqP95Ns;
                p[2] += c.result.reqP99Ns;
                p[3] += c.result.repP50Ns;
                p[4] += c.result.repP95Ns;
                p[5] += c.result.repP99Ns;
                ++n;
            }
            std::printf("%-18s %9.2f %9.2f %9.2f %9.2f %9.2f %9.2f\n",
                        s.c_str(), p[0] / n, p[1] / n, p[2] / n,
                        p[3] / n, p[4] / n, p[5] / n);
        }
    }

    // Per-scheme averages over benchmarks (ns per packet).
    std::printf("\n%-18s %10s %10s %10s %10s %10s %8s\n", "scheme",
                "req-queue", "req-net", "rep-queue", "rep-net", "total",
                "norm");
    double base_total = 0;
    for (const std::string &s : ec.schemes) {
        double rq = 0, rn = 0, pq = 0, pn = 0;
        int n = 0;
        for (const auto &c : cells) {
            if (c.scheme != s)
                continue;
            rq += c.result.reqQueueNs;
            rn += c.result.reqNetNs;
            pq += c.result.repQueueNs;
            pn += c.result.repNetNs;
            ++n;
        }
        rq /= n;
        rn /= n;
        pq /= n;
        pn /= n;
        double total = rq + rn + pq + pn;
        if (s == "SingleBase")
            base_total = total;
        std::printf("%-18s %10.2f %10.2f %10.2f %10.2f %10.2f %8.3f\n",
                    s.c_str(), rq, rn, pq, pn, total,
                    total / base_total);
    }

    auto avg = [&](const std::string &s, auto metric) {
        double v = 0;
        int n = 0;
        for (const auto &c : cells)
            if (c.scheme == s) {
                v += metric(c.result);
                ++n;
            }
        return v / n;
    };
    auto req = [](const RunResult &r) { return r.reqQueueNs + r.reqNetNs; };
    auto rep = [](const RunResult &r) { return r.repQueueNs + r.repNetNs; };
    auto tot = [&](const RunResult &r) { return req(r) + rep(r); };

    std::printf("\nEquiNox latency reductions vs SingleBase "
                "(paper -> measured):\n");
    std::printf("request: 44.6%% -> %.1f%%\n",
                100.0 * (1.0 - avg("EquiNox", req) /
                                   avg("SingleBase", req)));
    std::printf("reply  : 40.6%% -> %.1f%%\n",
                100.0 * (1.0 - avg("EquiNox", rep) /
                                   avg("SingleBase", rep)));
    std::printf("total  : 45.8%% -> %.1f%%\n",
                100.0 * (1.0 - avg("EquiNox", tot) /
                                   avg("SingleBase", tot)));
    std::printf("\nrequest latency exceeds reply latency "
                "(backpressure, paper Section 6.4):\n");
    for (const std::string &s : ec.schemes)
        std::printf("  %-18s req=%.2f ns rep=%.2f ns %s\n",
                    s.c_str(), avg(s, req), avg(s, rep),
                    avg(s, req) > avg(s, rep) ? "[req > rep]" : "");
    return 0;
} catch (const FatalError &) {
    return 2;
}
