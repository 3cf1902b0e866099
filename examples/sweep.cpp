/**
 * @file
 * End-to-end multi-threaded sweep over the (scheme x benchmark)
 * matrix via the src/runner JobPool. Demonstrates every engine
 * feature: worker fan-out, deterministic results, per-job timeouts
 * with retry, failed-cell reporting, the progress ticker, and
 * JSONL export (canonical cell order for any worker count) alongside
 * the classic CSV.
 *
 * Usage (key=value args):
 *   sweep [workers=0] [benchmarks=8] [scale=0.2] [seed=1]
 *         [scheme=key,key,...] [timeout=0] [retries=1] [progress=1]
 *         [jsonl=out.jsonl] [csv=out.csv]
 *         [decorrelate=0] [verify=0] [warmup=0] [metrics=0]
 *         [cache=dir] [shard=i/N] [digest=0] [traffic=key]
 *         [storm_rate=f] ...
 *
 *   scheme=...     restrict the sweep to these SchemeRegistry keys
 *                  (names or aliases, any case); default is the
 *                  paper's seven schemes
 *   workers=0      use all hardware threads (1 = serial)
 *   timeout=SEC    per-job wall-clock timeout (0 = off; keeping it
 *                  off preserves bit-for-bit determinism)
 *   decorrelate=1  per-cell Rng streams from (seed, scheme, benchmark)
 *   verify=1       re-run serially and check bit-identical results
 *   warmup=N       reset NoC stats at core cycle N so latency numbers
 *                  exclude the cold-start transient
 *   metrics=1      collect the per-router / per-NI observability
 *                  snapshot per cell ("m."-prefixed JSONL keys) and
 *                  print a per-scheme digest
 *   traffic=KEY    traffic model, with the storm_*, coh_* and trace=
 *                  knobs every sweep-driven bench takes
 *                  (src/sweep/knobs.hh)
 *
 * Sweep fabric (src/sweep, DESIGN.md §13):
 *   cache=DIR      content-addressed cell cache: cells whose digest
 *                  is stored are served without simulating; repeated
 *                  identical sweeps simulate nothing, and a rerun of
 *                  a killed sweep simulates only what it did not store
 *   shard=i/N      run only the cells shard i of N owns; the split
 *                  is a pure function of (seed, scheme, benchmark).
 *                  Shards that share (or copy together) one cache=
 *                  combine by rerunning the unsharded sweep against it
 *   digest=1       dry run: list every cell's digest (and owning
 *                  shard under shard=i/N), simulate nothing
 *
 * Exit status: 0 only when every requested cell succeeded (and, with
 * verify=1, matched the serial reference); 2 on a user error such as
 * an unknown knob.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "runner/job_pool.hh"
#include "sim/experiment.hh"
#include "sweep/knobs.hh"

using namespace eqx;

int
main(int argc, char **argv)
try {
    Config cfg = parseCliArgs(argc, argv);

    ExperimentConfig ec;
    applyMatrixKnobs(ec, cfg, 0.2, 8);
    ec.schemes = parseSchemeKnob(cfg, ec.schemes);
    ec.decorrelateSeeds = cfg.getBool("decorrelate", false);
    applyRunnerKnobs(ec, cfg, true);
    SweepOptions so = parseSweepKnobs(cfg);
    bool digest = cfg.getBool("digest", false);
    std::string csv = cfg.getString("csv", "");
    bool verify = cfg.getBool("verify", false);
    cfg.rejectUnused();

    if (digest) {
        // Dry run: identity only, nothing simulated.
        auto ids = listCellDigests(ec, so.shardCount);
        std::printf("%5s %-18s %-16s %5s  %s\n", "cell", "scheme",
                    "benchmark", "shard", "digest");
        for (const auto &id : ids)
            std::printf("%5zu %-18s %-16s %5d  %s\n", id.index,
                        id.scheme.c_str(), id.benchmark.c_str(),
                        id.shard, id.digest.hex().c_str());
        std::printf("%zu cells, schema v%d\n", ids.size(),
                    kSweepSchemaVersion);
        return 0;
    }

    int workers = resolveWorkerCount(ec.workers);
    std::printf("sweep: %zu benchmarks x %zu schemes = %zu cells on "
                "%d worker%s\n",
                ec.workloads.size(), ec.schemes.size(),
                ec.workloads.size() * ec.schemes.size(), workers,
                workers == 1 ? "" : "s");

    auto t0 = std::chrono::steady_clock::now();
    std::vector<CellResult> cells = runMatrixOrSweep(ec, so);
    auto t1 = std::chrono::steady_clock::now();
    double wall_s = std::chrono::duration<double>(t1 - t0).count();

    std::size_t failed = listFailedCells(cells);
    double cpu_ms = 0;
    for (const auto &c : cells)
        cpu_ms += c.wallMs;
    std::printf("sweep finished in %.2f s wall (%.2f s of simulation "
                "across workers, %.2fx concurrency), %zu/%zu cells "
                "failed\n",
                wall_s, cpu_ms / 1000.0,
                wall_s > 0 ? cpu_ms / 1000.0 / wall_s : 0.0, failed,
                cells.size());

    if (!csv.empty()) {
        writeCellsCsv(cells, csv);
        std::printf("wrote %s\n", csv.c_str());
    }
    if (!ec.jsonlPath.empty())
        std::printf("streamed %zu JSONL records to %s\n", cells.size(),
                    ec.jsonlPath.c_str());

    // Normalize to SingleBase when swept, else to the first scheme
    // (a scheme= restriction may exclude the paper's baseline).
    std::string baseline = "SingleBase";
    if (std::find(ec.schemes.begin(), ec.schemes.end(), baseline) ==
        ec.schemes.end())
        baseline = ec.schemes.front();
    printNormalizedTable(cells, ec.schemes, "execution time",
                         [](const RunResult &r) { return r.execNs; },
                         baseline);

    if (ec.collectMetrics) {
        // Per-scheme digest of the observability snapshot: tail
        // latency and the measured max injection-point (EIR) load.
        std::printf("\nmetrics digest (warmup=%llu)\n",
                    static_cast<unsigned long long>(ec.warmupCycles));
        std::printf("%-18s %10s %10s %10s %12s %10s\n", "scheme",
                    "rep-p50", "rep-p95", "rep-p99", "max-eir-load",
                    "m-keys");
        for (const std::string &s : ec.schemes) {
            double p50 = 0, p95 = 0, p99 = 0;
            std::uint64_t max_eir = 0;
            std::size_t keys = 0;
            int n = 0;
            for (const auto &c : cells) {
                if (c.scheme != s)
                    continue;
                p50 += c.result.repP50Ns;
                p95 += c.result.repP95Ns;
                p99 += c.result.repP99Ns;
                max_eir =
                    std::max(max_eir, c.result.maxEirLoadPackets);
                keys = std::max(keys, c.result.metrics.all().size());
                ++n;
            }
            std::printf("%-18s %10.2f %10.2f %10.2f %12llu %10zu\n",
                        s.c_str(), p50 / n, p95 / n, p99 / n,
                        static_cast<unsigned long long>(max_eir), keys);
        }
    }

    if (verify) {
        std::printf("\nverify: re-running serially...\n");
        ExperimentConfig serial = ec;
        serial.workers = 1;
        serial.progress = false;
        serial.jsonlPath.clear();
        ExperimentRunner ref(serial);
        auto ref_cells = ref.runMatrix();
        // The reference always runs the full matrix; index by each
        // cell's canonical slot so shard=/cache= runs verify too. Cells
        // match when their JSONL records do, wall time aside.
        auto record = [](CellResult c) {
            c.wallMs = 0;
            return cellJsonRecord(c);
        };
        std::size_t mismatches = 0;
        for (const CellResult &c : cells)
            if (c.index >= ref_cells.size() ||
                record(c) != record(ref_cells[c.index]))
                ++mismatches;
        std::printf("verify: %zu/%zu cells bit-identical to serial\n",
                    cells.size() - mismatches, cells.size());
        // Permanent cell failures still fail the run: a clean verify
        // of the cells that *did* finish must not mask them.
        return (failed || mismatches) ? 1 : 0;
    }
    return failed ? 1 : 0;
} catch (const FatalError &) {
    return 2;
}
