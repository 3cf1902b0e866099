#include "sim/experiment.hh"

#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <string_view>
#include <type_traits>

#include "common/logging.hh"
#include "common/stats.hh"
#include "runner/jsonl.hh"
#include "runner/stream_seed.hh"

namespace eqx {

ExperimentRunner::ExperimentRunner(ExperimentConfig config)
    : cfg_(std::move(config))
{
    eqx_assert(!cfg_.workloads.empty(), "experiment needs workloads");
}

const EquiNoxDesign &
ExperimentRunner::equinoxDesign()
{
    if (!designBuilt_) {
        DesignParams dp;
        dp.width = cfg_.width;
        dp.height = cfg_.height;
        dp.numCbs = cfg_.numCbs;
        dp.seed = cfg_.seed;
        design_ = buildEquiNoxDesign(dp);
        designBuilt_ = true;
        if (cfg_.verbose)
            eqx_inform("EquiNox design: ", design_.numEirs(), " EIRs, ",
                       design_.rdl.crossings, " crossings, score ",
                       design_.eval.score);
    }
    return design_;
}

SystemConfig
ExperimentRunner::makeSystemConfig(const SchemeModel &model) const
{
    SystemConfig sc;
    sc.width = cfg_.width;
    sc.height = cfg_.height;
    sc.numCbs = cfg_.numCbs;
    sc.schemeKey = model.name();
    if (auto e = model.legacyEnum())
        sc.scheme = *e;
    sc.seed = cfg_.seed;
    sc.warmupCycles = cfg_.warmupCycles;
    sc.collectMetrics = cfg_.collectMetrics;
    sc.fault = cfg_.fault;
    sc.traffic = cfg_.traffic;
    if (cfg_.tweak)
        cfg_.tweak(sc);
    return sc;
}

PreparedCell
ExperimentRunner::prepareCell(const std::string &scheme,
                              const WorkloadProfile &profile)
{
    const SchemeModel &model = SchemeRegistry::instance().byName(scheme);
    PreparedCell cell;
    cell.sc = makeSystemConfig(model);
    // The tweak hook may have pinned its own design (ablations do).
    if (model.usesEquiNoxDesign() && !cell.sc.preDesign)
        cell.sc.preDesign = &equinoxDesign();
    if (cfg_.decorrelateSeeds)
        cell.sc.seed =
            deriveStreamSeed(cfg_.seed, model.name(), profile.name);

    cell.wp = profile;
    cell.wp.instsPerPe = static_cast<std::uint64_t>(
        static_cast<double>(cell.wp.instsPerPe) * cfg_.instScale);
    if (cell.wp.instsPerPe < 64)
        cell.wp.instsPerPe = 64;
    return cell;
}

RunResult
ExperimentRunner::runOne(const std::string &scheme,
                         const WorkloadProfile &profile,
                         const CancelToken *cancel)
{
    PreparedCell cell = prepareCell(scheme, profile);
    cell.sc.cancel = cancel;
    System sys(cell.sc, cell.wp);
    return sys.run();
}

std::vector<CellResult>
ExperimentRunner::runMatrix()
{
    // Flatten the matrix in the canonical order (workload-major,
    // scheme-minor); the pool may execute cells in any order, but
    // every job writes only its own pre-assigned slot, so the
    // returned vector is invariant to scheduling.
    // Resolve every scheme key up front: an unknown key fails fast,
    // aliases collapse to their canonical model, and a config some
    // scheme cannot build fails here rather than in every cell.
    std::vector<const SchemeModel *> models;
    for (const auto &key : cfg_.schemes) {
        models.push_back(&SchemeRegistry::instance().byName(key));
        models.back()->checkConfig(makeSystemConfig(*models.back()));
    }

    struct CellRef
    {
        const WorkloadProfile *wp;
        const SchemeModel *model;
    };
    std::vector<CellRef> order;
    for (const auto &wp : cfg_.workloads)
        for (const SchemeModel *m : models)
            order.push_back({&wp, m});

    std::vector<CellResult> cells(order.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
        cells[i].scheme = order[i].model->name();
        cells[i].benchmark = order[i].wp->name;
        cells[i].index = i;
    }

    // Shard predicate: drop cells another shard owns. Indices keep
    // their canonical (unsharded) values, which address the cache and
    // the shard split.
    if (cfg_.cellFilter) {
        std::vector<CellRef> kept_order;
        std::vector<CellResult> kept_cells;
        for (std::size_t i = 0; i < order.size(); ++i)
            if (cfg_.cellFilter(cells[i])) {
                kept_order.push_back(order[i]);
                kept_cells.push_back(std::move(cells[i]));
            }
        order = std::move(kept_order);
        cells = std::move(kept_cells);
    }

    // The shared EquiNox design is lazily cached and must be built
    // before the fan-out (jobs only ever read it). Skip when a tweak
    // hook pins its own design — the cache would go unused.
    const SchemeModel *wants_design = nullptr;
    for (const SchemeModel *m : models)
        if (m->usesEquiNoxDesign()) {
            wants_design = m;
            break;
        }
    if (wants_design && !makeSystemConfig(*wants_design).preDesign)
        equinoxDesign();

    // JSONL records go out in canonical order whatever order the pool
    // finishes cells in: each finished cell is marked, and the longest
    // finished prefix not yet written is written (onJobDone runs
    // serialized, so `written` needs no lock of its own).
    std::unique_ptr<JsonlWriter> jsonl;
    if (!cfg_.jsonlPath.empty())
        jsonl = std::make_unique<JsonlWriter>(cfg_.jsonlPath);
    std::vector<std::uint8_t> finished(cells.size(), 0);
    std::size_t written = 0;

    JobPoolConfig pc;
    pc.workers = cfg_.workers;
    pc.timeoutSec = cfg_.jobTimeoutSec;
    pc.retries = cfg_.jobRetries;
    pc.progressEveryMs = cfg_.progress ? 200 : 0;
    pc.progressLabel = "sweep";
    pc.onJobDone = [&](std::size_t i, const JobReport &rep) {
        CellResult &cell = cells[i];
        if (rep.shortCircuited) {
            // The lookup hook restored the cell from the cache,
            // including its original attempts/failed fields; only the
            // wall clock (the lookup cost) is this run's own.
            cell.wallMs = rep.wallMs;
        } else {
            cell.failed = !rep.ok();
            cell.attempts = rep.attempts;
            cell.wallMs = rep.wallMs;
            cell.error = rep.error;
        }
        finished[i] = 1;
        if (jsonl)
            for (; written < cells.size() && finished[written]; ++written)
                jsonl->write(cellJsonRecord(cells[written]));
        if (cfg_.cellDone)
            cfg_.cellDone(cell);
    };
    if (cfg_.cellLookup)
        // The content-addressed cache consult, running in the pool
        // path so cache-served cells never occupy a simulation slot.
        pc.shortCircuit = [&](std::size_t i) {
            return cfg_.cellLookup(cells[i]);
        };

    JobPool pool(pc);
    pool.run(order.size(), [&](const JobContext &ctx) {
        const CellRef &ref = order[ctx.index];
        if (cfg_.verbose)
            eqx_inform("running ", ref.wp->name, " on ",
                       ref.model->name());
        cells[ctx.index].result =
            runOne(ref.model->name(), *ref.wp, ctx.cancel);
        return cells[ctx.index].result.completed;
    });
    return cells;
}

namespace {

/** Prefix of the observability-snapshot columns. */
constexpr std::string_view kMetricPrefix = "m.";

double
ratio(std::uint64_t num, std::uint64_t den)
{
    return den ? static_cast<double>(num) / static_cast<double>(den)
               : 0.0;
}

/**
 * The public cell-record schema: every column once, in record order.
 * The visitor V (ColumnWriter or ColumnReader) supplies
 *   col(key, field[, required])  one column;
 *   optional(key, text)          written only when non-empty;
 *   group(key, flag, body)       the flag column and body's columns,
 *                                present only when the flag is set;
 *   derived(key, value)          written, skipped on read;
 *   metrics(stats)               the "m."-prefixed snapshot columns.
 */
template <class V, class Cell>
void
visitColumns(V &v, Cell &c)
{
    auto &r = c.result;
    v.col("benchmark", c.benchmark, true);
    v.col("scheme", c.scheme, true);
    v.col("failed", c.failed);
    v.col("attempts", c.attempts);
    v.col("wall_ms", c.wallMs);
    v.optional("error", c.error);
    v.col("completed", r.completed, true);
    v.col("cycles", r.cycles);
    v.col("exec_ns", r.execNs);
    v.col("total_insts", r.totalInsts);
    v.col("ipc", r.ipc);
    v.col("energy_pj", r.energyPj);
    v.col("edp", r.edp);
    v.col("area_mm2", r.areaMm2);
    v.col("req_queue_ns", r.reqQueueNs);
    v.col("req_net_ns", r.reqNetNs);
    v.col("rep_queue_ns", r.repQueueNs);
    v.col("rep_net_ns", r.repNetNs);
    v.col("req_packets", r.reqPackets);
    v.col("rep_packets", r.repPackets);
    v.col("request_bits", r.requestBits);
    v.col("reply_bits", r.replyBits);
    v.col("req_p50_ns", r.reqP50Ns);
    v.col("req_p95_ns", r.reqP95Ns);
    v.col("req_p99_ns", r.reqP99Ns);
    v.col("rep_p50_ns", r.repP50Ns);
    v.col("rep_p95_ns", r.repP95Ns);
    v.col("rep_p99_ns", r.repP99Ns);
    v.col("max_eir_load", r.maxEirLoadPackets);

    auto delivered_ratio = [&](std::uint64_t delivered,
                               std::uint64_t offered) {
        v.derived("delivered_ratio", ratio(delivered, offered));
    };
    // Fault-resilience columns appear only on fault-armed runs so
    // the un-faulted record schema stays byte-identical.
    v.group("fault_armed", r.faultArmed, [&] {
        v.col("degraded", r.degraded);
        v.col("fault_seq_packets", r.faultSeqPackets);
        v.col("fault_delivered", r.faultDelivered);
        v.col("fault_dups", r.faultDuplicates);
        v.col("fault_retx", r.faultRetx);
        v.col("fault_lost", r.faultLost);
        v.col("fault_worms_dropped", r.faultWormsDropped);
        v.col("fault_flits_dropped", r.faultFlitsDropped);
        v.col("fault_credits_reconciled", r.faultCreditsReconciled);
        v.col("fault_masked_ports", r.faultMaskedPorts);
        v.derived("retx_rate", ratio(r.faultRetx, r.faultSeqPackets));
        // Storm-armed runs own the delivered_ratio column (their
        // end-to-end delivered/offered is the headline number); the
        // fault-plane ratio stays derivable from the counters above.
        if (!r.stormArmed)
            delivered_ratio(r.faultDelivered, r.faultSeqPackets);
    });
    // Open-loop storm columns (traffic model storm-*), present only on
    // storm-armed runs so the closed-loop record schema is unchanged.
    v.group("storm_armed", r.stormArmed, [&] {
        v.col("storm_offered", r.stormOffered);
        v.col("storm_injected", r.stormInjected);
        v.col("storm_delivered", r.stormDelivered);
        v.col("storm_dropped", r.stormDropped);
        delivered_ratio(r.stormDelivered, r.stormOffered);
        v.derived("storm_saturated", r.stormDropped > 0);
    });
    // Coherence-style multi-flow columns (traffic model "coherence").
    v.group("coh_armed", r.cohArmed, [&] {
        v.col("coh_invalidations", r.cohInvalidations);
        v.col("coh_inv_acks", r.cohInvAcks);
    });
    // The observability snapshot rides along "m."-prefixed so schema
    // consumers can separate the fixed columns from the per-router
    // keys (present only when metrics collection was enabled).
    v.metrics(r.metrics);
}

struct ColumnWriter
{
    JsonObject &o;

    template <class T>
    void col(const char *key, const T &value, bool = false)
    {
        o.field(key, value);
    }
    void optional(const char *key, const std::string &text)
    {
        if (!text.empty())
            o.field(key, text);
    }
    template <class Body>
    void group(const char *key, bool flag, Body body)
    {
        if (flag) {
            o.field(key, flag);
            body();
        }
    }
    template <class T>
    void derived(const char *key, T value)
    {
        o.field(key, value);
    }
    void metrics(const StatGroup &stats)
    {
        for (const auto &[k, v] : stats.all())
            o.field(std::string(kMetricPrefix) + k, v);
    }
};

/** Missing columns read as zero; ok drops on a missing required
 *  column or an int column outside int range. */
struct ColumnReader
{
    const JsonFields &f;
    bool ok = true;

    template <class T>
    void col(const char *key, T &v, bool required = false)
    {
        auto it = f.find(key);
        if (it == f.end()) {
            ok = ok && !required;
            v = T{};
            return;
        }
        const JsonValue &j = it->second;
        if constexpr (std::is_same_v<T, std::string>) {
            v = j.text;
        } else if constexpr (std::is_same_v<T, bool>) {
            v = j.asBool();
        } else if constexpr (std::is_same_v<T, double>) {
            v = j.asDouble();
        } else if constexpr (std::is_same_v<T, int>) {
            std::int64_t x = j.asI64();
            ok = ok && x >= std::numeric_limits<int>::min() &&
                 x <= std::numeric_limits<int>::max();
            v = static_cast<int>(x);
        } else {
            static_assert(std::is_same_v<T, std::uint64_t>);
            v = j.asU64();
        }
    }
    void optional(const char *key, std::string &text) { col(key, text); }
    template <class Body>
    void group(const char *key, bool &flag, Body body)
    {
        if (f.count(key)) {
            col(key, flag);
            body();
        }
    }
    template <class T>
    void derived(const char *, T)
    {
    }
    void metrics(StatGroup &stats)
    {
        for (const auto &[k, v] : f)
            if (k.size() > kMetricPrefix.size() &&
                k.starts_with(kMetricPrefix))
                stats.set(k.substr(kMetricPrefix.size()), v.asDouble());
    }
};

} // namespace

std::string
cellJsonRecord(const CellResult &c)
{
    return cellJsonObject(c).str();
}

JsonObject
cellJsonObject(const CellResult &c)
{
    JsonObject o;
    ColumnWriter w{o};
    visitColumns(w, c);
    return o;
}

bool
parseCellJson(const JsonFields &f, CellResult &out)
{
    out = CellResult{};
    ColumnReader rd{f};
    visitColumns(rd, out);
    return rd.ok;
}

void
writeCellsCsv(const std::vector<CellResult> &cells,
              const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        eqx_fatal("cannot open '", path, "' for writing");
    std::fprintf(f,
                 "benchmark,scheme,completed,cycles,exec_ns,total_insts,"
                 "ipc,energy_pj,edp,area_mm2,req_queue_ns,req_net_ns,"
                 "rep_queue_ns,rep_net_ns,req_packets,rep_packets,"
                 "request_bits,reply_bits,req_p50_ns,req_p95_ns,"
                 "req_p99_ns,rep_p50_ns,rep_p95_ns,rep_p99_ns,"
                 "max_eir_load\n");
    for (const auto &c : cells) {
        const RunResult &r = c.result;
        std::fprintf(f,
                     "%s,%s,%d,%llu,%.3f,%llu,%.4f,%.1f,%.6g,%.4f,%.3f,"
                     "%.3f,%.3f,%.3f,%llu,%llu,%llu,%llu,%.3f,%.3f,"
                     "%.3f,%.3f,%.3f,%.3f,%llu\n",
                     c.benchmark.c_str(), c.scheme.c_str(),
                     r.completed ? 1 : 0,
                     static_cast<unsigned long long>(r.cycles), r.execNs,
                     static_cast<unsigned long long>(r.totalInsts),
                     r.ipc, r.energyPj, r.edp, r.areaMm2, r.reqQueueNs,
                     r.reqNetNs, r.repQueueNs, r.repNetNs,
                     static_cast<unsigned long long>(r.reqPackets),
                     static_cast<unsigned long long>(r.repPackets),
                     static_cast<unsigned long long>(r.requestBits),
                     static_cast<unsigned long long>(r.replyBits),
                     r.reqP50Ns, r.reqP95Ns, r.reqP99Ns, r.repP50Ns,
                     r.repP95Ns, r.repP99Ns,
                     static_cast<unsigned long long>(
                         r.maxEirLoadPackets));
    }
    std::fclose(f);
}

double
schemeGeomean(const std::vector<CellResult> &cells,
              const std::string &scheme,
              const std::function<double(const RunResult &)> &metric)
{
    // Cells carry canonical names; accept any registry key here.
    std::string name = SchemeRegistry::instance().byName(scheme).name();
    std::vector<double> vals;
    for (const auto &c : cells)
        if (c.scheme == name)
            vals.push_back(metric(c.result));
    return geomean(vals);
}

void
printNormalizedTable(const std::vector<CellResult> &cells,
                     const std::vector<std::string> &schemes,
                     const std::string &metric_name,
                     const std::function<double(const RunResult &)> &metric,
                     const std::string &baseline)
{
    const SchemeRegistry &reg = SchemeRegistry::instance();
    std::vector<std::string> names;
    for (const auto &s : schemes)
        names.push_back(reg.byName(s).name());
    std::string base_name = reg.byName(baseline).name();

    // benchmark -> scheme -> value
    std::map<std::string, std::map<std::string, double>> table;
    std::vector<std::string> bench_order;
    for (const auto &c : cells) {
        if (!table.count(c.benchmark))
            bench_order.push_back(c.benchmark);
        table[c.benchmark][c.scheme] = metric(c.result);
    }

    std::printf("\n%s (normalized to %s)\n", metric_name.c_str(),
                base_name.c_str());
    std::printf("%-16s", "benchmark");
    for (const auto &s : names)
        std::printf(" %16s", s.c_str());
    std::printf("\n");

    std::map<std::string, std::vector<double>> norm_per_scheme;
    for (const auto &b : bench_order) {
        double base =
            table[b].count(base_name) ? table[b][base_name] : 0;
        std::printf("%-16s", b.c_str());
        for (const auto &s : names) {
            double v = table[b].count(s) ? table[b][s] : 0;
            double norm = base > 0 ? v / base : 0;
            norm_per_scheme[s].push_back(norm);
            std::printf(" %16.3f", norm);
        }
        std::printf("\n");
    }
    std::printf("%-16s", "geomean");
    for (const auto &s : names)
        std::printf(" %16.3f", geomean(norm_per_scheme[s]));
    std::printf("\n");
}

} // namespace eqx
