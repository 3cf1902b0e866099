/**
 * @file
 * End-to-end benchmark of the simulator (see README.md beside this
 * file). One workload — a fixed set of figure cells, each pairing
 * SeparateBase with EquiNox — is simulated repeatedly for a host-time
 * budget, driving System::step()/maybeSkip() directly with one clock
 * read per stepped cycle. Every simulated record is checked against
 * the committed reference, and the sweep layer (digest, record round
 * trip, cell cache) is exercised on every cell.
 *
 *   e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--reference <file>] [--work-dir <dir>]
 *   e2e_bench --workload <name> --write-reference <file>
 *
 * --trace 0 reports the end-to-end metrics; --trace 1 adds a traced
 * pass (spans around each System entry point) and a layer-attribution
 * replica per round and reports the per-layer metrics. The last stdout
 * line is one JSON object: {"correct", "attempted", "failed",
 * "metrics": {name: {"value", "unit"}}}.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "common/stats.hh"
#include "layer_replica.hh"
#include "sim/experiment.hh"
#include "sweep/cell_cache.hh"
#include "sweep/digest.hh"
#include "sweep/record_io.hh"

using namespace eqx;

namespace {

using Clock = std::chrono::steady_clock;

/** Benchmark seeds map onto this many simulation seeds, each with a
 *  committed reference record per cell. */
constexpr std::uint64_t kRefSeeds = 4;

/** Set-up (design flow + System construction) is repeated this many
 *  times per run and reported as the median. */
constexpr int kSetupRepeats = 15;

double
secs(Clock::duration d)
{
    return std::chrono::duration<double>(d).count();
}

std::int64_t
nanos(Clock::duration d)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den != 0 ? num / den : 0;
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

struct Workload
{
    ExperimentConfig ec;
    double paperGain = 0; ///< fig12_scalability's paper value; 0 = none
    bool storm = false;
};

std::optional<Workload>
makeWorkload(const std::string &name, std::uint64_t sim_seed)
{
    Workload w;
    ExperimentConfig &ec = w.ec;
    ec.seed = sim_seed;
    ec.schemes = {"SeparateBase", "EquiNox"};
    ec.workers = 1;
    if (name == "paper-8x8") {
        // Closed-loop fig09 cells: three memory-bound profiles and one
        // compute-bound one, at full instruction count.
        ec.instScale = 1.0;
        ec.workloads =
            workloadSubset({"bfs", "kmeans", "streamcluster", "myocyte"});
        w.paperGain = 1.23;
    } else if (name == "scale-16x16") {
        // The fig12 16x16 cell, configured exactly as that bench does.
        ec.width = ec.height = 16;
        ec.instScale = 0.15;
        ec.workloads = workloadSubset({"backprop"});
        ec.tweak = [](SystemConfig &sc) {
            sc.design.mcts.iterationsPerLevel = 300;
        };
        w.paperGain = 1.30;
    } else if (name == "storm-flash-8x8") {
        // Open-loop flash crowd just past saturation, as the
        // abl_storm_overload rate=64 point runs it.
        ec.instScale = 0.1;
        ec.workloads = workloadSubset({"backprop"});
        ec.traffic.model = "storm-flash";
        ec.traffic.stormRatePerK = 64.0;
        ec.traffic.stormHorizon = 20'000;
        ec.tweak = [](SystemConfig &sc) { sc.maxCycles = 400'000; };
        w.storm = true;
    } else {
        return std::nullopt;
    }
    return w;
}

struct CellRef
{
    std::size_t index;
    const WorkloadProfile *profile;
    std::string scheme;
};

/** Workload-major, scheme-minor: runMatrix's canonical cell order. */
std::vector<CellRef>
cellOrder(const ExperimentConfig &ec)
{
    std::vector<CellRef> cells;
    for (const auto &wp : ec.workloads)
        for (const auto &s : ec.schemes)
            cells.push_back({cells.size(), &wp,
                             SchemeRegistry::instance().byName(s).name()});
    return cells;
}

/** Nearest-rank quantile of nanosecond samples, in microseconds. */
double
quantileUs(std::vector<std::int64_t> &ns, double q)
{
    if (ns.empty())
        return 0;
    auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(ns.size())));
    rank = std::clamp<std::size_t>(rank, 1, ns.size());
    std::nth_element(ns.begin(), ns.begin() + (rank - 1), ns.end());
    return static_cast<double>(ns[rank - 1]) / 1000.0;
}

// ---------------------------------------------------------------------
// One cell run
// ---------------------------------------------------------------------

struct NetCounts
{
    std::string name;
    std::uint64_t flits = 0;
    std::uint64_t packets = 0;
    std::uint64_t vaReq = 0, vaGrant = 0;
    std::uint64_t saReq = 0, saGrant = 0;
    std::uint64_t creditStall = 0; ///< NI injection credit-stall ticks
};

struct CellOutcome
{
    CellResult cell; ///< wallMs stays 0: the record is simulated-only
    std::vector<NetCounts> nets;
    std::uint64_t stepped = 0; ///< explicit step() calls
    std::uint64_t l1Hits = 0, l1Misses = 0;
    std::uint64_t l2Hits = 0, l2Misses = 0;
    std::uint64_t hbmAccesses = 0;
    double loopS = 0;    ///< the step/maybeSkip loop, drain check included
    double collectS = 0; ///< the collect-only System::run()
    double stepS = 0;    ///< traced only: step() spans
    double skipS = 0;    ///< traced only: maybeSkip() spans
};

CellOutcome
runCell(ExperimentRunner &runner, const CellRef &ref, bool traced,
        std::vector<std::int64_t> *step_ns)
{
    CellOutcome out;
    PreparedCell pc = runner.prepareCell(ref.scheme, *ref.profile);
    System sys(pc.sc, pc.wp);
    Clock::time_point t0 = Clock::now();

    const Cycle max_cycles = pc.sc.maxCycles;
    Clock::time_point prev = t0;
    if (!traced) {
        while (!sys.finished() && !sys.cancelled() &&
               sys.now() < max_cycles) {
            sys.step();
            sys.maybeSkip();
            Clock::time_point t = Clock::now();
            step_ns->push_back(nanos(t - prev));
            prev = t;
            ++out.stepped;
        }
    } else {
        while (!sys.finished() && !sys.cancelled() &&
               sys.now() < max_cycles) {
            Clock::time_point a = Clock::now();
            sys.step();
            Clock::time_point b = Clock::now();
            sys.maybeSkip();
            prev = Clock::now();
            out.stepS += secs(b - a);
            out.skipS += secs(prev - b);
            ++out.stepped;
        }
    }
    out.loopS = secs(prev - t0);

    Clock::time_point tc = Clock::now();
    RunResult r = sys.run(); // drained: runs only collect()
    out.collectS = secs(Clock::now() - tc);

    out.cell.scheme = ref.scheme;
    out.cell.benchmark = ref.profile->name;
    out.cell.index = ref.index;
    out.cell.result = r;
    out.cell.failed = !r.completed;
    out.cell.attempts = 1;

    for (int i = 0; i < sys.numNetworks(); ++i) {
        const Network &net = sys.network(i);
        NetCounts nc;
        nc.name = net.params().name;
        nc.flits = networkFlits(net);
        nc.packets = net.latency().packets[0] + net.latency().packets[1];
        for (NodeId n = 0; n < net.numRouters(); ++n) {
            const Router &rt = net.router(n);
            nc.vaReq += rt.vaRequests(net.currentTick());
            nc.vaGrant += rt.vaGrants();
            nc.saReq += rt.saRequests();
            nc.saGrant += rt.saGrants();
            const NetworkInterface &ni = net.ni(n);
            for (int b = 0; b < ni.numInjBuffers(); ++b)
                nc.creditStall += ni.injBuffer(b).creditStallTicks;
        }
        out.nets.push_back(nc);
    }
    // Hit ratios count serviced accesses (merges onto an in-flight
    // miss count as misses); the tag arrays' own counters also count
    // the probes of stalled retries.
    auto count = [](const StatGroup &g, const char *key) {
        return static_cast<std::uint64_t>(g.get(key));
    };
    for (int i = 0; i < sys.numPes(); ++i) {
        const StatGroup &g = sys.pe(i).stats();
        out.l1Hits += count(g, "l1_read_hits");
        out.l1Misses +=
            count(g, "l1_read_merges") + count(g, "l1_read_misses");
    }
    for (int i = 0; i < sys.numCacheBanks(); ++i) {
        const StatGroup &g = sys.cacheBank(i).stats();
        out.l2Hits += count(g, "l2_read_hits") + count(g, "l2_write_hits");
        out.l2Misses += count(g, "l2_miss_merges") +
                        count(g, "l2_read_misses") +
                        count(g, "l2_write_misses");
        out.hbmAccesses +=
            count(sys.cacheBank(i).hbm().stats(), "completions");
    }
    return out;
}

// ---------------------------------------------------------------------
// Reference records
// ---------------------------------------------------------------------

/** (workload, sim seed, cell index) -> simulated record line. */
using ReferenceMap = std::map<std::string, std::string>;

std::string
refKey(const std::string &workload, std::uint64_t sim_seed,
       std::size_t index)
{
    return workload + " " + std::to_string(sim_seed) + " " +
           std::to_string(index);
}

/** Lines are "<workload> <sim seed> <cell index> <record JSON>". */
ReferenceMap
loadReference(const std::string &path)
{
    ReferenceMap ref;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string wl;
        std::uint64_t seed = 0;
        std::size_t index = 0;
        if (!(ls >> wl >> seed >> index))
            continue;
        std::size_t brace = line.find('{');
        if (brace != std::string::npos)
            ref[refKey(wl, seed, index)] = line.substr(brace);
    }
    return ref;
}

/** Names each field that differs between two records ("" = equal). */
std::string
recordDiff(const std::string &got, const std::string &want)
{
    JsonFields g, w;
    if (!parseFlatJson(got, g) || !parseFlatJson(want, w))
        return "unparseable record";
    std::string diff;
    auto note = [&diff](const std::string &k, const std::string &gv,
                        const std::string &wv) {
        diff += (diff.empty() ? "" : ", ") + k + "=" + gv + " (reference " +
                wv + ")";
    };
    for (const auto &[k, v] : w) {
        auto it = g.find(k);
        if (it == g.end())
            note(k, "<missing>", v.text);
        else if (it->second.text != v.text ||
                 it->second.kind != v.kind ||
                 it->second.boolean != v.boolean)
            note(k, it->second.text, v.text);
    }
    for (const auto &[k, v] : g)
        if (!w.count(k))
            note(k, v.text, "<missing>");
    return diff;
}

// ---------------------------------------------------------------------
// Sweep layer, exercised from outside on each finished cell
// ---------------------------------------------------------------------

struct SweepTimes
{
    double digestUs = 0, recordUs = 0, storeUs = 0, lookupUs = 0;
    std::uint64_t cells = 0;
};

/** Returns "" when every round trip reproduced the cell exactly. */
std::string
exerciseSweep(ExperimentRunner &runner, const CellRef &ref,
              const CellResult &cell, CellCache &cache, SweepTimes &t)
{
    auto us = [](Clock::time_point a, Clock::time_point b) {
        return std::chrono::duration<double, std::micro>(b - a).count();
    };
    Clock::time_point a = Clock::now();
    CellDigest digest = cellDigest(runner, ref.scheme, *ref.profile);
    Clock::time_point b = Clock::now();
    CellRecord rec{digest, kSweepSchemaVersion, cell};
    std::string line = cellRecordLine(rec);
    CellRecord back;
    bool parsed = parseCellRecord(line, back);
    std::string again = parsed ? cellRecordLine(back) : "";
    Clock::time_point c = Clock::now();
    cache.store(digest, cell);
    Clock::time_point d = Clock::now();
    CellResult hit;
    bool found = cache.lookup(digest, hit);
    Clock::time_point e = Clock::now();

    t.digestUs += us(a, b);
    t.recordUs += us(b, c);
    t.storeUs += us(c, d);
    t.lookupUs += us(d, e);
    ++t.cells;

    if (!parsed || again != line)
        return "record round trip changed the record";
    if (!found)
        return "cell cache lookup missed a stored cell";
    if (cellJsonRecord(hit) != cellJsonRecord(cell))
        return "cell cache lookup returned a different record";
    return "";
}

// ---------------------------------------------------------------------
// Metric table
// ---------------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
    std::uint64_t samples;
    const char *clock; ///< "host", "sim" or "-"
};

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

void
printTable(const char *title, const std::vector<Metric> &ms)
{
    std::printf("\n%s\n%-34s %18s %-10s %10s %s\n", title, "metric",
                "value", "unit", "samples", "clock");
    for (const auto &m : ms)
        std::printf("%-34s %18.6f %-10s %10llu %s\n", m.name.c_str(),
                    m.value, m.unit.c_str(),
                    static_cast<unsigned long long>(m.samples), m.clock);
}

// ---------------------------------------------------------------------
// Host-speed calibration
// ---------------------------------------------------------------------

/**
 * The host this benchmark runs on is shared, and its speed drifts by
 * 10-25 % over tens of seconds. Every host time is therefore scaled to
 * a reference host speed: after each set-up repeat and each simulated
 * cell the benchmark times a fixed pointer chase over an 8 MB table,
 * which shares no code with the simulator, and multiplies the host
 * times of that phase by its median chase rate over kCalibRatePerS. A simulator speed-up moves the calibrated
 * numbers; a slower or busier host mostly does not.
 */
class Calibrator
{
  public:
    Calibrator() : next_(kEntries)
    {
        // One cycle through every entry, in a seed-independent order.
        std::vector<std::uint32_t> order(kEntries);
        for (std::uint32_t i = 0; i < kEntries; ++i)
            order[i] = i;
        std::mt19937 rng(12345);
        std::shuffle(order.begin() + 1, order.end(), rng);
        for (std::uint32_t i = 0; i < kEntries; ++i)
            next_[order[i]] = order[(i + 1) % kEntries];
    }

    /** Time one chase; returns its rate in steps per second. */
    double
    sample()
    {
        std::uint32_t p = 0;
        Clock::time_point a = Clock::now();
        for (std::uint32_t i = 0; i < kSteps; ++i)
            p = next_[p];
        double s = secs(Clock::now() - a);
        sink_ = p;
        return static_cast<double>(kSteps) / s;
    }

    /** Host-time multiplier of a phase: < 1 on a host slower than the
     *  reference. */
    static double
    factor(const std::vector<double> &rates)
    {
        return rates.empty() ? 1.0 : median(rates) / kCalibRatePerS;
    }

  private:
    static constexpr std::uint32_t kEntries = 1u << 21;
    static constexpr std::uint32_t kSteps = 200'000;
    /** Chase rate of the 4-vCPU 2.0 GHz Xeon VM the bounds were set on. */
    static constexpr double kCalibRatePerS = 8.0e6;

    std::vector<std::uint32_t> next_;
    volatile std::uint32_t sink_ = 0;
};

// ---------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string reference = "e2e_bench/reference.txt";
    std::string workDir = ".bench_build/e2e_bench/work";
    std::string writeReference;
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        if (i + 1 >= argc)
            return false;
        std::string v = argv[++i];
        char *end = nullptr;
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::strtoull(v.c_str(), &end, 10);
        else if (k == "--seconds")
            a.seconds = std::strtod(v.c_str(), &end);
        else if (k == "--trace")
            a.trace = std::strtol(v.c_str(), &end, 10) != 0;
        else if (k == "--reference")
            a.reference = v;
        else if (k == "--work-dir")
            a.workDir = v;
        else if (k == "--write-reference")
            a.writeReference = v;
        else
            return false;
        if (end && *end != '\0')
            return false;
    }
    return !a.workload.empty() && a.seconds > 0;
}

/** Per-layer aggregates of the traced passes and replicas. */
struct TraceTotals
{
    double untracedLoopS = 0, tracedLoopS = 0;
    std::uint64_t tracedStepped = 0;
    double stepS = 0, skipS = 0;
    double collectS = 0;
    std::uint64_t collects = 0;
    std::map<std::string, double> netNs;
    std::uint64_t flits = 0, insts = 0; ///< of the replicated cells
    LayerTimes layers;
    bool exact = true;
};

/** Regenerate this workload's reference lines for every sim seed. */
int
writeReference(const Args &args)
{
    std::vector<std::string> kept;
    {
        std::ifstream in(args.writeReference);
        std::string line;
        while (std::getline(in, line))
            if (line.rfind(args.workload + " ", 0) != 0)
                kept.push_back(line);
    }
    for (std::uint64_t s = 1; s <= kRefSeeds; ++s) {
        Workload w = *makeWorkload(args.workload, s);
        ExperimentRunner runner(w.ec);
        std::vector<std::int64_t> step_ns;
        for (const CellRef &ref : cellOrder(w.ec)) {
            CellOutcome o = runCell(runner, ref, false, &step_ns);
            kept.push_back(args.workload + " " + std::to_string(s) + " " +
                           std::to_string(ref.index) + " " +
                           cellJsonRecord(o.cell));
            std::fprintf(stderr, "reference %s seed %llu cell %zu: %s/%s\n",
                         args.workload.c_str(),
                         static_cast<unsigned long long>(s), ref.index,
                         o.cell.benchmark.c_str(), o.cell.scheme.c_str());
        }
    }
    // Header comments first; record lines keep their order.
    std::stable_partition(kept.begin(), kept.end(),
                          [](const std::string &l) {
                              return !l.empty() && l[0] == '#';
                          });
    std::ofstream out(args.writeReference, std::ios::trunc);
    for (const auto &l : kept)
        out << l << '\n';
    return out.good() ? 0 : 1;
}

int
runBenchmark(const Args &args)
{
    // Pass p simulates seed 1 + (seed + p) % kRefSeeds: a run cycles
    // through the committed seeds, so its cell mix (whose host cost
    // differs by up to 25 % between seeds) hardly depends on where it
    // started. Each seed's runner builds its design once, untimed.
    auto sim_seed_of = [&args](std::uint64_t pass) {
        return 1 + (args.seed + pass) % kRefSeeds;
    };
    const Workload base = *makeWorkload(args.workload, sim_seed_of(0));
    std::vector<std::optional<ExperimentRunner>> runners(kRefSeeds);
    auto runner_for = [&](std::uint64_t sim_seed) -> ExperimentRunner & {
        std::optional<ExperimentRunner> &r = runners[sim_seed - 1];
        if (!r)
            r.emplace(makeWorkload(args.workload, sim_seed)->ec);
        return *r;
    };
    ReferenceMap reference = loadReference(args.reference);
    Calibrator calib;

    // ---- set-up, repeated: design flow + every cell's System ----
    std::vector<double> setup_s, design_s, build_s, setup_rates;
    std::uint64_t evaluations = 0;
    for (int r = 0; r < kSetupRepeats; ++r) {
        std::optional<ExperimentRunner> &runner = runners[sim_seed_of(0) - 1];
        runner.emplace(base.ec);
        Clock::time_point a = Clock::now();
        evaluations = runner->equinoxDesign().evaluations;
        Clock::time_point b = Clock::now();
        double build = 0;
        for (const CellRef &ref : cellOrder(runner->config())) {
            PreparedCell pc = runner->prepareCell(ref.scheme, *ref.profile);
            Clock::time_point c = Clock::now();
            System sys(pc.sc, pc.wp);
            build += secs(Clock::now() - c);
        }
        design_s.push_back(secs(b - a));
        build_s.push_back(build);
        setup_s.push_back(secs(b - a) + build);
        setup_rates.push_back(calib.sample());
    }

    std::filesystem::path cache_dir = std::filesystem::path(args.workDir) /
                                      ("cache." + std::to_string(::getpid()));
    std::filesystem::remove_all(cache_dir);
    std::filesystem::create_directories(cache_dir);
    CellCache cache(cache_dir.string());

    SweepTimes sweep;
    TraceTotals tt;
    std::uint64_t attempted = 0, failed = 0, passes = 0;
    std::uint64_t sim_cycles = 0, stepped = 0;
    double loop_s = 0;
    double deliv_num = 0, deliv_den = 0;
    std::vector<double> work_sep, work_eqx;
    std::vector<CellOutcome> first; // pass 1 outcomes: simulated counts
    // Step latency: each pass's quantiles, reported as medians over
    // passes.
    std::vector<std::int64_t> step_ns;
    std::vector<double> p50s, p99s, pass_rates;
    std::uint64_t beyond_p99 = 0;

    Clock::time_point start = Clock::now();
    do {
        const std::uint64_t sim_seed = sim_seed_of(passes);
        ExperimentRunner &runner = runner_for(sim_seed);
        const std::vector<CellRef> cells = cellOrder(runner.config());
        std::vector<CellOutcome> pass;
        step_ns.clear();
        for (const CellRef &ref : cells) {
            CellOutcome o = runCell(runner, ref, false, &step_ns);
            pass_rates.push_back(calib.sample());
            const RunResult &r = o.cell.result;
            ++attempted;
            sim_cycles += r.cycles;
            stepped += o.stepped;
            loop_s += o.loopS;
            tt.untracedLoopS += o.loopS;
            // Useful work per simulated cycle: instructions, or
            // delivered replies where storm endpoints replace the PEs.
            double work = base.storm
                              ? ratio(static_cast<double>(r.stormDelivered),
                                      static_cast<double>(r.cycles))
                              : r.ipc;
            (ref.scheme == "EquiNox" ? work_eqx : work_sep).push_back(work);
            deliv_num += static_cast<double>(
                base.storm ? r.stormDelivered : r.repPackets);
            deliv_den += static_cast<double>(
                base.storm ? r.stormOffered : r.reqPackets);

            std::string what;
            if (!r.completed)
                what = "did not complete";
            std::string rec = cellJsonRecord(o.cell);
            auto it = reference.find(refKey(args.workload, sim_seed,
                                            ref.index));
            if (it == reference.end())
                what = "no reference record";
            else if (rec != it->second)
                what = "diverged: " + recordDiff(rec, it->second);
            std::string sw = exerciseSweep(runner, ref, o.cell, cache,
                                           sweep);
            if (what.empty() && !sw.empty())
                what = sw;
            if (!what.empty()) {
                ++failed;
                std::printf("FAIL seed %llu cell %zu %s/%s: %s\n",
                            static_cast<unsigned long long>(sim_seed),
                            ref.index, o.cell.benchmark.c_str(),
                            o.cell.scheme.c_str(), what.c_str());
            }
            pass.push_back(std::move(o));
        }
        p50s.push_back(quantileUs(step_ns, 0.50));
        p99s.push_back(quantileUs(step_ns, 0.99));
        beyond_p99 = step_ns.size() - static_cast<std::size_t>(std::ceil(
                                          0.99 * double(step_ns.size())));

        if (args.trace) {
            // Traced pass: spans around step() and maybeSkip().
            for (const CellRef &ref : cells) {
                CellOutcome o = runCell(runner, ref, true, nullptr);
                tt.tracedLoopS += o.loopS;
                tt.tracedStepped += o.stepped;
                tt.stepS += o.stepS;
                tt.skipS += o.skipS;
                tt.collectS += o.collectS;
                ++tt.collects;
            }
            // Layer-attribution replica, checked against this pass.
            for (std::size_t i = 0; i < cells.size(); ++i) {
                PreparedCell pc =
                    runner.prepareCell(cells[i].scheme, *cells[i].profile);
                LayerReplica rep(pc.sc, pc.wp);
                LayerTimes lt;
                rep.run(lt);
                const CellOutcome &sys = pass[i];
                bool exact = rep.cycles() == sys.cell.result.cycles &&
                             rep.insts() == sys.cell.result.totalInsts &&
                             rep.numNetworks() ==
                                 static_cast<int>(sys.nets.size());
                for (int n = 0; exact && n < rep.numNetworks(); ++n)
                    exact = networkFlits(rep.network(n)) ==
                            sys.nets[static_cast<std::size_t>(n)].flits;
                if (!exact) {
                    std::printf("replica of seed %llu cell %zu diverged "
                                "from its System run\n",
                                static_cast<unsigned long long>(sim_seed),
                                i);
                    tt.exact = false;
                }
                for (int n = 0; n < rep.numNetworks(); ++n) {
                    const NetCounts &nc =
                        sys.nets[static_cast<std::size_t>(n)];
                    tt.netNs[nc.name] +=
                        lt.netNs[static_cast<std::size_t>(n)];
                    tt.flits += nc.flits;
                }
                tt.insts += sys.cell.result.totalInsts;
                tt.layers.cbNs += lt.cbNs;
                tt.layers.peNs += lt.peNs;
                tt.layers.stormNs += lt.stormNs;
                tt.layers.cycleNs += lt.cycleNs;
                tt.layers.cycles += lt.cycles;
            }
        }
        if (passes++ == 0)
            first = std::move(pass);
    } while (secs(Clock::now() - start) < args.seconds);
    std::filesystem::remove_all(cache_dir);

    const double gain = ratio(geomean(work_eqx), geomean(work_sep));
    // Every host time below is calibrated (see Calibrator).
    const double f = Calibrator::factor(pass_rates);
    const double f_setup = Calibrator::factor(setup_rates);
    auto host = [f](double v) { return v * f; };

    struct rusage ru {};
    ::getrusage(RUSAGE_SELF, &ru);
    double rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;

    std::vector<Metric> e2e = {
        {"sim_kcycles_per_s", ratio(sim_cycles / 1000.0, host(loop_s)),
         "kcycles/s", attempted, "host"},
        {"step_us_p50", host(median(p50s)), "us", stepped, "host"},
        {"step_us_p99", host(median(p99s)), "us", stepped, "host"},
        {"setup_s", median(setup_s) * f_setup, "s", setup_s.size(),
         "host"},
        {"peak_rss_mb", rss_mb, "MB", 1, "host"},
        {"delivered_ratio", ratio(deliv_num, deliv_den), "ratio",
         attempted, "sim"},
    };
    // Printed with the end-to-end metrics but carried in the per-layer
    // set: the gain is a property of the simulated seed (1.10x-1.48x
    // across the paper-8x8 seeds), a spread no run-to-run bound fits.
    const Metric gain_metric{"sim.eqx_ipc_gain", gain, "x", attempted,
                             "sim"};

    std::printf("e2e_bench workload=%s seed=%llu sim_seeds=%llu.. trace=%d "
                "passes=%llu cells/pass=%zu measured=%.2fs\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed),
                static_cast<unsigned long long>(sim_seed_of(0)),
                args.trace ? 1 : 0, static_cast<unsigned long long>(passes),
                first.size(), secs(Clock::now() - start));
    printTable("end-to-end (host = simulator time, sim = simulated)", e2e);
    std::printf("%-34s %18.6f %-10s %10llu %s\n", gain_metric.name.c_str(),
                gain, "x", static_cast<unsigned long long>(attempted),
                "sim");
    std::printf("%-34s %18.6f %-10s %10llu %s\n", "calib.factor", f, "x",
                static_cast<unsigned long long>(pass_rates.size()), "host");
    std::printf("%-34s %18.6f %-10s %10llu %s\n", "calib.setup_factor",
                f_setup, "x",
                static_cast<unsigned long long>(setup_rates.size()), "host");
    std::printf("%-34s %18.6f %-10s %10llu %s\n", "raw sim_kcycles_per_s",
                ratio(sim_cycles / 1000.0, loop_s), "kcycles/s",
                static_cast<unsigned long long>(attempted), "host");
    std::printf("%-34s %18.6f %-10s %10llu %s\n", "fail_ratio",
                ratio(static_cast<double>(failed),
                      static_cast<double>(attempted)),
                "ratio", static_cast<unsigned long long>(attempted), "-");
    std::printf("step_us_p99 has %llu samples beyond it in the last pass; "
                "%llu stepped of %llu simulated cycles in all passes\n",
                static_cast<unsigned long long>(beyond_p99),
                static_cast<unsigned long long>(stepped),
                static_cast<unsigned long long>(sim_cycles));
    if (base.paperGain > 0)
        std::printf("sim.eqx_ipc_gain %.4fx beside the paper's %.2fx "
                    "(fig12_scalability); the model is otherwise "
                    "unvalidated\n", gain, base.paperGain);
    else
        std::printf("sim.eqx_ipc_gain %.4fx is delivered replies per cycle, "
                    "EquiNox over SeparateBase (storm endpoints issue no "
                    "instructions; no paper value)\n", gain);

    std::vector<Metric> layer;
    bool correct = failed == 0;
    if (args.trace) {
        // Simulated counts of the first pass.
        NetCounts zero;
        std::map<std::string, NetCounts> nets;
        std::uint64_t insts = 0, l1h = 0, l1m = 0, l2h = 0, l2m = 0;
        std::uint64_t hbm = 0, max_eir = 0, offered = 0, dropped = 0;
        for (const CellOutcome &o : first) {
            for (const NetCounts &nc : o.nets) {
                NetCounts &acc = nets.emplace(nc.name, zero).first->second;
                acc.flits += nc.flits;
                acc.packets += nc.packets;
                acc.vaReq += nc.vaReq;
                acc.vaGrant += nc.vaGrant;
                acc.saReq += nc.saReq;
                acc.saGrant += nc.saGrant;
                acc.creditStall += nc.creditStall;
            }
            const RunResult &r = o.cell.result;
            insts += r.totalInsts;
            l1h += o.l1Hits;
            l1m += o.l1Misses;
            l2h += o.l2Hits;
            l2m += o.l2Misses;
            hbm += o.hbmAccesses;
            max_eir = std::max(max_eir, r.maxEirLoadPackets);
            offered += r.stormOffered;
            dropped += r.stormDropped;
        }
        const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
        const std::uint64_t ncell = first.size();

        double design = median(design_s) * f_setup;
        layer.push_back({"core.design_s", design, "s", design_s.size(),
                         "host"});
        layer.push_back({"core.evals_per_s", ratio(d(evaluations), design),
                         "1/s", design_s.size(), "host"});
        layer.push_back({"sim.build_s", median(build_s) * f_setup, "s",
                         build_s.size(), "host"});
        layer.push_back({"sim.step_us",
                         ratio(host(tt.stepS) * 1e6, d(tt.tracedStepped)),
                         "us",
                         tt.tracedStepped, "host"});
        layer.push_back({"sim.collect_ms",
                         ratio(host(tt.collectS) * 1e3, d(tt.collects)),
                         "ms",
                         tt.collects, "host"});
        layer.push_back(gain_metric);
        layer.push_back({"wheel.skip_share",
                         ratio(tt.skipS, tt.stepS + tt.skipS), "ratio",
                         tt.tracedStepped, "host"});
        layer.push_back({"wheel.skipped_frac",
                         ratio(d(sim_cycles - stepped), d(sim_cycles)),
                         "ratio", sim_cycles, "sim"});
        layer.push_back({"trace.overhead_share",
                         ratio(tt.tracedLoopS - tt.untracedLoopS,
                               tt.untracedLoopS),
                         "ratio", passes, "host"});
        layer.push_back({"trace.overhead_us_per_step",
                         ratio(host(tt.tracedLoopS - tt.untracedLoopS) * 1e6,
                               d(tt.tracedStepped)),
                         "us", tt.tracedStepped, "host"});

        layer.push_back({"layer_trace_exact", tt.exact ? 1.0 : 0.0, "bool",
                         attempted, "sim"});
        if (tt.exact) {
            const LayerTimes &lt = tt.layers;
            const double cyc = d(lt.cycles);
            double attributed = lt.cbNs + lt.peNs + lt.stormNs;
            double noc_ns = 0;
            auto tick = [&](const std::string &name, double ns) {
                layer.push_back({name + ".tick_ns", ratio(host(ns), cyc), "ns",
                                 lt.cycles, "host"});
                layer.push_back({name + ".share", ratio(ns, lt.cycleNs),
                                 "ratio", lt.cycles, "host"});
            };
            for (const auto &[name, ns] : tt.netNs) {
                tick("noc." + name, ns);
                attributed += ns;
                noc_ns += ns;
            }
            tick("gpu.cb", lt.cbNs);
            tick("gpu.pe", lt.peNs);
            tick("traffic.storm", lt.stormNs);
            layer.push_back({"replica.cycle_us",
                             ratio(host(lt.cycleNs) / 1e3, cyc),
                             "us", lt.cycles, "host"});
            layer.push_back({"replica.unattributed_share",
                             ratio(lt.cycleNs - attributed, lt.cycleNs),
                             "ratio", lt.cycles, "host"});
            layer.push_back({"noc.ns_per_flit",
                             ratio(host(noc_ns), d(tt.flits)),
                             "ns", tt.flits, "host"});
            layer.push_back({"gpu.pe.ns_per_inst",
                             ratio(host(lt.peNs), d(tt.insts)), "ns",
                             tt.insts,
                             "host"});
        } else {
            correct = false;
        }

        for (const auto &[name, nc] : nets) {
            std::string p = "noc." + name + ".";
            layer.push_back({p + "flits", d(nc.flits), "count", ncell,
                             "sim"});
            layer.push_back({p + "packets", d(nc.packets), "count", ncell,
                             "sim"});
            layer.push_back({p + "va_grant_ratio",
                             ratio(d(nc.vaGrant), d(nc.vaReq)), "ratio",
                             nc.vaReq, "sim"});
            layer.push_back({p + "sa_grant_ratio",
                             ratio(d(nc.saGrant), d(nc.saReq)), "ratio",
                             nc.saReq, "sim"});
            layer.push_back({p + "credit_stall_ticks", d(nc.creditStall),
                             "count", ncell, "sim"});
        }
        layer.push_back({"noc.max_eir_load", d(max_eir), "count", ncell,
                         "sim"});
        layer.push_back({"gpu.pe.insts", d(insts), "count", ncell, "sim"});
        layer.push_back({"gpu.pe.l1_hit_ratio", ratio(d(l1h), d(l1h + l1m)),
                         "ratio", l1h + l1m, "sim"});
        layer.push_back({"gpu.cb.l2_hit_ratio", ratio(d(l2h), d(l2h + l2m)),
                         "ratio", l2h + l2m, "sim"});
        layer.push_back({"memory.hbm.accesses", d(hbm), "count", ncell,
                         "sim"});
        layer.push_back({"traffic.storm.offered", d(offered), "count",
                         ncell, "sim"});
        layer.push_back({"traffic.storm.dropped", d(dropped), "count",
                         ncell, "sim"});

        const double sc = d(sweep.cells);
        layer.push_back({"sweep.digest_us", ratio(host(sweep.digestUs), sc), "us",
                         sweep.cells, "host"});
        layer.push_back({"sweep.record_us", ratio(host(sweep.recordUs), sc), "us",
                         sweep.cells, "host"});
        layer.push_back({"sweep.cache_store_us", ratio(host(sweep.storeUs), sc),
                         "us", sweep.cells, "host"});
        layer.push_back({"sweep.cache_lookup_us", ratio(host(sweep.lookupUs), sc),
                         "us", sweep.cells, "host"});
        printTable("per-layer (traced run)", layer);
    }

    const std::vector<Metric> &reported = args.trace ? layer : e2e;
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < reported.size(); ++i) {
        const Metric &m = reported[i];
        json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
                jsonNumber(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args) ||
        !makeWorkload(args.workload, 1)) {
        std::fprintf(stderr,
                     "usage: e2e_bench --workload "
                     "paper-8x8|scale-16x16|storm-flash-8x8 --seed N "
                     "--seconds S --trace 0|1 [--reference FILE] "
                     "[--work-dir DIR] | --write-reference FILE\n");
        return 2;
    }
    try {
        if (!args.writeReference.empty())
            return writeReference(args);
        return runBenchmark(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "e2e_bench: %s\n", e.what());
        return 1;
    }
}
