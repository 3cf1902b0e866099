#include "sweep/knobs.hh"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <utility>

#include "common/logging.hh"
#include "sweep/shard.hh"
#include "traffic/traffic_registry.hh"

namespace eqx {

namespace {

/** An integer knob that must be at least @p min. */
long
intAtLeast(const Config &cfg, const char *key, long fallback, long min)
{
    long v = cfg.getInt(key, fallback);
    if (v < min)
        eqx_fatal("knob ", key, "=", v, " is out of range (want >= ",
                  min, ")");
    return v;
}

/** An int-typed knob that must be at least @p min; a value past
 *  INT_MAX would narrow to anything, so it is out of range too. */
int
intFieldAtLeast(const Config &cfg, const char *key, int fallback, int min)
{
    long v = intAtLeast(cfg, key, fallback, min);
    if (v > std::numeric_limits<int>::max())
        eqx_fatal("knob ", key, "=", v, " is out of range (want <= ",
                  std::numeric_limits<int>::max(), ")");
    return static_cast<int>(v);
}

/** A real knob that must lie in [0, 1]; NaN fails the test too. */
double
fractionKnob(const Config &cfg, const char *key, double fallback)
{
    double v = cfg.getDouble(key, fallback);
    if (!(v >= 0 && v <= 1))
        eqx_fatal("knob ", key, "=", v, " is out of range (want [0, 1])");
    return v;
}

} // namespace

double
parseScaleKnob(const Config &cfg, double fallback)
{
    double v = cfg.getDouble("scale", fallback);
    // The scale multiplies instruction counts that become integers:
    // a negative, NaN or huge value has no integer to become.
    if (!(v > 0 && v <= 1000))
        eqx_fatal("knob scale=", v, " is out of range (want (0, 1000])");
    return v;
}

void
applyMatrixKnobs(ExperimentConfig &ec, const Config &cfg,
                 double scale_default, long benchmarks_default)
{
    ec.seed = static_cast<std::uint64_t>(cfg.getInt("seed", 1));
    ec.instScale = parseScaleKnob(cfg, scale_default);
    ec.workloads = workloadSubset(static_cast<std::size_t>(
        intAtLeast(cfg, "benchmarks", benchmarks_default, 1)));
}

std::vector<std::string>
parseSchemeKnob(const Config &cfg, std::vector<std::string> fallback)
{
    if (!cfg.has("scheme"))
        return fallback;
    std::vector<std::string> out;
    for (const std::string &key : splitList(cfg.getString("scheme")))
        out.push_back(SchemeRegistry::instance().byName(key).name());
    if (out.empty())
        eqx_fatal("empty scheme list; registered schemes: ",
                  SchemeRegistry::instance().keyList());
    return out;
}

void
applyTrafficKnobs(TrafficConfig &tc, const Config &cfg)
{
    // traffic= is validated against the registry up front and stored
    // canonically; an untouched command line leaves the config, and
    // therefore the cell digest and record schema, unchanged.
    std::string model = cfg.getString("traffic", "");
    if (!model.empty())
        tc.model = TrafficRegistry::instance().byName(model).name();
    tc.trace = cfg.getString("trace", tc.trace);
    tc.stormRatePerK = cfg.getDouble("storm_rate", tc.stormRatePerK);
    if (!(std::isfinite(tc.stormRatePerK) && tc.stormRatePerK > 0))
        eqx_fatal("knob storm_rate=", tc.stormRatePerK,
                  " is out of range (want a finite value > 0)");
    tc.stormHorizon = static_cast<std::uint64_t>(intAtLeast(
        cfg, "storm_horizon", static_cast<long>(tc.stormHorizon), 1));
    tc.stormQueueCap =
        intFieldAtLeast(cfg, "storm_queue", tc.stormQueueCap, 1);
    tc.stormTrough = fractionKnob(cfg, "storm_trough", tc.stormTrough);
    tc.stormWriteFrac = fractionKnob(cfg, "storm_write", tc.stormWriteFrac);
    tc.stormHotCbs =
        intFieldAtLeast(cfg, "storm_hot_cbs", tc.stormHotCbs, 1);
    tc.stormHotFrac = fractionKnob(cfg, "storm_hot_frac", tc.stormHotFrac);
    tc.coherenceVcs = intFieldAtLeast(cfg, "coh_vcs", tc.coherenceVcs, 0);
    tc.cohRegionLines =
        intFieldAtLeast(cfg, "coh_region", tc.cohRegionLines, 1);
}

void
applyRunnerKnobs(ExperimentConfig &ec, const Config &cfg,
                 bool progress_default)
{
    ec.workers = static_cast<int>(cfg.getInt("workers", 0));
    ec.jobTimeoutSec = cfg.getDouble("timeout", 0);
    if (!(std::isfinite(ec.jobTimeoutSec) && ec.jobTimeoutSec >= 0))
        eqx_fatal("knob timeout=", ec.jobTimeoutSec,
                  " is out of range (want a finite value >= 0)");
    ec.jobRetries = intFieldAtLeast(cfg, "retries", 1, 0);
    ec.progress = cfg.getBool("progress", progress_default);
    ec.jsonlPath = cfg.getString("jsonl", "");
    ec.warmupCycles = static_cast<Cycle>(intAtLeast(cfg, "warmup", 0, 0));
    ec.collectMetrics = cfg.getBool("metrics", false);
    applyTrafficKnobs(ec.traffic, cfg);
}

SweepOptions
parseSweepKnobs(const Config &cfg)
{
    SweepOptions so;
    so.cacheDir = cfg.getString("cache", "");
    std::string shard = cfg.getString("shard", "");
    if (!shard.empty() &&
        !parseShardSpec(shard, so.shardIndex, so.shardCount))
        eqx_fatal("bad shard= spec '", shard,
                  "' (want i/N with 0 <= i < N)");
    return so;
}

void
applyFaultKnobs(FaultConfig &fc, const Config &cfg)
{
    fc.ratePerKTick = cfg.getDouble("fault_rate", fc.ratePerKTick);
    std::string types = cfg.getString("fault_types", "");
    if (!types.empty() && !parseFaultKinds(types, fc.kinds))
        eqx_fatal("unknown fault_types spec: '", types, "'");
    fc.retxTimeout = static_cast<Cycle>(
        cfg.getInt("retx_timeout", static_cast<long>(fc.retxTimeout)));
    fc.retxMax = static_cast<int>(cfg.getInt("retx_max", fc.retxMax));
    fc.seed = static_cast<std::uint64_t>(
        cfg.getInt("fault_seed", static_cast<long>(fc.seed)));
    fc.horizonTicks = static_cast<Cycle>(cfg.getInt(
        "fault_horizon", static_cast<long>(fc.horizonTicks)));
    fc.detectLatency = static_cast<Cycle>(cfg.getInt(
        "detect_latency", static_cast<long>(fc.detectLatency)));
    fc.ackLatency = static_cast<Cycle>(
        cfg.getInt("ack_latency", static_cast<long>(fc.ackLatency)));
}

std::vector<CellResult>
runMatrixOrSweep(const ExperimentConfig &ec, const SweepOptions &so)
{
    if (!so.enabled()) {
        ExperimentRunner runner(ec);
        return runner.runMatrix();
    }
    SweepOutcome out = runSweep(ec, so);
    std::printf("sweep fabric: %zu/%zu cells (shard %d/%d), "
                "%zu cache served, %zu simulated, %zu failed\n",
                out.shardCells, out.totalCells, so.shardIndex,
                so.shardCount, out.cacheHits,
                out.simulated, out.failed);
    return std::move(out.cells);
}

std::size_t
listFailedCells(const std::vector<CellResult> &cells)
{
    std::size_t failed = 0;
    for (const auto &c : cells) {
        if (!c.failed)
            continue;
        ++failed;
        std::printf("  FAILED %s/%s after %d attempt(s)%s%s\n",
                    c.benchmark.c_str(), c.scheme.c_str(), c.attempts,
                    c.error.empty() ? "" : ": ", c.error.c_str());
    }
    return failed;
}

} // namespace eqx
