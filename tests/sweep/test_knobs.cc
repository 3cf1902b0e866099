/** @file The shared CLI knob parse (src/sweep/knobs.hh). */

#include <gtest/gtest.h>

#include <initializer_list>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/logging.hh"
#include "sweep/digest.hh"
#include "sweep/knobs.hh"
#include "workloads/profiles.hh"

namespace eqx {
namespace {

Config
knobs(std::initializer_list<std::string> tokens)
{
    Config c;
    c.parseArgs(tokens);
    return c;
}

TEST(Knobs, DefaultsLeaveConfigsUntouched)
{
    // fig09's parse on an empty command line.
    Config cfg;
    ExperimentConfig ec;
    applyMatrixKnobs(ec, cfg, 0.20, 1);
    ec.schemes = parseSchemeKnob(cfg, ec.schemes);
    applyRunnerKnobs(ec, cfg, false);
    applyFaultKnobs(ec.fault, cfg);
    SweepOptions so = parseSweepKnobs(cfg);
    cfg.rejectUnused();

    const ExperimentConfig ref;
    EXPECT_EQ(ec.seed, 1u);
    EXPECT_EQ(ec.instScale, 0.20);
    EXPECT_EQ(ec.workloads.size(), 1u);
    EXPECT_EQ(ec.schemes, ref.schemes);
    EXPECT_EQ(ec.workers, 0); // all hardware threads; never hashed
    EXPECT_EQ(ec.jobTimeoutSec, ref.jobTimeoutSec);
    EXPECT_EQ(ec.jobRetries, ref.jobRetries);
    EXPECT_EQ(ec.progress, ref.progress);
    EXPECT_EQ(ec.jsonlPath, ref.jsonlPath);
    EXPECT_EQ(ec.warmupCycles, ref.warmupCycles);
    EXPECT_EQ(ec.collectMetrics, ref.collectMetrics);

    // Everything the cell digest hashes (traffic and fault included)
    // matches the default config: the pinned fig09 cell digest of
    // Digest.DefaultSystemConfigDigestPinned.
    ExperimentRunner runner(ec);
    EXPECT_EQ(cellDigest(runner, "EquiNox", ec.workloads.front()).hex(),
              "4ecdecb90fd99975e98661e601594d43");

    const SweepOptions ref_so;
    EXPECT_FALSE(so.enabled());
    EXPECT_EQ(so.cacheDir, ref_so.cacheDir);
    EXPECT_EQ(so.shardIndex, ref_so.shardIndex);
    EXPECT_EQ(so.shardCount, ref_so.shardCount);
}

TEST(Knobs, ProgressDefaultIsPerCli)
{
    ExperimentConfig ec;
    applyRunnerKnobs(ec, Config{}, true);
    EXPECT_TRUE(ec.progress);
    applyRunnerKnobs(ec, knobs({"progress=0"}), true);
    EXPECT_FALSE(ec.progress);
}

TEST(Knobs, RunnerAndTrafficKnobsApply)
{
    ExperimentConfig ec;
    applyRunnerKnobs(ec,
                     knobs({"workers=3", "timeout=2.5", "retries=0",
                            "jsonl=x.jsonl", "warmup=100", "metrics=1",
                            "traffic=STORM-FLASH", "storm_rate=16"}),
                     false);
    EXPECT_EQ(ec.workers, 3);
    EXPECT_EQ(ec.jobTimeoutSec, 2.5);
    EXPECT_EQ(ec.jobRetries, 0);
    EXPECT_EQ(ec.jsonlPath, "x.jsonl");
    EXPECT_EQ(ec.warmupCycles, 100u);
    EXPECT_TRUE(ec.collectMetrics);
    EXPECT_EQ(ec.traffic.model, "storm-flash");
    EXPECT_EQ(ec.traffic.stormRatePerK, 16.0);
}

TEST(Knobs, ShardKnobParsesAndJournalKnobsAreUnknown)
{
    SweepOptions so = parseSweepKnobs(knobs({"shard=1/4"}));
    EXPECT_EQ(so.shardIndex, 1);
    EXPECT_EQ(so.shardCount, 4);
    EXPECT_THROW(parseSweepKnobs(knobs({"shard=4/4"})), FatalError);
    EXPECT_THROW(parseSweepKnobs(knobs({"shard=0/4294967296"})),
                 FatalError);

    // The cell cache is the one store of finished cells: the retired
    // journal knobs are unknown, so rejectUnused refuses them.
    for (const char *retired : {"journal=j.jnl", "resume=1", "merge=a,b"}) {
        Config cfg = knobs({retired});
        parseSweepKnobs(cfg);
        EXPECT_THROW(cfg.rejectUnused(), FatalError) << retired;
    }
}

TEST(Knobs, SchemeAliasesComeBackCanonical)
{
    const std::vector<std::string> fallback = {"SingleBase"};
    EXPECT_EQ(parseSchemeKnob(Config{}, fallback), fallback);
    EXPECT_EQ(parseSchemeKnob(knobs({"scheme=equinox,,separatebase"}),
                              fallback),
              (std::vector<std::string>{"EquiNox", "SeparateBase"}));
    EXPECT_THROW(parseSchemeKnob(knobs({"scheme=Nope"}), fallback),
                 FatalError);
    EXPECT_THROW(parseSchemeKnob(knobs({"scheme=,"}), fallback),
                 FatalError);
}

TEST(Knobs, OutOfRangeValuesAreFatal)
{
    ExperimentConfig ec;
    for (const char *bad : {"benchmarks=0", "benchmarks=-3"})
        EXPECT_THROW(applyMatrixKnobs(ec, knobs({bad}), 0.2, 2), FatalError)
            << bad;
    applyMatrixKnobs(ec, knobs({"benchmarks=08", "seed=010"}), 0.2, 2);
    EXPECT_EQ(ec.workloads.size(), 8u);
    EXPECT_EQ(ec.seed, 10u);

    for (const char *bad : {"scale=-1", "scale=0", "scale=nan",
                            "scale=inf", "scale=1e300"})
        EXPECT_THROW(parseScaleKnob(knobs({bad}), 0.2), FatalError) << bad;
    EXPECT_EQ(parseScaleKnob(knobs({"scale=0.05"}), 0.2), 0.05);

    for (const char *bad : {"retries=-5", "timeout=-1", "timeout=inf",
                            "timeout=nan"})
        EXPECT_THROW(applyRunnerKnobs(ec, knobs({bad}), false), FatalError)
            << bad;
}

TEST(Knobs, OutOfRangeTrafficKnobsAreFatal)
{
    // Each of these once divided by zero, wrapped to a huge unsigned
    // value, narrowed to a different int or panicked inside every
    // cell; now the parse refuses it.
    for (const char *bad :
         {"storm_rate=0", "storm_rate=-2", "storm_rate=nan",
          "storm_rate=inf", "storm_horizon=0", "storm_horizon=-1",
          "storm_queue=0", "storm_queue=-1", "storm_hot_cbs=0",
          "coh_region=0", "coh_region=-4", "coh_vcs=-1",
          "storm_trough=-0.1", "storm_trough=nan", "storm_write=1.5",
          "storm_hot_frac=2", "storm_hot_frac=inf",
          "storm_queue=4294967296", "coh_region=2147483648"}) {
        TrafficConfig tc;
        EXPECT_THROW(applyTrafficKnobs(tc, knobs({bad})), FatalError)
            << bad;
    }
    ExperimentConfig ec;
    for (const char *bad : {"warmup=-5", "retries=4294967297"})
        EXPECT_THROW(applyRunnerKnobs(ec, knobs({bad}), false), FatalError)
            << bad;

    // The bounds themselves are accepted.
    TrafficConfig tc;
    applyTrafficKnobs(
        tc, knobs({"storm_rate=0.5", "storm_horizon=1", "storm_queue=1",
                   "storm_hot_cbs=1", "coh_region=1", "coh_vcs=0",
                   "storm_trough=0", "storm_write=1", "storm_hot_frac=0"}));
    EXPECT_EQ(tc.stormRatePerK, 0.5);
    EXPECT_EQ(tc.stormHorizon, 1u);
    EXPECT_EQ(tc.stormQueueCap, 1);
    EXPECT_EQ(tc.cohRegionLines, 1);
    EXPECT_EQ(tc.stormWriteFrac, 1.0);
    applyRunnerKnobs(ec, knobs({"warmup=0"}), false);
    EXPECT_EQ(ec.warmupCycles, 0u);
}

TEST(Knobs, FaultKnobsKeepUnsetFields)
{
    FaultConfig fc;
    fc.retxMax = 7;
    applyFaultKnobs(fc, knobs({"fault_rate=4", "fault_types=stall"}));
    EXPECT_EQ(fc.ratePerKTick, 4.0);
    EXPECT_EQ(fc.kinds, faultBit(FaultKind::TransientStall));
    EXPECT_EQ(fc.retxMax, 7);
    EXPECT_THROW(applyFaultKnobs(fc, knobs({"fault_types=meltdown"})),
                 FatalError);
}

} // namespace
} // namespace eqx
