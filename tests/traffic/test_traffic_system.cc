/**
 * @file
 * Full-system traffic-model behaviour: capture -> replay -> capture
 * byte-identity across schemes, replays and storms pinned to frozen
 * goldens under both the skipping and the stepped cycle loop, replay
 * equivalence to the synthetic stream it recorded, storm determinism /
 * saturation /
 * open-loop loss, coherence invalidation fan-out and drain, and the
 * fatal composition rules.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "golden.hh"
#include "sim/system.hh"

namespace eqx {
namespace {

WorkloadProfile
tiny(const char *name = "kmeans", std::uint64_t insts = 200)
{
    WorkloadProfile wp = workloadByName(name);
    wp.instsPerPe = insts;
    return wp;
}

SystemConfig
cfg(const char *scheme_key)
{
    SystemConfig sc;
    sc.schemeKey = scheme_key;
    sc.maxCycles = 300000;
    // keep the in-system EquiNox design flow cheap for tests
    sc.design.mcts.iterationsPerLevel = 120;
    sc.design.polishPasses = 2;
    return sc;
}

std::string
slurp(const std::string &p)
{
    std::ifstream in(p);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

class TraceSystemFixture : public ::testing::Test
{
  protected:
    std::string
    path(const char *name)
    {
        std::string p =
            ::testing::TempDir() + "eqx_systrace_" + name + ".json";
        paths_.push_back(p);
        return p;
    }

    void
    TearDown() override
    {
        for (const auto &p : paths_)
            std::remove(p.c_str());
    }

    std::vector<std::string> paths_;
};

TEST_F(TraceSystemFixture, CaptureReplayCaptureIsByteIdenticalAcrossSchemes)
{
    std::string first = path("first");

    // Capture the synthetic stream once, on SeparateBase.
    SystemConfig sc = cfg("SeparateBase");
    sc.traffic.trace = "capture:" + first;
    RunResult direct = System(sc, tiny()).run();
    ASSERT_TRUE(direct.completed);
    std::string first_bytes = slurp(first);
    ASSERT_FALSE(first_bytes.empty());

    // Replaying and re-capturing must reproduce the bytes exactly —
    // through the same scheme and through a different one (the file is
    // a pure function of the op streams, not of the NoC under them).
    for (const char *scheme : {"SeparateBase", "SingleBase"}) {
        std::string again = path("again");
        SystemConfig rc = cfg(scheme);
        rc.traffic.trace =
            "replay:" + first + ",capture:" + again;
        RunResult rr = System(rc, tiny()).run();
        EXPECT_TRUE(rr.completed) << scheme;
        EXPECT_EQ(slurp(again), first_bytes) << scheme;
    }

    // Replay on the capturing scheme is the recorded run, exactly.
    SystemConfig rc = cfg("SeparateBase");
    rc.traffic.trace = "replay:" + first;
    RunResult replayed = System(rc, tiny()).run();
    EXPECT_EQ(replayed.cycles, direct.cycles);
    EXPECT_EQ(replayed.totalInsts, direct.totalInsts);
    EXPECT_EQ(replayed.reqPackets, direct.reqPackets);
    EXPECT_EQ(replayed.repPackets, direct.repPackets);
}

TEST_F(TraceSystemFixture, ReplayIsBitIdenticalAcrossTickModes)
{
    std::string trace = path("tickmodes");
    SystemConfig sc = cfg("SeparateBase");
    sc.traffic.trace = "capture:" + trace;
    ASSERT_TRUE(System(sc, tiny()).run().completed);

    // Golden captured at commit 7f8757d, where the activity-scheduled
    // skipping run and the exhaustive stepped run both produced it.
    const golden::Golden want{0x5949335f0cd1d81eULL, 3710, 198396, 10600,
                              840554};
    SystemConfig rc = cfg("SeparateBase");
    rc.traffic.trace = "replay:" + trace;
    rc.collectMetrics = true;
    EXPECT_EQ(golden::ofRun(System(rc, tiny()).run()), want);
}

TEST_F(TraceSystemFixture, ReplayRejectsPeCountMismatch)
{
    // Capture on an 8x8 (56 PEs), replay into a 4x4 (12 PEs): fatal.
    std::string trace = path("mismatch");
    SystemConfig sc = cfg("SeparateBase");
    sc.traffic.trace = "capture:" + trace;
    ASSERT_TRUE(System(sc, tiny()).run().completed);

    SystemConfig rc = cfg("SeparateBase");
    rc.width = 4;
    rc.height = 4;
    rc.numCbs = 4;
    rc.traffic.trace = "replay:" + trace;
    WorkloadProfile wp = tiny();
    EXPECT_THROW(System(rc, wp), std::runtime_error);
}

TEST_F(TraceSystemFixture, ReplayRejectsMissingFile)
{
    SystemConfig sc = cfg("SeparateBase");
    sc.traffic.trace = "replay:" + path("no-such-trace");
    WorkloadProfile wp = tiny();
    EXPECT_THROW(System(sc, wp), std::runtime_error);
}

TEST(TrafficSystem, TraceComposesOnlyWithClosedLoopModels)
{
    SystemConfig sc = cfg("SeparateBase");
    sc.traffic.model = "storm-flash";
    sc.traffic.trace = "capture:/tmp/eqx_never_written.json";
    WorkloadProfile wp = tiny();
    EXPECT_THROW(System(sc, wp), std::runtime_error);
}

TEST(TrafficSystem, UnknownModelIsFatalWithKeyList)
{
    SystemConfig sc = cfg("SeparateBase");
    sc.traffic.model = "no-such-model";
    WorkloadProfile wp = tiny();
    try {
        System sys(sc, wp);
        FAIL() << "unknown traffic model must be fatal";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("synthetic"),
                  std::string::npos);
    }
}

SystemConfig
stormCfg(const char *scheme_key, const char *model, double rate,
         std::uint64_t horizon = 2000)
{
    SystemConfig sc = cfg(scheme_key);
    sc.traffic.model = model;
    sc.traffic.stormRatePerK = rate;
    sc.traffic.stormHorizon = horizon;
    return sc;
}

TEST(StormSystem, ReplacesPesAndRunsToCompletion)
{
    SystemConfig sc = stormCfg("SeparateBase", "storm-flash", 32.0);
    System sys(sc, tiny());
    EXPECT_EQ(sys.numPes(), 0); // storms replace the PEs
    RunResult r = sys.run();
    EXPECT_TRUE(r.completed);
    EXPECT_TRUE(r.stormArmed);
    EXPECT_GT(r.stormOffered, 0u);
    EXPECT_EQ(r.stormDelivered, r.stormInjected); // all replies return
    EXPECT_EQ(r.stormOffered, r.stormInjected + r.stormDropped);
    EXPECT_GT(r.reqPackets, 0u);
    EXPECT_EQ(r.totalInsts, 0u); // no PEs, no instructions
}

TEST(StormSystem, IsDeterministicAcrossRunsAndTickModes)
{
    // Two runs, both equal to the golden captured at commit 7f8757d,
    // where a skipping run and an exhaustive stepped run both produced
    // it. The record digest covers the storm columns.
    const golden::Golden want{0x262b15abfc231cc4ULL, 2101, 81936, 4368,
                              32362};
    SystemConfig sc = stormCfg("SeparateBase", "storm-diurnal", 32.0);
    sc.collectMetrics = true;
    for (int i = 0; i < 2; ++i)
        EXPECT_EQ(golden::ofRun(System(sc, tiny()).run()), want) << i;
}

TEST(StormSystem, OverloadSaturatesTheBoundedBacklog)
{
    // A small backlog under a hot, heavy spike must drop arrivals —
    // the open-loop loss signal — while a light load drops nothing.
    SystemConfig light = stormCfg("SeparateBase", "storm-flash", 8.0);
    RunResult lr = System(light, tiny()).run();
    EXPECT_EQ(lr.stormDropped, 0u);
    EXPECT_EQ(lr.stormDelivered, lr.stormOffered);

    SystemConfig heavy = stormCfg("SeparateBase", "storm-hotspot", 512.0);
    heavy.traffic.stormQueueCap = 4;
    RunResult hr = System(heavy, tiny()).run();
    EXPECT_TRUE(hr.completed);
    EXPECT_GT(hr.stormDropped, 0u);
    EXPECT_LT(hr.stormDelivered, hr.stormOffered);
}

TEST(StormSystem, SeedChangesTheArrivalPattern)
{
    SystemConfig a = stormCfg("SeparateBase", "storm-hotspot", 32.0);
    SystemConfig b = a;
    b.seed = 7;
    RunResult ra = System(a, tiny()).run();
    RunResult rb = System(b, tiny()).run();
    // Rate profiles are deterministic, so offered counts match; the
    // address / write-mix draws do not.
    EXPECT_EQ(ra.stormOffered, rb.stormOffered);
    EXPECT_NE(ra.requestBits, rb.requestBits);
}

TEST(CoherenceSystem, InvalidationsFanOutAndDrain)
{
    // A shared-heavy, write-heavy profile so cross-PE sharing occurs.
    WorkloadProfile wp = tiny("kmeans", 300);
    wp.sharedFrac = 0.8;
    wp.readFrac = 0.5;

    SystemConfig sc = cfg("SeparateBase");
    sc.traffic.model = "coherence";
    RunResult r = System(sc, wp).run();
    ASSERT_TRUE(r.completed);
    EXPECT_TRUE(r.cohArmed);
    EXPECT_GT(r.cohInvalidations, 0u);
    // Every Invalidate is acked fire-and-forget and the system drained,
    // so the ack count must match the fan-out exactly.
    EXPECT_EQ(r.cohInvAcks, r.cohInvalidations);
}

TEST(CoherenceSystem, IsDeterministicAndOffByDefault)
{
    WorkloadProfile wp = tiny("kmeans", 300);
    wp.sharedFrac = 0.8;
    wp.readFrac = 0.5;

    SystemConfig sc = cfg("SeparateBase");
    RunResult base = System(sc, wp).run();
    EXPECT_FALSE(base.cohArmed);
    EXPECT_EQ(base.cohInvalidations, 0u);

    sc.traffic.model = "coherence";
    RunResult a = System(sc, wp).run();
    RunResult b = System(sc, wp).run();
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.cohInvalidations, b.cohInvalidations);
    EXPECT_EQ(a.cohInvAcks, b.cohInvAcks);
    // The invalidation flows add real packets on top of the base run.
    EXPECT_GT(a.reqPackets + a.repPackets,
              base.reqPackets + base.repPackets);
}

TEST(CoherenceSystem, DedicatedCoherenceVcsCarryTheFlows)
{
    WorkloadProfile wp = tiny("kmeans", 300);
    wp.sharedFrac = 0.8;
    wp.readFrac = 0.5;

    // Single network with class VCs: carve one coherence VC. Needs
    // vcsPerPort >= coherenceVcs + 2.
    SystemConfig sc = cfg("SingleBase");
    sc.vcsPerPort = 4;
    sc.traffic.model = "coherence";
    sc.traffic.coherenceVcs = 1;
    RunResult r = System(sc, wp).run();
    EXPECT_TRUE(r.completed);
    EXPECT_GT(r.cohInvalidations, 0u);
    EXPECT_EQ(r.cohInvAcks, r.cohInvalidations);
}

TEST(CoherenceSystem, CoherenceVcsWithoutHeadroomIsRejected)
{
    SystemConfig sc = cfg("SingleBase");
    sc.vcsPerPort = 2; // needs >= 3 for coherenceVcs=1
    sc.traffic.model = "coherence";
    sc.traffic.coherenceVcs = 1;
    WorkloadProfile wp = tiny();
    EXPECT_THROW(System(sc, wp), std::logic_error);
}

} // namespace
} // namespace eqx
