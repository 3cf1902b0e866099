/** @file System construction and run-result consistency. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

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
cfg(Scheme s)
{
    SystemConfig sc;
    sc.scheme = s;
    sc.maxCycles = 300000;
    // keep in-system design flow cheap for tests
    sc.design.mcts.iterationsPerLevel = 120;
    sc.design.polishPasses = 2;
    return sc;
}

TEST(System, StructureCountsPerScheme)
{
    struct Case
    {
        Scheme s;
        int nets;
    };
    for (Case c : {Case{Scheme::SingleBase, 1}, Case{Scheme::VcMono, 1},
                   Case{Scheme::InterposerCMesh, 2},
                   Case{Scheme::SeparateBase, 2},
                   Case{Scheme::Da2Mesh, 9}, Case{Scheme::MultiPort, 2},
                   Case{Scheme::EquiNox, 2}}) {
        System sys(cfg(c.s), tiny());
        EXPECT_EQ(sys.numNetworks(), c.nets) << schemeName(c.s);
        EXPECT_EQ(sys.numPes(), 56) << schemeName(c.s);
        EXPECT_EQ(sys.numCacheBanks(), 8) << schemeName(c.s);
    }
}

TEST(System, AreaOrderingsMatchPaperFig11)
{
    auto area = [](Scheme s) {
        System sys(cfg(s), tiny());
        return sys.areaMm2();
    };
    double single = area(Scheme::SingleBase);
    double separate = area(Scheme::SeparateBase);
    double cmesh = area(Scheme::InterposerCMesh);
    double multi = area(Scheme::MultiPort);
    double equinox = area(Scheme::EquiNox);
    double da2 = area(Scheme::Da2Mesh);

    EXPECT_GT(separate, single);     // two networks cost more
    EXPECT_GT(cmesh, single);        // extra 2x-port overlay routers
    EXPECT_GT(multi, separate);      // extra CB ports
    EXPECT_GT(equinox, separate);    // EIR ports + split NI
    // Narrow subnets stay comparable. (Deviation from paper Fig. 11:
    // our model charges per-subnet allocator/NI overheads, landing
    // DA2Mesh slightly above SeparateBase instead of slightly below.)
    EXPECT_LT(da2, separate * 1.40);
    // Paper: EquiNox costs ~4.6% over SeparateBase - small, not 2x.
    EXPECT_LT(equinox, separate * 1.20);
}

TEST(System, EquiNoxUsesProvidedDesign)
{
    DesignParams dp;
    dp.mcts.iterationsPerLevel = 120;
    dp.polishPasses = 2;
    EquiNoxDesign design = buildEquiNoxDesign(dp);
    SystemConfig sc = cfg(Scheme::EquiNox);
    sc.preDesign = &design;
    System sys(sc, tiny());
    EXPECT_EQ(sys.design(), &design);
    EXPECT_EQ(sys.cbPlacement(), design.cbs);
    // Reply network carries the EIR remote ports.
    EXPECT_EQ(sys.network(1).numRemoteInjPorts(), design.numEirs());
}

TEST(System, RunResultInternallyConsistent)
{
    System sys(cfg(Scheme::SeparateBase), tiny());
    RunResult r = sys.run();
    ASSERT_TRUE(r.completed);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_NEAR(r.execNs, static_cast<double>(r.cycles) / 1.126, 1.0);
    EXPECT_GT(r.totalInsts, 0u);
    EXPECT_NEAR(r.ipc,
                static_cast<double>(r.totalInsts) /
                    static_cast<double>(r.cycles),
                1e-9);
    EXPECT_GT(r.energyPj, 0.0);
    EXPECT_NEAR(r.edp, r.energyPj * r.execNs, r.edp * 1e-9);
    // Conservation: every request produced exactly one reply.
    EXPECT_EQ(r.reqPackets, r.repPackets);
    EXPECT_GT(r.reqPackets, 0u);
}

TEST(System, ReplyTrafficDominatesBits)
{
    // Paper Section 2.2: replies are ~72.7% of NoC bits.
    System sys(cfg(Scheme::SeparateBase), tiny("kmeans", 400));
    RunResult r = sys.run();
    double frac = static_cast<double>(r.replyBits) /
                  static_cast<double>(r.requestBits + r.replyBits);
    EXPECT_GT(frac, 0.60);
    EXPECT_LT(frac, 0.85);
}

TEST(System, StepAdvancesOneCycle)
{
    System sys(cfg(Scheme::SingleBase), tiny());
    EXPECT_EQ(sys.now(), 0u);
    sys.step();
    sys.step();
    EXPECT_EQ(sys.now(), 2u);
    EXPECT_FALSE(sys.finished());
}

TEST(System, ComputeBoundWorkloadBarelyTouchesNoc)
{
    System mem_sys(cfg(Scheme::SeparateBase), tiny("kmeans", 300));
    System alu_sys(cfg(Scheme::SeparateBase), tiny("myocyte", 300));
    RunResult rm = mem_sys.run();
    RunResult ra = alu_sys.run();
    EXPECT_LT(static_cast<double>(ra.reqPackets),
              static_cast<double>(rm.reqPackets) * 0.5);
}

TEST(System, WarmupOnlyTrafficYieldsZeroMeasuredPackets)
{
    // Learn how long the run takes, then replay it with the warmup
    // boundary past the drain point: every packet then ejects during
    // warmup and the measured stats must be empty.
    SystemConfig sc = cfg(Scheme::SeparateBase);
    System ref(sc, tiny());
    RunResult rr = ref.run();
    ASSERT_TRUE(rr.completed);
    ASSERT_GT(rr.reqPackets, 0u);

    sc.warmupCycles = rr.cycles + 10;
    System sys(sc, tiny());
    // step() keeps advancing past drain, so drive it by hand up to the
    // warmup boundary (which triggers the stats reset)...
    while (sys.now() < sc.warmupCycles)
        sys.step();
    // ...then run() finds the system already drained and just collects.
    RunResult r = sys.run();
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.reqPackets, 0u);
    EXPECT_EQ(r.repPackets, 0u);
    EXPECT_EQ(r.requestBits, 0u);
    EXPECT_EQ(r.replyBits, 0u);
    EXPECT_DOUBLE_EQ(r.reqP99Ns, 0.0);
    EXPECT_DOUBLE_EQ(r.repQueueNs, 0.0);
}

TEST(System, WarmupExcludesEarlyPacketsButNotBehaviour)
{
    SystemConfig sc = cfg(Scheme::SeparateBase);
    System base_sys(sc, tiny());
    RunResult base = base_sys.run();
    ASSERT_TRUE(base.completed);

    // Measure only the second half of the run: the simulation itself
    // (cycles, instructions) is untouched; the packet accounting
    // shrinks by whatever ejected during warmup.
    sc.warmupCycles = base.cycles / 2;
    System warm_sys(sc, tiny());
    RunResult warm = warm_sys.run();
    EXPECT_TRUE(warm.completed);
    EXPECT_EQ(warm.cycles, base.cycles);
    EXPECT_EQ(warm.totalInsts, base.totalInsts);
    EXPECT_GT(warm.reqPackets, 0u);
    EXPECT_LT(warm.reqPackets, base.reqPackets);
}

TEST(System, MaxEirLoadEqualsMaxOverBufferCounters)
{
    SystemConfig sc = cfg(Scheme::EquiNox);
    sc.collectMetrics = true;
    System sys(sc, tiny());
    RunResult r = sys.run();
    ASSERT_TRUE(r.completed);
    ASSERT_GT(r.maxEirLoadPackets, 0u);

    // Acceptance check: the headline max-EIR load is exactly the max
    // over the per-buffer counters of the reply network, both read
    // directly from the NIs and through the exported snapshot.
    std::uint64_t direct = 0;
    const Network &rep = sys.network(1);
    for (NodeId n = 0; n < rep.topology().numNodes(); ++n) {
        const NetworkInterface &ni = rep.ni(n);
        for (int b = 0; b < ni.numInjBuffers(); ++b)
            direct = std::max(direct, ni.injBuffer(b).packetsInjected);
    }
    EXPECT_EQ(r.maxEirLoadPackets, direct);

    double exported = 0;
    for (const auto &[key, val] : r.metrics.all()) {
        if (key.compare(0, 9, "reply.ni.") != 0)
            continue;
        if (key.size() < 8 ||
            key.compare(key.size() - 8, 8, ".packets") != 0)
            continue;
        exported = std::max(exported, val);
    }
    EXPECT_DOUBLE_EQ(exported,
                     static_cast<double>(r.maxEirLoadPackets));
}

TEST(System, MetricsSnapshotOptIn)
{
    SystemConfig sc = cfg(Scheme::SeparateBase);
    System off(sc, tiny());
    EXPECT_TRUE(off.run().metrics.all().empty());

    sc.collectMetrics = true;
    System on(sc, tiny());
    RunResult r = on.run();
    EXPECT_FALSE(r.metrics.all().empty());
    // Both networks export under their own prefix.
    EXPECT_GT(r.metrics.get("request.act.link_flits"), 0.0);
    EXPECT_GT(r.metrics.get("reply.act.link_flits"), 0.0);
    EXPECT_GT(r.metrics.get("reply.lat.rep.p95"), 0.0);
}

TEST(System, WindowStalledRunMatchesGolden)
{
    // Memory-bound shape: a two-access latency-tolerance window and a
    // 1 KB L1 keep every PE window-stalled on DRAM most cycles, so this
    // run has more all-idle cycles than any figure cell. Golden
    // captured at commit 8662185, where run() fast-forwarded over 220
    // of them and an every-cycle stepped run produced it too.
    const golden::Golden want{0xfa853c7df1b1141fULL, 12269, 400195, 21326,
                              140112};
    SystemConfig sc = cfg(Scheme::SeparateBase);
    sc.warmupCycles = 50;
    sc.collectMetrics = true;
    sc.pe.maxOutstanding = 2;
    sc.pe.l1 = CacheGeometry{1024, 64, 2};
    RunResult r = System(sc, tiny("kmeans", 400)).run();
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(golden::ofRun(r), want);
}

TEST(System, DeterministicAcrossRuns)
{
    SystemConfig sc = cfg(Scheme::SeparateBase);
    System a(sc, tiny());
    System b(sc, tiny());
    RunResult ra = a.run();
    RunResult rb = b.run();
    EXPECT_EQ(ra.cycles, rb.cycles);
    EXPECT_EQ(ra.reqPackets, rb.reqPackets);
    EXPECT_DOUBLE_EQ(ra.energyPj, rb.energyPj);
}

} // namespace
} // namespace eqx
