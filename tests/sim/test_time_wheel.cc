/**
 * @file
 * Global time wheel (DESIGN.md §14): the network's next-due /
 * skip-to arithmetic, and the system-level oracle — a run that
 * fast-forwards over dead cycles must produce a bit-identical
 * RunResult to one that steps every cycle.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "fault/fault_model.hh"
#include "golden.hh"
#include "sim/system.hh"

namespace eqx {
namespace {

/** Network skipTo must advance ticks exactly as stepped cycles do. */
TEST(TimeWheel, NetworkSkipMatchesSteppedTickCount)
{
    // Two networks with a 2.5x clock ratio (ticks alternate 3/2), one
    // stepped cycle by cycle, one fast-forwarded in one jump.
    auto make = [] {
        NetworkSpec spec;
        spec.params.width = 4;
        spec.params.height = 4;
        spec.params.ticksEvenCycle = 3;
        spec.params.ticksOddCycle = 2;
        return std::make_unique<Network>(spec);
    };
    auto stepped = make(), skipped = make();
    for (Cycle c = 1; c <= 37; ++c)
        stepped->coreTick(c);
    skipped->skipTo(37);
    EXPECT_EQ(stepped->currentTick(), skipped->currentTick());
    EXPECT_EQ(skipped->nextDueCycle(37), kNeverCycle); // idle, drained
}

WorkloadProfile
wheelWorkload()
{
    WorkloadProfile wp = workloadByName("kmeans");
    wp.instsPerPe = 400;
    return wp;
}

SystemConfig
wheelConfig()
{
    SystemConfig sc;
    sc.scheme = Scheme::SeparateBase;
    sc.maxCycles = 300000;
    sc.warmupCycles = 50;
    sc.collectMetrics = true;
    // Memory-bound shape: a tiny latency-tolerance window makes every
    // PE spend most cycles window-stalled on DRAM, so the run has real
    // dead time for the wheel to skip.
    sc.pe.maxOutstanding = 2;
    sc.pe.l1 = CacheGeometry{1024, 64, 2};
    return sc;
}

/** Flatten the scalar fields + full metric snapshot to one string. */
std::string
digest(const RunResult &r)
{
    std::ostringstream os;
    os << r.completed << ' ' << r.cycles << ' ' << r.totalInsts << ' '
       << r.ipc << ' ' << r.energyPj << ' ' << r.reqQueueNs << ' '
       << r.reqNetNs << ' ' << r.repQueueNs << ' ' << r.repNetNs << ' '
       << r.reqPackets << ' ' << r.repPackets << ' ' << r.reqP99Ns
       << ' ' << r.repP99Ns << '\n';
    for (const auto &[k, v] : r.metrics.all())
        os << k << '=' << v << '\n';
    return os.str();
}

TEST(TimeWheel, SkippingRunIsBitIdenticalToSteppedRun)
{
    System fast(wheelConfig(), wheelWorkload());
    RunResult rf = fast.run();
    RunResult rs = golden::steppedRun(wheelConfig(), wheelWorkload());
    ASSERT_TRUE(rf.completed);
    EXPECT_EQ(digest(rf), digest(rs));
    // The workload leaves real dead time (DRAM waits, drain tail):
    // the wheel must actually have skipped some of it.
    EXPECT_GT(fast.cyclesSkipped(), 0u);
}

TEST(TimeWheel, SkipSuppressedWhileFaultPlaneArmed)
{
    SystemConfig sc = wheelConfig();
    sc.fault.ratePerKTick = 8;
    sc.fault.kinds = kTransientFaultKinds;
    sc.fault.horizonTicks = 50'000;
    System sys(sc, wheelWorkload());
    RunResult r = sys.run();
    EXPECT_TRUE(r.faultArmed);
    EXPECT_EQ(sys.cyclesSkipped(), 0u);
}

} // namespace
} // namespace eqx
