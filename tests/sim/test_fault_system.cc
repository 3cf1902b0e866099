/**
 * @file
 * System- and experiment-level fault injection (DESIGN.md §11): the
 * transient-only exactly-once audit, prompt cancellation of a run that
 * can never drain, and worker-count-independent determinism of a
 * faulted sweep including its JSONL export.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <regex>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.hh"
#include "sim/experiment.hh"
#include "sim/system.hh"

namespace eqx {
namespace {

WorkloadProfile
tiny(const char *name = "kmeans", std::uint64_t insts = 400)
{
    WorkloadProfile wp = workloadByName(name);
    wp.instsPerPe = insts;
    return wp;
}

TEST(FaultSystem, TransientOnlyDeliversEveryPacketExactlyOnce)
{
    SystemConfig sc;
    sc.scheme = Scheme::SeparateBase;
    sc.maxCycles = 400'000;
    sc.fault.ratePerKTick = 16;
    sc.fault.kinds = kTransientFaultKinds;
    sc.fault.horizonTicks = 400'000;

    System sys(sc, tiny());
    RunResult r = sys.run();
    ASSERT_TRUE(r.completed);
    ASSERT_TRUE(r.faultArmed);

    // The sequence audit: every packet that entered the protocol was
    // delivered, none were declared lost, and the worms the faults
    // destroyed were all recovered by retransmission.
    EXPECT_GT(r.faultSeqPackets, 0u);
    EXPECT_EQ(r.faultDelivered, r.faultSeqPackets);
    EXPECT_EQ(r.faultLost, 0u);
    EXPECT_GT(r.faultWormsDropped, 0u);
    EXPECT_GE(r.faultRetx, r.faultWormsDropped);
    // Credit reconciliation kept the books balanced.
    EXPECT_EQ(r.faultCreditsReconciled, r.faultFlitsDropped);
    // Transient faults never mask ports.
    EXPECT_EQ(r.faultMaskedPorts, 0);
    EXPECT_FALSE(r.degraded);
}

TEST(FaultSystem, CancelTokenStopsAnUndeliverableRunPromptly)
{
    // Kill node 0's injection wire on both networks at tick 1 with
    // unlimited retransmissions: some packet retries forever, so the
    // run can only end through the cancel token (maxCycles is set far
    // beyond what the test could ever simulate).
    SystemConfig sc;
    sc.scheme = Scheme::SeparateBase;
    sc.maxCycles = 2'000'000'000;
    FaultEvent kill;
    kill.tick = 1;
    kill.kind = FaultKind::PermanentLinkKill;
    kill.wire = -1;
    kill.ni = 0;
    kill.buf = 0;
    sc.fault.events.push_back(kill);
    sc.fault.retxTimeout = 64;

    CancelToken token;
    sc.cancel = &token;
    System sys(sc, tiny());
    std::thread canceller([&token] {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        token.cancel();
    });
    RunResult r = sys.run();
    canceller.join();

    EXPECT_TRUE(sys.cancelled());
    EXPECT_FALSE(r.completed);
    EXPECT_TRUE(r.faultArmed);
}

/** Field-by-field equality, fault columns included (==, no tolerance). */
bool
sameFaultedResult(const RunResult &a, const RunResult &b)
{
    return a.completed == b.completed && a.cycles == b.cycles &&
           a.execNs == b.execNs && a.totalInsts == b.totalInsts &&
           a.ipc == b.ipc && a.energyPj == b.energyPj &&
           a.reqPackets == b.reqPackets &&
           a.repPackets == b.repPackets &&
           a.faultArmed == b.faultArmed && a.degraded == b.degraded &&
           a.faultSeqPackets == b.faultSeqPackets &&
           a.faultDelivered == b.faultDelivered &&
           a.faultDuplicates == b.faultDuplicates &&
           a.faultRetx == b.faultRetx && a.faultLost == b.faultLost &&
           a.faultWormsDropped == b.faultWormsDropped &&
           a.faultFlitsDropped == b.faultFlitsDropped &&
           a.faultCreditsReconciled == b.faultCreditsReconciled &&
           a.faultMaskedPorts == b.faultMaskedPorts;
}

std::vector<std::string>
jsonlModuloWall(const std::string &path)
{
    // wall_ms is wall-clock measurement noise, the one legitimately
    // nondeterministic column; everything else must be byte-identical.
    static const std::regex wall("\"wall_ms\":[^,}]*,?");
    std::vector<std::string> lines;
    std::ifstream in(path);
    EXPECT_TRUE(in.is_open()) << path;
    std::string line;
    while (std::getline(in, line))
        lines.push_back(std::regex_replace(line, wall, ""));
    return lines;
}

TEST(FaultSystem, FaultedSweepBitIdenticalAcrossWorkerCounts)
{
    auto makeConfig = [](int workers, const std::string &jsonl) {
        ExperimentConfig ec;
        ec.workloads = workloadSubset(2);
        ec.instScale = 0.04;
        ec.schemes = {"SeparateBase", "MultiPort"};
        ec.workers = workers;
        ec.jsonlPath = jsonl;
        ec.fault.ratePerKTick = 8;
        ec.fault.kinds = kTransientFaultKinds;
        ec.fault.horizonTicks = 50'000;
        return ec;
    };
    std::string p1 = ::testing::TempDir() + "eqx_fault_w1.jsonl";
    std::string pn = ::testing::TempDir() + "eqx_fault_wn.jsonl";
    ExperimentRunner r1(makeConfig(1, p1)), rn(makeConfig(6, pn));
    auto c1 = r1.runMatrix();
    auto cn = rn.runMatrix();

    ASSERT_EQ(c1.size(), 4u);
    ASSERT_EQ(cn.size(), c1.size());
    std::uint64_t drops = 0;
    for (std::size_t i = 0; i < c1.size(); ++i) {
        EXPECT_EQ(c1[i].scheme, cn[i].scheme) << i;
        EXPECT_EQ(c1[i].benchmark, cn[i].benchmark) << i;
        EXPECT_TRUE(sameFaultedResult(c1[i].result, cn[i].result))
            << c1[i].benchmark << "/" << c1[i].scheme;
        drops += c1[i].result.faultWormsDropped;
    }
    // The schedule fired, so this compared real recovery activity.
    EXPECT_GT(drops, 0u);

    // The exported JSONL (the artifact campaigns actually consume) is
    // identical too, record order included: records go out in
    // canonical order for any worker count.
    auto l1 = jsonlModuloWall(p1);
    auto ln = jsonlModuloWall(pn);
    EXPECT_EQ(l1, ln);
    EXPECT_EQ(l1.size(), 4u);
    std::remove(p1.c_str());
    std::remove(pn.c_str());
}

} // namespace
} // namespace eqx
