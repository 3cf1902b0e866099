/**
 * @file
 * The two-lane step (DESIGN.md §8): System ticks its request network,
 * then its storm endpoints, on a helper thread while the calling
 * thread ticks the reply group, then the CBs and PEs. A System built
 * on a worker of a multi-worker JobPool takes the serial step
 * instead, so running the same cell on the main thread and inside a
 * 2-worker pool compares the two paths: the JSONL record
 * (modulo wall_ms, which these cells leave at 0) and the cell digest
 * must be byte-identical for every registered scheme, at 4x4 and 8x8,
 * under synthetic, storm-flash, coherence and fault-armed traffic.
 */

#include <gtest/gtest.h>

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <fstream>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "runner/job_pool.hh"
#include "sim/experiment.hh"
#include "sim/layers.hh"
#include "sweep/digest.hh"

namespace eqx {
namespace {

/** Can this process overlap at all? Path comparisons need it. */
bool
twoCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    return sched_getaffinity(0, sizeof(set), &set) == 0 &&
           CPU_COUNT(&set) >= 2;
}

enum class Traffic { Synthetic, StormFlash, Coherence, FaultArmed };

const char *
trafficName(Traffic t)
{
    switch (t) {
      case Traffic::Synthetic: return "synthetic";
      case Traffic::StormFlash: return "storm-flash";
      case Traffic::Coherence: return "coherence";
      case Traffic::FaultArmed: return "fault-armed";
    }
    return "?";
}

ExperimentConfig
cellConfig(int size, Traffic t)
{
    ExperimentConfig ec;
    ec.width = ec.height = size;
    ec.numCbs = size == 4 ? 4 : 8;
    ec.workloads = workloadSubset(1);
    ec.instScale = 0.02;
    ec.warmupCycles = 50;
    ec.collectMetrics = true; // every exported counter in the record
    ec.tweak = [](SystemConfig &sc) {
        sc.design.mcts.iterationsPerLevel = 80;
        sc.design.polishPasses = 1;
    };
    switch (t) {
      case Traffic::Synthetic:
        break;
      case Traffic::StormFlash:
        ec.traffic.model = "storm-flash";
        ec.traffic.stormHorizon = 1500;
        break;
      case Traffic::Coherence:
        ec.traffic.model = "coherence";
        break;
      case Traffic::FaultArmed:
        ec.fault.ratePerKTick = 4.0;
        ec.fault.seed = 3;
        break;
    }
    return ec;
}

/** One simulated cell, as the sweep would record it. */
struct Outcome
{
    std::string record; ///< cellJsonRecord + digest
    bool overlapped = false;
};

Outcome
simulate(ExperimentRunner &runner, const std::string &scheme)
{
    const WorkloadProfile &wp = runner.config().workloads.front();
    PreparedCell pc = runner.prepareCell(scheme, wp);
    System sys(pc.sc, pc.wp);
    CellResult cell;
    cell.scheme = scheme;
    cell.benchmark = wp.name;
    cell.result = sys.run();
    Outcome o;
    o.record = cellJsonRecord(cell) + " digest=" +
               cellDigest(runner, scheme, wp).hex();
    o.overlapped = sys.overlapsNetworks();
    return o;
}

/** The same cell on a worker of a 2-worker pool: the serial step. */
Outcome
simulateOnBusyPool(ExperimentRunner &runner, const std::string &scheme)
{
    runner.equinoxDesign(); // prepareCell is thread-safe once built
    Outcome o;
    JobPoolConfig pc;
    pc.workers = 2;
    pc.retries = 0;
    auto reports = JobPool(pc).run(2, [&](const JobContext &ctx) {
        if (ctx.index == 0)
            o = simulate(runner, scheme);
        return true;
    });
    EXPECT_TRUE(reports[0].ok()) << reports[0].error;
    return o;
}

/** Schemes whose request network meets the rest only at endpoints:
 *  every split request/reply scheme. */
const std::set<std::string> kOverlapping = {
    "SeparateBase", "EquiNox",    "DA2Mesh",       "MultiPort",
    "EquiNox-XY",   "EquiNox-Torus", "SeparateBase-CMesh",
};

class ConcurrentNets : public ::testing::TestWithParam<std::string>
{};

TEST_P(ConcurrentNets, OverlappedStepIsByteIdenticalToSerial)
{
    const std::string &scheme = GetParam();
    bool overlap_expected = kOverlapping.count(scheme) && twoCpus();
    for (int size : {4, 8}) {
        for (Traffic t : {Traffic::Synthetic, Traffic::StormFlash,
                          Traffic::Coherence, Traffic::FaultArmed}) {
            std::string tag = scheme + " " + std::to_string(size) + "x" +
                              std::to_string(size) + " " + trafficName(t);
            ExperimentRunner runner(cellConfig(size, t));
            Outcome here = simulate(runner, scheme);
            Outcome pooled = simulateOnBusyPool(runner, scheme);
            EXPECT_EQ(here.overlapped, overlap_expected) << tag;
            EXPECT_FALSE(pooled.overlapped) << tag;
            EXPECT_EQ(here.record, pooled.record) << tag;
            EXPECT_NE(here.record.find("\"completed\":true"),
                      std::string::npos)
                << tag;
        }
    }
}

TEST_P(ConcurrentNets, GroupsFollowTheWiring)
{
    const std::string &scheme = GetParam();
    bool split = kOverlapping.count(scheme) > 0;
    // PEs under synthetic traffic, storm endpoints under storm-flash.
    for (Traffic t : {Traffic::Synthetic, Traffic::StormFlash}) {
        ExperimentRunner runner(cellConfig(8, t));
        PreparedCell pc =
            runner.prepareCell(scheme, runner.config().workloads.front());
        System sys(pc.sc, pc.wp);
        ASSERT_EQ(sys.numPes() == 0, t == Traffic::StormFlash);
        // One-network schemes have nothing to overlap; Interposer-
        // CMesh's overlay exits forward into the mesh's endpoints.
        EXPECT_EQ(sys.networkGroupsDisjoint(), split) << trafficName(t);
        // Storm endpoints, the helper's endpoint lane, reach only
        // network(0) and CBs only the rest: one network has no rest,
        // and the CMesh overlay chooser reaches both. PEs tick on the
        // caller with the CBs, so without storms the helper's lane
        // reaches nothing.
        EXPECT_EQ(sys.endpointLanesDisjoint(),
                  split || t == Traffic::Synthetic)
            << trafficName(t);
        EXPECT_EQ(sys.overlapsNetworks(), split && twoCpus())
            << trafficName(t);
    }
}

std::string
paramName(const ::testing::TestParamInfo<std::string> &info)
{
    std::string s = info.param;
    std::replace_if(
        s.begin(), s.end(), [](char c) { return !std::isalnum(c); }, '_');
    return s;
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, ConcurrentNets,
                         ::testing::ValuesIn(allSchemeNames()), paramName);

/** Wraps an endpoint and fails with eqx_fatal on its Nth packet. */
class FailingSink : public PacketSink
{
  public:
    FailingSink(PacketSink *inner, int fail_at)
        : inner_(inner), failAt_(fail_at)
    {}

    bool
    canAccept(const PacketPtr &pkt) override
    {
        return inner_->canAccept(pkt);
    }

    void
    accept(const PacketPtr &pkt, Cycle now) override
    {
        if (++accepted_ == failAt_)
            eqx_fatal("test sink refuses packet ", accepted_);
        inner_->accept(pkt, now);
    }

  private:
    PacketSink *inner_;
    int failAt_;
    int accepted_ = 0;
};

/** An EquiNox 8x8 System with one endpoint of network @p net wrapped
 *  by a FailingSink; swapped after construction, so the overlap
 *  decision still sees the plain endpoint. */
void
expectFatalFromNetwork(int net)
{
    ExperimentRunner runner(cellConfig(8, Traffic::Synthetic));
    PreparedCell pc =
        runner.prepareCell("EquiNox", runner.config().workloads.front());
    System sys(pc.sc, pc.wp);
    ASSERT_EQ(sys.overlapsNetworks(), twoCpus());
    // A CB on the request network, the first PE on the reply network.
    NodeId node = net == 0 ? static_cast<NodeId>(sys.cbPlacement()[0].y *
                                                     pc.sc.width +
                                                 sys.cbPlacement()[0].x)
                           : sys.pe(0).node();
    auto &wired = const_cast<Network &>(sys.network(net));
    FailingSink failing(wired.sink(node), 3);
    wired.setSink(node, &failing);
    EXPECT_THROW(sys.run(), FatalError);
}

TEST(ConcurrentNetsFailure, HelperFatalIsRethrownOnTheCaller)
{
    expectFatalFromNetwork(0);
}

TEST(ConcurrentNetsFailure, CallerFatalWaitsForTheHelper)
{
    expectFatalFromNetwork(1);
}

/** A lane member that runs @p body when ticked. */
template <typename F>
class LaneStub final : public Tickable
{
  public:
    explicit LaneStub(F body) : body_(std::move(body)) {}
    void tick(Cycle) override { body_(); }

  private:
    F body_;
};

TEST(ConcurrentNetsFailure, HelperLaneFatalWaitsForTheCallerLane)
{
    // The endpoint phase's shape: the caller's lane (the CBs) comes
    // first in the serial order, the helper's (storm endpoints) last.
    std::atomic<bool> caller_done{false};
    LaneStub helper([] { eqx_fatal("helper lane fails"); });
    LaneStub caller([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        caller_done = true;
    });
    StepRunner runner;
    runner.schedule({{{&helper}, {&caller}, false}});
    runner.overlap();
    if (!runner.overlaps())
        GTEST_SKIP() << "one CPU: no helper thread";
    EXPECT_THROW(runner.tick(1), FatalError);
    EXPECT_TRUE(caller_done);
}

TEST(ConcurrentNetsFailure, SeriallyFirstLaneWinsADoubleThrow)
{
    LaneStub helper([] { eqx_fatal("helper"); });
    LaneStub caller([] { eqx_fatal("caller"); });
    for (bool helper_first : {true, false}) {
        for (bool two_threads : {false, true}) {
            StepRunner runner;
            runner.schedule({{{&helper}, {&caller}, helper_first}});
            if (two_threads)
                runner.overlap();
            if (two_threads && !runner.overlaps())
                continue; // one CPU
            std::string what;
            try {
                runner.tick(1);
            } catch (const FatalError &e) {
                what = e.what();
            }
            EXPECT_EQ(what, helper_first ? "fatal: helper" : "fatal: caller")
                << "two threads: " << two_threads;
        }
    }
}

TEST(ConcurrentNetsPolicy, MultiWorkerPoolsKeepOneThreadPerCell)
{
    ExperimentRunner runner(cellConfig(8, Traffic::Synthetic));
    runner.equinoxDesign();
    PreparedCell pc =
        runner.prepareCell("EquiNox", runner.config().workloads.front());
    auto overlaps_on = [&](int workers) {
        JobPoolConfig jc;
        jc.workers = workers;
        std::vector<int> seen(2, -1);
        JobPool(jc).run(2, [&](const JobContext &ctx) {
            seen[ctx.index] = System(pc.sc, pc.wp).overlapsNetworks();
            return true;
        });
        return seen;
    };
    EXPECT_EQ(overlaps_on(2), (std::vector<int>{0, 0}));
    int one = twoCpus() ? 1 : 0;
    EXPECT_EQ(overlaps_on(1), (std::vector<int>{one, one}));

    // runMatrix hands every cell to such a pool: with 2 workers its
    // Systems see a 2-worker batch, with 1 worker a 1-worker batch.
    // (The tweak also runs on this thread, which is no worker: 0.)
    for (int workers : {1, 2}) {
        ExperimentConfig ec = cellConfig(8, Traffic::Synthetic);
        ec.schemes = {"SeparateBase", "EquiNox"};
        ec.workers = workers;
        std::mutex mu;
        std::set<int> batch;
        ec.tweak = [&](SystemConfig &sc) {
            sc.design.mcts.iterationsPerLevel = 80;
            sc.design.polishPasses = 1;
            std::lock_guard<std::mutex> lock(mu);
            batch.insert(JobPool::currentWorkers());
        };
        ExperimentRunner(ec).runMatrix();
        batch.erase(0);
        EXPECT_EQ(batch, std::set<int>{workers});
    }
}

/** Resident set size in KiB. */
long
rssKb()
{
    std::ifstream statm("/proc/self/statm");
    long size = 0, resident = 0;
    statm >> size >> resident;
    return resident * (sysconf(_SC_PAGESIZE) / 1024);
}

TEST(ConcurrentNetsMemory, PacketArenaBoundedOverRunLength)
{
    // Coherence traffic crosses threads both ways: CBs allocate
    // Invalidates on the helper, and the InvAcks PEs allocate die
    // there. Every packet must go home to the arena it came from and
    // be reused, or the caller's arena grows with run length.
    auto run_cell = [](double scale) {
        ExperimentConfig ec = cellConfig(8, Traffic::Coherence);
        ec.workloads = workloadSubset({std::string("kmeans")});
        ec.instScale = scale;
        ExperimentRunner runner(ec);
        PreparedCell pc = runner.prepareCell(
            "SeparateBase", runner.config().workloads.front());
        System sys(pc.sc, pc.wp);
        RunResult r = sys.run();
        EXPECT_TRUE(r.completed);
        return r.cohInvAcks;
    };
    run_cell(0.4);
    // Every run drains, so the caller's arena then holds every packet
    // it ever carved: its size is the peak in flight, not a total.
    // A longer run may reach a peak a block or two higher.
    std::size_t short_free = packetPoolFreeCount();
    long short_rss = rssKb();
    // Enough InvAcks that a leak would need ~10 blocks beyond the
    // peak (a copy that never reuses returned packets fails here).
    EXPECT_GT(run_cell(0.8), 8 * kPacketPoolBlock);
    EXPECT_LE(packetPoolFreeCount(),
              short_free + 4 * kPacketPoolBlock);
#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
    // A coarse guard: malloc arenas alone move RSS by a few MB, and
    // sanitizer shadow memory by far more, so sanitized builds skip it.
    EXPECT_LT(rssKb() - short_rss, 16 * 1024);
#endif
}

/** CPU time this process has used, all threads. */
std::chrono::microseconds
cpuTime()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto us = [](const timeval &tv) {
        return std::chrono::seconds(tv.tv_sec) +
               std::chrono::microseconds(tv.tv_usec);
    };
    return us(ru.ru_utime) + us(ru.ru_stime);
}

TEST(ConcurrentNetsIdle, SteppedThenIdleSystemSleeps)
{
    ExperimentRunner runner(cellConfig(8, Traffic::Synthetic));
    PreparedCell pc =
        runner.prepareCell("EquiNox", runner.config().workloads.front());
    System sys(pc.sc, pc.wp);
    if (!sys.overlapsNetworks())
        GTEST_SKIP() << "one CPU: no helper thread";
    for (int i = 0; i < 500 && !sys.finished(); ++i)
        sys.step();
    auto before = cpuTime();
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    EXPECT_LT(cpuTime() - before, std::chrono::milliseconds(20));
    sys.run(); // the helper wakes up again
}

} // namespace
} // namespace eqx
