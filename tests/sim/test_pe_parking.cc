/**
 * @file
 * Parked PEs (DESIGN.md §10) are exact: System::step(), which skips a
 * PE whose last tick changed nothing until a reply or a freed NI slot
 * wakes it, must leave every counter where a loop that ticks every
 * PE every cycle leaves it — the way the e2e_bench layer replica
 * ticks an unwired PE. The reference system below builds the same
 * system through the same scheme and traffic registries and repeats
 * System's cycle loop, minus parking.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "schemes/scheme_registry.hh"
#include "sim/system.hh"
#include "traffic/traffic_registry.hh"

namespace eqx {
namespace {

class EveryCycleSystem
{
  public:
    EveryCycleSystem(const SystemConfig &config,
                     const WorkloadProfile &profile)
        : cfg_(config),
          model_(&SchemeRegistry::instance().byEnum(cfg_.scheme))
    {
        designUsed_ = model_->placeCbs(cfg_, design_, cbCoords_);
        for (const auto &c : cbCoords_)
            cbNodes_.push_back(static_cast<NodeId>(c.y * cfg_.width + c.x));
        SchemeBuild build{cfg_, cbCoords_, cbNodes_, designUsed_};
        for (auto &spec : model_->networkSpecs(build))
            nets_.push_back(std::make_unique<Network>(spec));

        int num_nodes = cfg_.width * cfg_.height;
        int num_cbs = static_cast<int>(cbNodes_.size());
        amap_.lineBytes = 64;
        amap_.cbNodes = cbNodes_;
        tileSinks_.assign(static_cast<std::size_t>(num_nodes), nullptr);
        TrafficBuild tb{cfg_.traffic, profile, cfg_.seed,
                        num_nodes - num_cbs, num_cbs};
        traffic_ = TrafficRegistry::instance().byName("synthetic").build(tb);
        int pe_index = 0;
        for (NodeId n = 0; n < num_nodes; ++n) {
            bool is_cb = std::find(cbNodes_.begin(), cbNodes_.end(), n) !=
                         cbNodes_.end();
            injectors_.push_back(
                model_->makeInjector(build, nets_, n, is_cb));
            PacketInjector *inj = injectors_.back().get();
            if (is_cb) {
                cbs_.push_back(std::make_unique<CacheBank>(
                    n, cfg_.cb, inj, &cfg_.sizes));
                tileSinks_[static_cast<std::size_t>(n)] = cbs_.back().get();
            } else {
                pes_.push_back(std::make_unique<ProcessingElement>(
                    n, cfg_.pe, traffic_->makeSource(pe_index++), &amap_,
                    inj, &cfg_.sizes));
                tileSinks_[static_cast<std::size_t>(n)] = pes_.back().get();
            }
        }
        model_->wireSinks(build, nets_, tileSinks_, overlaySinks_);
    }

    /** System::step() with every PE ticked. */
    void
    step()
    {
        ++cycle_;
        for (auto &net : nets_)
            net->coreTick(cycle_);
        for (auto &cb : cbs_)
            cb->tick(cycle_);
        for (auto &pe : pes_)
            pe->tick(cycle_);
        if (cfg_.warmupCycles > 0 && cycle_ == cfg_.warmupCycles)
            for (auto &net : nets_)
                net->resetStats();
    }

    bool
    finished() const
    {
        for (const auto &pe : pes_)
            if (!pe->done())
                return false;
        for (const auto &cb : cbs_)
            if (!cb->drained())
                return false;
        for (const auto &net : nets_)
            if (!net->drained())
                return false;
        return true;
    }

    Cycle now() const { return cycle_; }
    const std::vector<std::unique_ptr<Network>> &nets() const
    {
        return nets_;
    }
    const std::vector<std::unique_ptr<ProcessingElement>> &pes() const
    {
        return pes_;
    }
    const std::vector<std::unique_ptr<CacheBank>> &cbs() const
    {
        return cbs_;
    }

  private:
    SystemConfig cfg_;
    const SchemeModel *model_;
    EquiNoxDesign design_;
    const EquiNoxDesign *designUsed_ = nullptr;
    std::vector<Coord> cbCoords_;
    std::vector<NodeId> cbNodes_;
    AddressMap amap_;
    std::unique_ptr<TrafficInstance> traffic_;
    std::vector<std::unique_ptr<Network>> nets_;
    std::vector<std::unique_ptr<PacketInjector>> injectors_;
    std::vector<std::unique_ptr<CacheBank>> cbs_;
    std::vector<std::unique_ptr<ProcessingElement>> pes_;
    std::vector<std::unique_ptr<PacketSink>> overlaySinks_;
    std::vector<PacketSink *> tileSinks_;
    Cycle cycle_ = 0;
};

/** Every counter a run leaves behind, keyed by component. */
using Snapshot = std::map<std::string, double>;

void
addGroup(Snapshot &out, const std::string &prefix, const StatGroup &g)
{
    for (const auto &[k, v] : g.all())
        out[prefix + k] = v;
}

void
addPe(Snapshot &out, int i, const ProcessingElement &pe)
{
    std::string p = "pe." + std::to_string(i) + ".";
    addGroup(out, p, pe.stats());
    out[p + "insts"] = static_cast<double>(pe.instsIssued());
    out[p + "outstanding"] = pe.outstanding();
    out[p + "l1.hits"] = static_cast<double>(pe.l1().hits());
    out[p + "l1.misses"] = static_cast<double>(pe.l1().misses());
}

void
addNet(Snapshot &out, int i, const Network &net)
{
    StatGroup sg;
    net.exportStats(sg, "net" + std::to_string(i));
    addGroup(out, "", sg);
}

SystemConfig
config(Scheme s)
{
    SystemConfig sc;
    sc.scheme = s;
    sc.design.mcts.iterationsPerLevel = 80;
    sc.design.polishPasses = 1;
    // Lands in the memory-bound stretch, while PEs sit parked on
    // refused injections and full windows.
    sc.warmupCycles = 400;
    return sc;
}

WorkloadProfile
profile()
{
    WorkloadProfile wp = workloadByName("bfs");
    wp.instsPerPe = 600;
    return wp;
}

/**
 * Run System and the reference to completion (or @p max_cycles) and
 * compare every counter.
 */
void
expectExact(Scheme s, Cycle max_cycles)
{
    SystemConfig sc = config(s);
    sc.maxCycles = max_cycles;
    System sys(sc, profile());
    EveryCycleSystem ref(sc, profile());
    while (!sys.finished() && sys.now() < sc.maxCycles)
        sys.step();
    while (!ref.finished() && ref.now() < sc.maxCycles)
        ref.step();
    RunResult r = sys.run(); // collect only; settles parked counters
    EXPECT_EQ(r.completed, ref.finished());
    EXPECT_EQ(sys.now(), ref.now());

    Snapshot got, want;
    ASSERT_EQ(sys.numPes(), static_cast<int>(ref.pes().size()));
    for (int i = 0; i < sys.numPes(); ++i) {
        addPe(got, i, sys.pe(i));
        addPe(want, i, *ref.pes()[static_cast<std::size_t>(i)]);
    }
    for (int i = 0; i < sys.numCacheBanks(); ++i) {
        addGroup(got, "cb." + std::to_string(i) + ".",
                 sys.cacheBank(i).stats());
        addGroup(want, "cb." + std::to_string(i) + ".",
                 ref.cbs()[static_cast<std::size_t>(i)]->stats());
    }
    for (int i = 0; i < sys.numNetworks(); ++i) {
        addNet(got, i, sys.network(i));
        addNet(want, i, *ref.nets()[static_cast<std::size_t>(i)]);
    }
    ASSERT_EQ(got.size(), want.size());
    int shown = 0;
    for (const auto &[k, v] : want) {
        auto it = got.find(k);
        ASSERT_NE(it, got.end()) << k;
        if (it->second != v && shown++ < 10)
            ADD_FAILURE() << schemeName(s) << " " << k << ": " << it->second
                          << " != " << v;
    }
    // The stall counters the parked spans replay must be live here.
    std::uint64_t stalls = 0;
    for (int i = 0; i < sys.numPes(); ++i)
        stalls += static_cast<std::uint64_t>(
            sys.pe(i).stats().get("stall_inject") +
            sys.pe(i).stats().get("stall_window"));
    EXPECT_GT(stalls, 0u) << schemeName(s);
}

TEST(PeParking, MatchesEveryCycleTicking_SeparateBase)
{
    expectExact(Scheme::SeparateBase, 2'000'000);
}

TEST(PeParking, MatchesEveryCycleTicking_EquiNox)
{
    expectExact(Scheme::EquiNox, 2'000'000);
}

TEST(PeParking, MatchesEveryCycleTicking_DA2Mesh)
{
    expectExact(Scheme::Da2Mesh, 2'000'000);
}

TEST(PeParking, MatchesEveryCycleTickingWhenCutByMaxCycles)
{
    // Cut mid-run: PEs, NIs and routers are still parked when run()
    // collects, so their skipped spans must be settled first.
    expectExact(Scheme::SeparateBase, 1500);
    expectExact(Scheme::EquiNox, 1500);
}

} // namespace
} // namespace eqx
