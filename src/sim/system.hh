/**
 * @file
 * The full interposer-based throughput processor: PEs with L1s, the
 * NoC scheme under test, cache banks with their HBM stacks, and the
 * cycle loop that runs one benchmark to completion.
 */

#ifndef EQX_SIM_SYSTEM_HH
#define EQX_SIM_SYSTEM_HH

#include <array>
#include <memory>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "gpu/endpoint.hh"
#include "power/power_model.hh"
#include "sim/layers.hh"
#include "sim/scheme.hh"
#include "traffic/trace_io.hh"
#include "traffic/traffic_model.hh"
#include "workloads/profiles.hh"

namespace eqx {

class SchemeModel;

/** Aggregated outcome of one (scheme, benchmark) run. */
struct RunResult
{
    bool completed = false;  ///< drained before maxCycles
    Cycle cycles = 0;
    double execNs = 0;
    std::uint64_t totalInsts = 0;
    double ipc = 0;

    double energyPj = 0;
    EnergyBreakdown energy;
    double edp = 0;          ///< pJ * ns
    double areaMm2 = 0;

    // NoC latency decomposition (ns, per packet, averaged).
    double reqQueueNs = 0;
    double reqNetNs = 0;
    double repQueueNs = 0;
    double repNetNs = 0;
    std::uint64_t reqPackets = 0;
    std::uint64_t repPackets = 0;

    std::uint64_t requestBits = 0;
    std::uint64_t replyBits = 0;

    // Total-latency percentiles per class (ns), from the per-network
    // histograms; 0 when the class saw no packets.
    double reqP50Ns = 0, reqP95Ns = 0, reqP99Ns = 0;
    double repP50Ns = 0, repP95Ns = 0, repP99Ns = 0;

    /**
     * Heaviest injection point of the EquiNox reply network: max over
     * every CB NI injection buffer (local + EIRs) of packets injected.
     * The measured counterpart of the MCTS evaluator's maxLoad metric;
     * 0 for non-EquiNox schemes.
     */
    std::uint64_t maxEirLoadPackets = 0;

    // Fault/recovery aggregates over every network (DESIGN.md §11);
    // all zero unless SystemConfig::fault was enabled.
    bool faultArmed = false;
    bool degraded = false;    ///< fault detection masked >= 1 port
    std::uint64_t faultSeqPackets = 0;
    std::uint64_t faultDelivered = 0;
    std::uint64_t faultDuplicates = 0;
    std::uint64_t faultRetx = 0;
    std::uint64_t faultLost = 0;
    std::uint64_t faultWormsDropped = 0;
    std::uint64_t faultFlitsDropped = 0;
    std::uint64_t faultCreditsReconciled = 0;
    int faultMaskedPorts = 0;

    // Open-loop storm aggregates over every storm endpoint (traffic
    // model storm-*, DESIGN.md §16); all zero unless the run replaced
    // its PEs with rate-driven endpoints.
    bool stormArmed = false;
    std::uint64_t stormOffered = 0;   ///< arrivals the profile generated
    std::uint64_t stormInjected = 0;  ///< accepted by the NIs
    std::uint64_t stormDelivered = 0; ///< replies returned
    std::uint64_t stormDropped = 0;   ///< backlog-full losses

    // Coherence-style traffic aggregates (traffic model "coherence").
    bool cohArmed = false;
    std::uint64_t cohInvalidations = 0; ///< Invalidates multicast by CBs
    std::uint64_t cohInvAcks = 0;       ///< InvAcks returned to CBs

    /**
     * Full observability snapshot (per-router, per-port, per-NI-buffer
     * counters, DESIGN.md §9); populated only when
     * SystemConfig::collectMetrics is set.
     */
    StatGroup metrics;

    double totalLatencyNs() const
    {
        return reqQueueNs + reqNetNs + repQueueNs + repNetNs;
    }
};

/**
 * One complete simulated system. Construct with a scheme config and a
 * workload; call run(); inspect the RunResult and the raw components.
 */
class System
{
  public:
    System(const SystemConfig &config, const WorkloadProfile &profile);
    ~System();

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /**
     * Execute the workload to completion (or maxCycles), one step() per
     * core cycle. Settles the stall counters of parked PEs and NIs
     * first, so every counter read after run() is exact, and a caller
     * that calls step() until finished() and then run() to collect
     * gets the same RunResult.
     */
    RunResult run();

    /** Advance one core cycle (exposed for tests). */
    void step();
    bool finished() const;
    Cycle now() const { return cycle_; }

    /** A no-op that returns 0. It exists only because the frozen
     *  e2e_bench program calls it; run() steps every cycle and the
     *  active sets carry idleness (DESIGN.md §10, §14). */
    Cycle maybeSkip() { return 0; }

    /**
     * Reset every NoC measurement accumulator (propagates through the
     * networks to routers, NIs, latency and activity stats). step()
     * invokes this automatically when the configured warmupCycles
     * boundary is crossed; exposed for tests and custom drivers.
     */
    void resetStats();

    /** Has the configured CancelToken fired? (latched by step()). */
    bool cancelled() const { return cancelled_; }

    /** NoC area of this scheme instance (no simulation needed). */
    double areaMm2() const;

    const std::vector<Coord> &cbPlacement() const { return cbCoords_; }
    int numNetworks() const { return static_cast<int>(nets_.all().size()); }
    const Network &network(int i) const { return *nets_.all()[i]; }
    int numPes() const { return static_cast<int>(pes_.all().size()); }
    const ProcessingElement &pe(int i) const { return *pes_.all()[i]; }
    const CacheBank &cacheBank(int i) const { return *cbs_.all()[i]; }
    int numCacheBanks() const { return static_cast<int>(cbs_.all().size()); }
    const EquiNoxDesign *design() const { return designUsed_; }

    /** The SchemeModel this system was built from. */
    const SchemeModel &schemeModel() const { return *model_; }

    /**
     * Do the request network (network(0)) and the reply group (the
     * rest) meet only at endpoints? True when every sink wired to any
     * network is one of this system's PEs, CBs or storm endpoints and
     * no sink of the request network is wired to another network
     * (DESIGN.md §8). Forwarding sinks, shared sinks and one-network
     * systems answer false.
     */
    bool networkGroupsDisjoint() const;

    /**
     * Do the two lanes of the endpoint phase inject into disjoint
     * networks? The helper's lane holds the storm endpoints, the
     * caller's the CBs and PEs (DESIGN.md §8); false when some network
     * is reached by an injector of each, as with one network, or with
     * the CMesh overlay chooser, which reaches both. Trivially true
     * when one lane injects nowhere, as the helper's does without
     * storm endpoints.
     */
    bool endpointLanesDisjoint() const;

    /** Does step() use a second thread? Decided at construction: the
     *  network groups and the endpoint lanes must be disjoint, and
     *  StepRunner::overlap() must allow a second thread (DESIGN.md
     *  §8). */
    bool overlapsNetworks() const { return runner_.overlaps(); }

  private:
    void buildPlacement();
    void buildNetworks();
    void buildEndpoints(const WorkloadProfile &profile);
    void collect(RunResult &out) const;
    /** Replay the skipped ticks of parked PEs and NIs into their
     *  counters (DESIGN.md §10). */
    void settleParkedStats();

    SystemConfig cfg_;
    const SchemeModel *model_; ///< registry-owned, resolved once
    PowerModel power_;

    std::vector<Coord> cbCoords_;
    std::vector<NodeId> cbNodes_; ///< cbCoords_ as tile node ids
    AddressMap amap_;

    EquiNoxDesign ownedDesign_;       ///< when the flow runs in-system
    const EquiNoxDesign *designUsed_ = nullptr;

    /** The step's schedule (DESIGN.md §8): the network phase, then
     *  the endpoint phase. Declared before the layers, so its helper
     *  thread, whose packet arena the layers' packets may come from,
     *  outlives them and every other packet holder. */
    StepRunner runner_;
    /** The clocked layers, declared in serial tick order. */
    NetworkGroup nets_;
    CacheBankLayer cbs_;
    PeLayer pes_;
    StormLayer storms_;
    /** What finished(), resetStats() and settleParkedStats() walk. */
    const std::array<ClockedLayer *, 4> layers_{&nets_, &cbs_, &pes_,
                                                &storms_};
    /** Every endpoint's injector, by the endpoint-phase lane that
     *  ticks the endpoint: [0] the helper's, [1] the caller's. */
    std::array<std::vector<std::unique_ptr<PacketInjector>>, 2> injectors_;
    std::vector<std::unique_ptr<PacketSink>> overlaySinks_;
    std::vector<PacketSink *> tileSinks_; ///< tile id -> endpoint

    // Traffic model state (DESIGN.md §16): the instance built for this
    // run, plus the trace capture/replay plumbing when trace= is set.
    std::unique_ptr<TrafficInstance> traffic_;
    std::unique_ptr<TraceData> replay_;
    std::unique_ptr<TraceCapture> capture_;
    std::string capturePath_;

    Cycle cycle_ = 0;
    bool cancelled_ = false;
};

} // namespace eqx

#endif // EQX_SIM_SYSTEM_HH
