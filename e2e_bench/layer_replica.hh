/**
 * @file
 * Layer-attribution replica of one System run. It builds the same
 * components System builds, through the same public hooks
 * (SchemeModel::placeCbs / networkSpecs / makeInjector / wireSinks and
 * the TrafficRegistry model), then ticks them in System::step's order
 * — networks, cache banks, PEs, storm endpoints — without time
 * skipping, reading the clock once after each layer's tick calls. The
 * caller checks the replica's cycles, instructions and per-network
 * flits against the System run before trusting the layer times.
 */

#ifndef EQX_E2E_BENCH_LAYER_REPLICA_HH
#define EQX_E2E_BENCH_LAYER_REPLICA_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/system.hh"

namespace eqx {

/** Host nanoseconds each layer's tick calls took, summed over cycles. */
struct LayerTimes
{
    std::vector<double> netNs; ///< one per network, System build order
    double cbNs = 0;
    double peNs = 0;
    double stormNs = 0;
    double cycleNs = 0; ///< whole cycles, including the drain check
    std::uint64_t cycles = 0;
};

class LayerReplica
{
  public:
    /** Fault-armed and trace capture/replay configs are refused. */
    LayerReplica(const SystemConfig &config, const WorkloadProfile &profile);
    ~LayerReplica();

    LayerReplica(const LayerReplica &) = delete;
    LayerReplica &operator=(const LayerReplica &) = delete;

    /** Tick to drain (or maxCycles), adding the layer spans to @p t. */
    void run(LayerTimes &t);

    Cycle cycles() const { return cycle_; }
    std::uint64_t insts() const;
    int numNetworks() const { return static_cast<int>(nets_.size()); }
    const Network &network(int i) const { return *nets_[i]; }

  private:
    bool finished() const;

    SystemConfig cfg_;
    const SchemeModel *model_;

    std::vector<Coord> cbCoords_;
    std::vector<NodeId> cbNodes_;
    AddressMap amap_;
    EquiNoxDesign ownedDesign_;
    const EquiNoxDesign *designUsed_ = nullptr;

    // Declared in System's member order so teardown matches it too.
    std::vector<std::unique_ptr<Network>> nets_;
    std::vector<std::unique_ptr<ProcessingElement>> pes_;
    std::vector<std::unique_ptr<CacheBank>> cbs_;
    std::vector<std::unique_ptr<StormEndpoint>> storms_;
    std::vector<std::unique_ptr<PacketInjector>> injectors_;
    std::vector<std::unique_ptr<PacketSink>> overlaySinks_;
    std::vector<PacketSink *> tileSinks_;
    std::unique_ptr<TrafficInstance> traffic_;

    Cycle cycle_ = 0;
};

/** Flits injected into @p net, summed over every NI buffer. */
std::uint64_t networkFlits(const Network &net);

} // namespace eqx

#endif // EQX_E2E_BENCH_LAYER_REPLICA_HH
