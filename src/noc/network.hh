/**
 * @file
 * A complete mesh network: routers, channels, NIs and statistics.
 * One Network models one physical NoC; full-system schemes compose
 * several (request + reply, CMesh overlay, DA2Mesh subnets).
 */

#ifndef EQX_NOC_NETWORK_HH
#define EQX_NOC_NETWORK_HH

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"
#include "fault/fault_model.hh"
#include "fault/fault_plane.hh"
#include "noc/channel.hh"
#include "noc/network_interface.hh"
#include "noc/packet.hh"
#include "noc/params.hh"
#include "noc/router.hh"

namespace eqx {

/** NI microarchitecture choice per node. */
enum class NiKind : std::uint8_t { Basic, MultiPort, EquiNox };

/** Per-node structural customization. */
struct NodeMods
{
    NiKind kind = NiKind::Basic;
    int localInjPorts = 1; ///< >1 for MultiPort CB routers
    int localEjPorts = 1;  ///< >1 for MultiPort CB routers
};

/** Build-time description of one network. */
struct NetworkSpec
{
    NocParams params;
    /** Nodes that deviate from the default Basic 1-inj/1-ej NI. */
    std::map<NodeId, NodeMods> mods;
    /**
     * EquiNox EIR groups: CB node -> its equivalent injection routers.
     * Implies an EquiNoxNi at the CB and an extra RemoteInj input port
     * on every listed EIR, connected by a 1-cycle interposer channel.
     */
    std::map<NodeId, std::vector<NodeId>> eirGroups;
};

/**
 * The network proper. Owns all hardware, advances on coreTick(), and
 * exposes injection/ejection endpoints plus statistics.
 *
 * The internal tick loop is activity-driven (DESIGN.md §10): routers
 * and NIs sit on per-network active sets and are only visited while
 * a visit can change something. A drained component leaves the set,
 * and so does one that backpressure blocks (a router starved of
 * credits, an NI that moved nothing): it parks until the flit, credit
 * or inject() that can move it, and the counters its skipped visits
 * would have bumped are settled exactly. Channel arrivals are drained
 * through a pending-wire event wheel instead of scanning every wire.
 * An idle mesh costs O(active components), not O(routers + wires).
 * Visits run in ascending component index, so outcomes equal a walk
 * over every component; activeSetsConsistent() and
 * Router::pipelineStateConsistent() check the sets against that
 * predicate.
 */
class Network : private FaultPlaneHost
{
  public:
    explicit Network(const NetworkSpec &spec);

    Network(const Network &) = delete;
    Network &operator=(const Network &) = delete;

    const NocParams &params() const { return params_; }
    const Topology &topology() const { return *topo_; }

    /** Advance by one core clock cycle (runs 1+ internal ticks). */
    void coreTick(Cycle core_cycle);

    /** Endpoint API. */
    bool inject(NodeId node, const PacketPtr &pkt);
    bool canInject(NodeId node) const;
    void setSink(NodeId node, PacketSink *sink);
    /** The sink wired at @p node, or nullptr. Tick-time calls into
     *  sinks are this network's only reach beyond itself (besides
     *  core-slot wakes), so System reads the wiring to decide which
     *  networks may tick on separate threads (DESIGN.md §8). */
    PacketSink *
    sink(NodeId node) const
    {
        return nis_[static_cast<std::size_t>(node)]->sink();
    }
    /** Fire @p w whenever a core-queue slot of @p node's NI frees. */
    void
    watchCoreSlots(NodeId node, const WakeBit &w)
    {
        nis_[static_cast<std::size_t>(node)]->watchCoreSlots(w);
    }

    /** Statistics. */
    const NetworkActivity &activity() const { return activity_; }
    const LatencyStats &latency() const { return latency_; }
    Cycle currentTick() const { return tick_; }

    /**
     * Clear every measurement accumulator (activity, latency, per
     * router, per NI) without touching simulation state; called at the
     * warmup/measurement boundary so reported stats exclude cold-start
     * transients.
     */
    void resetStats();

    /**
     * Fold the credit stalls parked NIs have skipped so far into their
     * buffers' creditStallTicks, so plain field reads are exact. The
     * network's own exports (and every Router reader) count them
     * without this.
     */
    void settleParkedStats();

    /**
     * Flatten the per-router / per-port / per-NI observability
     * counters into @p sg, each key prefixed "<prefix>." (DESIGN.md §9
     * documents the schema).
     */
    void exportStats(StatGroup &sg, const std::string &prefix) const;

    /** Per-router mean flit residence (Fig. 4 heat maps). */
    std::vector<double> routerResidenceMeans() const;
    /** Population variance of the per-router residence means. */
    double residenceVariance() const;

    /** True when no flit is buffered or in flight anywhere. */
    bool drained() const;

    int numRouters() const { return static_cast<int>(routers_.size()); }
    const Router &router(NodeId n) const
    {
        return routers_[static_cast<std::size_t>(n)];
    }
    const NetworkInterface &ni(NodeId n) const
    {
        return *nis_[static_cast<std::size_t>(n)];
    }

    /** Total extra (RemoteInj) ports added for EIRs. */
    int numRemoteInjPorts() const { return remoteInjPorts_; }

    /**
     * Arm fault injection (DESIGN.md §11): register every injection
     * wire with a new FaultPlane, resolve @p cfg's schedule against
     * them under @p seed, and attach the recovery protocol to all NIs.
     * Must run before the first tick; a disabled config is a no-op, so
     * un-faulted runs stay bit-identical to a build without faults.
     * @p name tags this network for FaultEvent::net filtering.
     */
    void armFaults(const FaultConfig &cfg, const std::string &name,
                   std::uint64_t seed);
    /** The armed fault plane, or nullptr. */
    const FaultPlane *faultPlane() const { return plane_.get(); }
    bool faultArmed() const { return plane_ != nullptr; }
    /** Injection buffers currently masked by fault detection. */
    int maskedInjBuffers() const;

    /**
     * Activity-scheduler invariant check (tests): a router or NI off
     * its active set must be drained, or parked with its next visit
     * still a no-op; the parked counts must match. Probes each parked
     * NI's dispatch policy (side-effect free when it fails).
     */
    bool activeSetsConsistent();

  private:
    void internalTick();
    void deliver();
    /** Fail with a diagnosis when parked routers can never be woken:
     *  nothing is active and nothing is in flight. */
    void checkParkedProgress() const;

    // FaultPlaneHost: out-of-band recovery events land on the NIs. No
    // activation is needed — an NI with protocol state in flight is
    // non-idle and therefore already on the active set.
    void faultDeliverAck(NodeId ni, NodeId peer,
                         std::uint32_t seq) override;
    void faultReturnCredit(NodeId ni, int buf, int vc) override;
    void faultMaskBuffer(NodeId ni, int buf) override;

    Router &routerRef(NodeId n)
    {
        return routers_[static_cast<std::size_t>(n)];
    }

    NocParams params_;
    /** The fabric geometry (DESIGN.md §17), built from params_.topo. */
    std::unique_ptr<const Topology> topo_;
    NetworkActivity activity_;
    LatencyStats latency_;

    /** Contiguous router arena: reserved once at construction (never
     *  resized, so element addresses are stable) and referenced by
     *  index from the wire tables — the delivery and stage loops walk
     *  one flat allocation instead of chasing per-router pointers. */
    std::vector<Router> routers_;
    std::vector<std::unique_ptr<NetworkInterface>> nis_;

    /** Channel arenas: deques give stable element addresses (ports
     *  hold raw pointers) while packing several channels per block,
     *  so the per-send channel-object touch usually stays in cache. */
    std::deque<Channel<Flit>> flitChans_;
    std::deque<Channel<Credit>> creditChans_;

    /** Wire tags index these tables: router-bound tags are the plain
     *  index, NI-bound tags carry kNiWire on top of theirs. */
    static constexpr std::uint32_t kNiWire = std::uint32_t{1} << 31;
    struct RouterFlitWire { int router; int port; };
    struct NiFlitWire { int ni; int ejPort; };
    struct RouterCreditWire { int router; int port; };
    struct NiCreditWire { int ni; int buf; };

    std::vector<RouterFlitWire> routerFlitWires_;
    std::vector<NiFlitWire> niFlitWires_;
    std::vector<RouterCreditWire> routerCreditWires_;
    std::vector<NiCreditWire> niCreditWires_;

    /** One NI-to-router injection wire: the fault domain (DESIGN.md
     *  §11.1). Recorded at construction so armFaults() can register
     *  them with the plane in deterministic build order. */
    struct InjWire
    {
        std::uint32_t wire;    ///< index into routerFlitWires_
        NodeId ni;
        int buf;               ///< NI injection-buffer index
        NodeId router;
        bool interposer;       ///< EIR link (ubump/RDL structure)
        int spanHops;
        Cycle creditLatency;
    };
    std::vector<InjWire> injWires_;

    std::unique_ptr<FaultPlane> plane_;
    /** routerFlitWires_ index -> plane wire id, or -1 (mesh links and
     *  any wire while un-armed are outside the fault domain). */
    std::vector<int> wireFault_;

    // ---- Activity-driven scheduling (DESIGN.md §10) ----
    /**
     * Active sets, one bit per router / NI. Iteration is by ascending
     * index, the same component order as a full walk — required so
     * per-network stat accumulators see samples in a fixed order.
     */
    ActiveSet activeRouters_;
    ActiveSet activeNis_;
    /** Components off their set but holding work (Router::parked(),
     *  NetworkInterface::parked()). */
    int parkedRouters_ = 0;
    int parkedNis_ = 0;

    /**
     * Pending-wire event wheel: slot (tick & wheelMask_) holds the
     * flits and credits arriving that tick, appended by Channel::send
     * in send order; deliver() drains the current slot, so idle wires
     * are never visited. Size is a power of two greater than the
     * largest channel latency, so a send never lands in the slot being
     * delivered.
     */
    std::vector<WheelSlot> pendingWheel_;
    std::uint32_t wheelMask_ = 0;
    /** Fault-armed delivery scratch: flits a stalled wire withholds
     *  this tick, moved to the front of the next slot. */
    std::vector<FlitWheelEvent> withheld_;

    Cycle tick_ = 0;
    Cycle coreCycle_ = 0;
    int remoteInjPorts_ = 0;
};

} // namespace eqx

#endif // EQX_NOC_NETWORK_HH
