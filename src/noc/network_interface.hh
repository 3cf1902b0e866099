/**
 * @file
 * Network interfaces: the boundary between endpoints (PEs, cache
 * banks) and the routers. Three injection-side microarchitectures are
 * modelled (paper Section 4.4):
 *
 *  - BasicNi: a single injection buffer feeding the local router;
 *  - MultiPortNi: k single-packet buffers all feeding extra injection
 *    ports of the *local* router (the MultiPort comparison scheme);
 *  - EquiNoxNi: five single-packet buffers — four feeding remote EIRs
 *    over 1-cycle interposer links plus one feeding the local router —
 *    steered by the paper's "Buffer Selection 1" policy.
 */

#ifndef EQX_NOC_NETWORK_INTERFACE_HH
#define EQX_NOC_NETWORK_INTERFACE_HH

#include <deque>
#include <map>
#include <set>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "fault/fault_plane.hh"
#include "noc/channel.hh"
#include "noc/packet.hh"
#include "noc/params.hh"
#include "noc/router.hh"
#include "noc/vc_buffer.hh"

namespace eqx {

/** Endpoint-side consumer of packets leaving the network at a node. */
class PacketSink
{
  public:
    virtual ~PacketSink() = default;
    /** May the NI hand over this packet right now? */
    virtual bool canAccept(const PacketPtr &pkt) = 0;
    /** Take ownership of a fully reassembled packet. */
    virtual void accept(const PacketPtr &pkt, Cycle core_now) = 0;
};

/** Per-class latency accumulators for one network (in network ticks). */
struct LatencyStats
{
    /** Histogram geometry: 4-tick buckets tracking up to 1024 ticks;
     *  longer latencies land in the overflow bucket and percentiles
     *  saturate at the range edge. */
    static constexpr double kHistBucketTicks = 4.0;
    static constexpr int kHistBuckets = 256;

    RunningStat queueLat[2];   ///< [0]=request, [1]=reply
    RunningStat netLat[2];
    RunningStat totalLat[2];
    /** Per-class total-latency distributions (p50/p95/p99 exports). */
    Histogram totalHist[2] = {
        Histogram(kHistBucketTicks, kHistBuckets),
        Histogram(kHistBucketTicks, kHistBuckets),
    };
    std::uint64_t packets[2] = {0, 0};

    static int classIdx(PacketType t) { return isRequest(t) ? 0 : 1; }

    void
    reset()
    {
        for (int c = 0; c < 2; ++c) {
            queueLat[c].reset();
            netLat[c].reset();
            totalLat[c].reset();
            totalHist[c].reset();
            packets[c] = 0;
        }
    }
};

/**
 * Base NI: ejection reassembly (common to all variants) plus a
 * dispatch/serialize injection engine over one or more buffers.
 */
class NetworkInterface
{
  public:
    /** One injection buffer and its serializer onto a router port. */
    struct InjBuffer
    {
        std::deque<PacketPtr> queue;
        int capacityPackets = 1;
        Channel<Flit> *out = nullptr;   ///< to a router injection port
        bool interposer = false;        ///< EIR link (energy accounting)
        NodeId targetRouter = kInvalidNode;
        Coord targetCoord;              ///< cached for buffer selection
        /** Fault detection masked this port: selectBuffer policies
         *  must route around it (DESIGN.md §11.4). */
        bool masked = false;

        PacketPtr current;              ///< packet mid-serialization
        int numFlits = 0;
        int flitsSent = 0;
        int vc = -1;                    ///< granted router input VC
        std::vector<int> credits;       ///< per-VC credits at the port

        // Per-buffer load observability: injected traffic through this
        // injection point (the simulated analogue of the MCTS
        // evaluator's per-EIR load), plus ticks spent credit-starved.
        std::uint64_t packetsInjected = 0;
        std::uint64_t flitsInjected = 0;
        std::uint64_t creditStallTicks = 0;

        bool
        availableForDispatch() const
        {
            return !current &&
                   static_cast<int>(queue.size()) < capacityPackets;
        }
        bool idle() const { return !current && queue.empty(); }
    };

    /** One ejection port fed by a router LocalEj output. */
    struct EjPort
    {
        std::vector<VcBuffer> vcs;
        Channel<Credit> *creditUp = nullptr;
        RoundRobinArbiter arb;
    };

    NetworkInterface(NodeId node, const Topology *topo,
                     const NocParams *params, NetworkActivity *activity,
                     LatencyStats *latency);
    virtual ~NetworkInterface() = default;

    NodeId node() const { return node_; }

    /** Wire an injection buffer (construction time). @return index. */
    int addInjBuffer(int capacity_packets, Channel<Flit> *out,
                     NodeId target_router, bool interposer);
    /** Wire an ejection port. @return index. */
    int addEjPort(Channel<Credit> *credit_up);

    /** Endpoint call: enqueue a packet for injection. */
    bool inject(const PacketPtr &pkt, Cycle now_ticks);
    /** Space available in the NI core queue? */
    bool canInject() const;

    void setSink(PacketSink *sink) { sink_ = sink; }
    PacketSink *sink() const { return sink_; }

    /** Credit returned by the router for injection buffer @p buf. */
    void creditArrived(int buf, int vc);

    // ---- Fault-recovery protocol (active only when a plane is
    // attached; see DESIGN.md §11.3) ----
    /** Arm the end-to-end protocol: inject() stamps sequence numbers
     *  and opens retransmission records, ejection acks and dedups. */
    void attachFaultPlane(FaultPlane *plane) { plane_ = plane; }
    /** End-to-end ack from @p peer: close the (peer, seq) record. */
    void ackArrived(NodeId peer, std::uint32_t seq);
    /** Fault detection: stop dispatching to injection buffer @p buf. */
    void maskBuffer(int buf);
    int maskedBuffers() const { return maskedBufs_; }

    /** Flit arriving from a router ejection port. */
    void acceptEjectedFlit(int ej_port, Flit f);

    /**
     * Run one network tick: ejection, sink delivery, injection.
     * @return true when it moved anything: popped an ejection VC,
     * handed a packet to the sink, dispatched from the core queue,
     * started serializing a queued packet or sent a flit.
     */
    bool tick(Cycle now_ticks, Cycle core_now);

    /** True when nothing is queued, mid-flight or awaiting delivery. */
    bool idle() const;

    /**
     * Park after a tick at @p now_ticks that moved nothing (DESIGN.md
     * §10). The next tick would then repeat it exactly, until a credit,
     * an inject() or an ejected flit changes the state. Never with a
     * fault plane attached (its timers run every tick) or with packets
     * awaiting the sink. @return true when the NI parked.
     */
    bool
    tryPark(Cycle now_ticks)
    {
        if (plane_ || !delivered_.empty())
            return false;
        parkedAt_ = now_ticks;
        return true;
    }

    bool parked() const { return parkedAt_ != kNeverCycle; }

    /** Back on the active set for the tick at @p now_ticks: replay the
     *  credit stalls of the ticks the park skipped. */
    void
    unpark(Cycle now_ticks)
    {
        settleParked(now_ticks - 1);
        parkedAt_ = kNeverCycle;
    }

    /** Fold the stalls of the skipped ticks up to @p through into the
     *  buffers' creditStallTicks, so a plain field read is exact. */
    void settleParked(Cycle through);

    /** injBuffer(@p buf).creditStallTicks plus the stalls a park has
     *  skipped up to tick @p now. */
    std::uint64_t creditStallTicks(int buf, Cycle now) const;

    /**
     * Parked-state check (tests): a parked NI must hold no ejection
     * flit, and its next tick must dispatch, start and send nothing.
     * Calls selectBuffer(), which has no side effect when it fails.
     */
    bool parkHolds();

    /** Fire @p w whenever a core-queue slot frees: the endpoints an
     *  inject() refusal parked wait for this. */
    void watchCoreSlots(const WakeBit &w) { slotWakers_.push_back(w); }

    int numInjBuffers() const { return static_cast<int>(bufs_.size()); }
    const InjBuffer &injBuffer(int i) const
    {
        return bufs_[static_cast<std::size_t>(i)];
    }

    /** Clear per-buffer load counters (warmup boundary at tick
     *  @p now_ticks). */
    void resetStats(Cycle now_ticks = 0);

  protected:
    /**
     * Pick the injection buffer for the packet at the head of the core
     * queue, or -1 to retry next tick. Variants implement the policy.
     */
    virtual int selectBuffer(const PacketPtr &pkt) = 0;

    /** Allowed VC window for a class (classVcs networks). */
    void allowedVcs(PacketType t, int &lo, int &hi) const;

    NodeId node_;
    const Topology *topo_;
    const NocParams *params_;
    NetworkActivity *activity_;
    LatencyStats *latency_;

    std::deque<PacketPtr> coreQueue_;
    std::vector<InjBuffer> bufs_;
    std::vector<EjPort> ejPorts_;
    std::deque<PacketPtr> delivered_;
    PacketSink *sink_ = nullptr;
    FaultPlane *plane_ = nullptr;
    int maskedBufs_ = 0;

  private:
    /** One un-acked packet awaiting a possible retransmission. The
     *  record snapshots the fields needed to rebuild a clone, so a
     *  retransmit never aliases packet state an endpoint or stale
     *  in-network flit might still reference. */
    struct RetxRecord
    {
        NodeId peer = kInvalidNode; ///< destination NI
        std::uint32_t seq = 0;
        PacketType type = PacketType::ReadRequest;
        NodeId src = kInvalidNode;
        NodeId dst = kInvalidNode;
        NodeId finalDst = kInvalidNode;
        int bits = 0;
        Addr addr = 0;
        std::uint64_t tag = 0;
        Cycle created = 0;     ///< first-attempt timestamp (latency)
        Cycle deadline = 0;
        Cycle timeout = 0;     ///< current (backed-off) timeout
        int attempts = 0;      ///< retransmissions performed
    };

    /** Receive-side dedup window per source NI: everything below
     *  lowWater was delivered; out-of-order arrivals sit in `sparse`
     *  until the window closes behind them, keeping the set tiny. */
    struct SeqTracker
    {
        std::uint32_t lowWater = 0;
        std::set<std::uint32_t> sparse;

        /** @return true when first seen (deliver), false on a dup. */
        bool
        insert(std::uint32_t s)
        {
            if (s < lowWater)
                return false;
            if (!sparse.insert(s).second)
                return false;
            while (!sparse.empty() && *sparse.begin() == lowWater) {
                sparse.erase(sparse.begin());
                ++lowWater;
            }
            return true;
        }
    };

    // Each returns true when it moved anything (see tick()).
    bool tickEjection(Cycle now_ticks);
    bool tickInjection(Cycle now_ticks);
    bool serializeBuffer(int buf, Cycle now_ticks);
    /** Expire / retransmit overdue protocol records. */
    void tickResilience(Cycle now_ticks);

    /// Scratch list of occupied eject VCs, reused across ticks so the
    /// per-port arbitration allocates nothing on the hot path.
    std::vector<int> ejReqs_;

    /** The tick that parked this NI, or kNeverCycle. */
    Cycle parkedAt_ = kNeverCycle;
    /** Buffers that credit-stalled in the last tick: a park replays
     *  one stall tick each per skipped tick. */
    std::uint32_t stalledBufs_ = 0;
    /** Fired when a core-queue slot frees (watchCoreSlots()). */
    std::vector<WakeBit> slotWakers_;

    // Protocol state (allocated lazily; empty unless plane_ is set).
    std::map<NodeId, std::uint32_t> nextSeq_; ///< per-destination
    std::vector<RetxRecord> retx_;
    std::map<NodeId, SeqTracker> seen_;       ///< per-source dedup
};

/** Single-buffer NI (baseline for PEs and non-EquiNox CBs). */
class BasicNi : public NetworkInterface
{
  public:
    using NetworkInterface::NetworkInterface;

  protected:
    int selectBuffer(const PacketPtr &pkt) override;
};

/** k buffers round-robined onto k local injection ports (MultiPort). */
class MultiPortNi : public NetworkInterface
{
  public:
    using NetworkInterface::NetworkInterface;

  protected:
    int selectBuffer(const PacketPtr &pkt) override;

  private:
    int rr_ = 0;
};

/**
 * The EquiNox CB NI: buffer 0 is the local router, buffers 1..n are
 * EIRs reached over interposer links. Dispatch follows the paper's
 * Buffer Selection 1 policy: only shortest-path EIRs are eligible;
 * quadrant destinations round-robin between the two eligible EIRs;
 * fall back to the local buffer; otherwise retry next cycle.
 *
 * Fail-over (DESIGN.md §11.4): when fault detection masks EIR ports,
 * unmasked shortest-path EIRs keep the legacy policy; once every
 * shortest-path EIR is masked, dispatch rotates round-robin over all
 * surviving EIRs — the equivalence property doing real work: any
 * surviving EIR is still a valid injection point, at the cost of a
 * non-minimal first hop. With every EIR masked, traffic degrades to
 * the local port.
 */
class EquiNoxNi : public NetworkInterface
{
  public:
    using NetworkInterface::NetworkInterface;

  protected:
    int selectBuffer(const PacketPtr &pkt) override;

  private:
    int rr_ = 0;
    /** Separate rotation cursor for degraded-mode fail-over so the
     *  un-masked policy's rr_ sequence stays bit-identical. */
    int failRr_ = 0;
};

} // namespace eqx

#endif // EQX_NOC_NETWORK_INTERFACE_HH
