/**
 * @file
 * Input-queued virtual-channel router with a two-stage pipeline
 * (RC+VA, SA+ST), credit-based flow control, atomic VC buffers and
 * separable input-first allocation — a BookSim-class model.
 *
 * Port layout is flexible: besides the four mesh directions and the
 * local NI port, a router may carry extra injection input ports (the
 * EIR extra port of EquiNox, or MultiPort's additional ports) and
 * extra ejection output ports (MultiPort).
 */

#ifndef EQX_NOC_ROUTER_HH
#define EQX_NOC_ROUTER_HH

#include <bit>
#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "noc/arbiter.hh"
#include "noc/channel.hh"
#include "noc/packet.hh"
#include "noc/params.hh"
#include "noc/topology.hh"

namespace eqx {

/** Allocation state of one input VC. */
enum class VcState : std::uint8_t
{
    Idle,           ///< no packet resident
    RouteComputed,  ///< head flit routed, waiting for VC allocation
    Active,         ///< output VC granted, flits competing for the switch
};

/** What a router port connects to. */
enum class PortKind : std::uint8_t
{
    Geo,       ///< a neighbouring router (mesh link)
    LocalInj,  ///< the node's own NI injection buffer (input only)
    LocalEj,   ///< the node's own NI ejection buffer (output only)
    RemoteInj, ///< an interposer link from a remote CB NI (EIR port)
};

/** Aggregate activity counters shared across a network (power model). */
struct NetworkActivity
{
    std::uint64_t bufferWrites = 0;   ///< flits written into VC buffers
    std::uint64_t bufferReads = 0;    ///< flits read out of VC buffers
    std::uint64_t xbarTraversals = 0; ///< switch traversals
    std::uint64_t vaGrants = 0;
    std::uint64_t saGrants = 0;
    std::uint64_t linkFlits = 0;          ///< on-chip link traversals
    std::uint64_t interposerLinkFlits = 0;///< interposer link traversals
    std::uint64_t creditsSent = 0;
    std::uint64_t requestBits = 0;    ///< payload bits injected, by class
    std::uint64_t replyBits = 0;

    void
    merge(const NetworkActivity &o)
    {
        bufferWrites += o.bufferWrites;
        bufferReads += o.bufferReads;
        xbarTraversals += o.xbarTraversals;
        vaGrants += o.vaGrants;
        saGrants += o.saGrants;
        linkFlits += o.linkFlits;
        interposerLinkFlits += o.interposerLinkFlits;
        creditsSent += o.creditsSent;
        requestBits += o.requestBits;
        replyBits += o.replyBits;
    }

    void reset() { *this = NetworkActivity{}; }
};

/**
 * The router proper. The owning network wires channels to ports and
 * calls tickStages() each internal tick, which runs SA -> VA -> RC
 * (so a stage's result is consumed one tick later).
 *
 * All state the pipeline stages read or write lives in flat
 * struct-of-arrays members inside the Router object itself
 * (DESIGN.md §14), and nowhere else: the port and VC views below are
 * computed from it by value on each accessor call.
 */
class Router
{
  public:
    /** A port's wiring and flit count: flits accepted on an input
     *  port, flits driven onto the link by an output port. */
    struct PortView
    {
        PortKind kind = PortKind::Geo;
        Dir dir = Dir::Local; ///< for Geo: which neighbour side
        std::uint64_t flits = 0;
    };

    /** One input VC's allocation state (tests). */
    struct VcView
    {
        VcState state = VcState::Idle;
        std::vector<int> routeCandidates; ///< output ports; none if Idle
        int outPort = -1;                 ///< granted port once Active
        int outVc = -1;                   ///< granted VC once Active
    };

    /** Pending-VC bitmasks cover at most this many input VCs (and,
     *  since vcsPerPort >= 1, at most this many input ports). */
    static constexpr int kMaxInVcs = 64;
    /** Flat output-VC bound (ports are already capped at 32). */
    static constexpr int kMaxOutVcs = 64;
    static constexpr int kMaxInPorts = 32;
    static constexpr int kMaxOutPorts = 32;
    /** Route-compute candidate bound: <= 2 minimal directions, or the
     *  router's ejection ports (MultiPort CBs carry a few). */
    static constexpr int kMaxRouteCand = 4;

    /** @p clock is the owning network's internal tick counter: the
     *  stat readers use it to count the ticks a parked router skipped. */
    Router(NodeId id, const Topology *topo, const NocParams *params,
           NetworkActivity *activity, const Cycle *clock);

    NodeId id() const { return id_; }
    Coord coord() const { return coord_; }

    /** Add ports during network construction; returns the port index. */
    int addInputPort(PortKind kind, Dir dir, Channel<Credit> *credit_up);
    int addOutputPort(PortKind kind, Dir dir, Channel<Flit> *out,
                      bool interposer = false);

    int numInputPorts() const { return static_cast<int>(inputs_.size()); }
    int numOutputPorts() const { return static_cast<int>(outputs_.size()); }
    /** Observability views, computed from the SoA state. */
    PortView inputPort(int i) const;
    PortView outputPort(int i) const;
    VcView inputVc(int port, int vc) const;
    /** True while a packet owns downstream VC @p vc of @p port. */
    bool
    outputVcBusy(int port, int vc) const
    {
        return outBusy_[port * params_->vcsPerPort + vc] != 0;
    }

    /** Deliver a flit arriving on an input port (from a channel). */
    void acceptFlit(int in_port, Flit f, Cycle now);

    /**
     * Deliver a credit for (out_port, vc). @return true when the credit
     * can end a park (DESIGN.md §10): it is the first credit of a
     * starved output VC, or it freed a VC that parked VA nominations
     * wait on. Any other credit leaves a parked router's next visit a
     * no-op.
     */
    bool
    creditArrived(int out_port, int vc)
    {
        int of = out_port * params_->vcsPerPort + vc;
        if (++outCredits_[of] == params_->vcDepthFlits &&
            !outBusy_[of]) {
            freeOutVcs_ |= std::uint64_t{1} << of;
            if (vaBlocked_ != 0)
                wakeBlockedVa(out_port);
        }
        return outCredits_[of] == 1 || vaPending_ != 0;
    }

    /**
     * One internal tick of the pipeline: the single statement of stage
     * order. SA runs before VA before RC, so each stage consumes what
     * the one after it produced on the previous tick.
     */
    void
    tickStages(Cycle now)
    {
        switchAllocStage(now);
        if (vaPending_ != 0)
            vcAllocStage(now);
        if (rcPending_ != 0)
            routeComputeStage(now);
    }

    /**
     * Leave the active set after the visit at internal tick @p now if
     * the next visit would change nothing but counters (DESIGN.md §10):
     * no VC waits for RC or VA (every nomination is parked on
     * vaBlocked_), and every VC waiting for SA has an output VC at
     * zero credits. Never under classVcs, whose VA windows move with
     * time. @return true when the router parked.
     */
    bool
    tryPark(Cycle now)
    {
        if (!canPark())
            return false;
        parkedAt_ = now;
        return true;
    }

    /** The park condition of tryPark(), which must keep holding for as
     *  long as the router stays parked (checked by the tests). */
    bool
    canPark() const
    {
        if ((rcPending_ | vaPending_) != 0 || params_->classVcs)
            return false;
        for (std::uint64_t m = saPending_; m != 0; m &= m - 1)
            if (outCredits_[vc_[std::countr_zero(m)].outFlat] > 0)
                return false;
        return true;
    }

    bool parked() const { return parkedAt_ != kNeverCycle; }

    /**
     * Rejoin the active set at internal tick @p now, before the waking
     * flit or credit lands: every tick the park skipped would have
     * requested SA for each stalled VC and sampled the buffered flits,
     * so those counts are settled here.
     */
    void
    unpark(Cycle now)
    {
        std::uint64_t span = now - 1 - parkedAt_;
        std::uint64_t k = static_cast<std::uint64_t>(
            std::popcount(saPending_));
        saRequests_ += k * span;
        creditStallCycles_ += k * span;
        occSumFlitTicks_ += static_cast<std::uint64_t>(bufferedFlits_) *
                            span;
        parkedAt_ = kNeverCycle;
    }

    /** Diagnostics: input VCs waiting for SA (each starved of credits
     *  while the router is parked) and for a free output VC. */
    std::uint64_t saWaitingVcs() const { return saPending_; }
    std::uint64_t vaWaitingVcs() const { return vaBlocked_; }

    /** Mean cycles a flit spends resident in this router. */
    const RunningStat &residenceStat() const { return residence_; }

    /** Total flits forwarded through this router. */
    std::uint64_t flitsForwarded() const { return flitsForwarded_; }

    // Per-router observability counters (DESIGN.md §9).
    /**
     * Input VC nominations the VC allocator saw / granted, as of
     * internal tick @p now. Every RouteComputed VC counts one request
     * per tick. Takes the tick because blocked nominations are
     * event-driven (DESIGN.md §14): a VC parked on vaBlocked_ skips
     * VA, so its deferred per-tick requests (now - block tick) are
     * added on read — also for a VC woken but not yet re-nominated.
     */
    std::uint64_t
    vaRequests(Cycle now) const
    {
        std::uint64_t r = vaRequests_;
        std::uint64_t m = vaBlocked_ | vaWoken_;
        while (m != 0) {
            int f = std::countr_zero(m);
            m &= m - 1;
            r += now - vaBlockTick_[f];
        }
        return r;
    }
    std::uint64_t vaGrants() const { return vaGrants_; }
    /** Switch-allocator per-VC requests seen / crossings granted. A
     *  parked router's skipped ticks count as they pass. */
    std::uint64_t saRequests() const { return saRequests_ + parkedSaTicks(); }
    std::uint64_t saGrants() const { return saGrants_; }
    /** (VC, tick) occurrences of an Active VC starved of credits. */
    std::uint64_t
    creditStallCycles() const
    {
        return creditStallCycles_ + parkedSaTicks();
    }

    /**
     * Mean buffered input flits per internal tick over [stats reset,
     * @p now]. Kept as exact integers (flit-tick sum / tick count) so
     * ticks the activity scheduler skipped count exactly: an idle
     * router's as zero-occupancy samples, a parked router's at its
     * (unchanging) buffered-flit count.
     */
    double occupancyMean(Cycle now) const;

    /** Clear all measurement state (warmup boundary); structure kept.
     *  @p now is the current internal tick (occupancy epoch start). */
    void resetStats(Cycle now = 0);

    /** True if any VC in any input port holds flits (drain check /
     *  active-set membership). O(1): a counter tracks push/pop. */
    bool hasBufferedFlits() const { return bufferedFlits_ > 0; }

    /**
     * Structure-of-arrays invariant check (tests): the per-stage
     * pending bitmasks, the per-VC state/count arrays, the flat
     * output-VC credit/busy state, and the aggregate buffered-flit
     * counter must all agree, and every parked VA nomination must
     * still be unable to find an output VC (DESIGN.md §14).
     */
    bool pipelineStateConsistent() const;

  private:
    /** Pipeline stages, run once per internal tick by tickStages(). */
    void switchAllocStage(Cycle now);
    void vcAllocStage(Cycle now);
    void routeComputeStage(Cycle now);

    /**
     * Re-arm parked VA nominations waiting on output port @p port
     * (a VC there just went free). Parking is gated off classVcs, so
     * a parked VC's permitted window is a fixed subset of its
     * candidate ports' VCs: port-granularity wakes can be early
     * (freed VC outside an escape/adaptive split) but never missed —
     * an early-woken VC re-nominates, fails, and re-parks with exact
     * deferred accounting either way.
     */
    void
    wakeBlockedVa(int port)
    {
        std::uint64_t w = vaWaiters_[port] & vaBlocked_;
        if (w == 0)
            return;
        vaPending_ |= w;
        vaWoken_ |= w;
        vaBlocked_ &= ~w;
        vaWaiters_[port] &= vaBlocked_;
    }

    /** Route-compute body over the SoA state: fill the candidate set
     *  of input VC @p flat and mark it RouteComputed. */
    void routeVcFlat(int flat);
    /** Output-port index for a geographic direction (-1 if absent). */
    int geoOutPort(Dir d) const { return dirPort_[static_cast<int>(d)]; }

    /** VC index of the escape VC (adaptive mode). */
    int escapeVc() const { return params_->vcsPerPort - 1; }

    /** Allowed output VC range for a packet class in classVcs mode. */
    void classVcRange(int cls, int &lo, int &hi) const;

    /** True when VC-Mono lets class @p cls borrow the other's VCs. */
    bool monopolyAllowed(int cls, Cycle now) const;

    /** Pick the (port, vc) request for input VC @p flat; false if
     *  none available this tick. Reads only the SoA state. */
    bool chooseVcRequest(int flat, Cycle now, int &req_port,
                         int &req_vc) const;

    /** SA requests (= credit stalls) of the ticks a parked router has
     *  skipped so far: each stalled VC counts one per tick. */
    std::uint64_t
    parkedSaTicks() const
    {
        if (!parked())
            return 0;
        return static_cast<std::uint64_t>(std::popcount(saPending_)) *
               (*clock_ - parkedAt_);
    }

    // ---- Packed pipeline state (DESIGN.md §14) ----
    // Everything the allocator stages touch per tick sits in flat,
    // cache-dense arrays — indexed by flat input-VC id
    // (port * vcsPerPort + vc) on the input side and flat output-VC id
    // on the output side — plus one contiguous per-router flit store,
    // instead of InputPort -> VcBuffer -> heap-ring pointer chases.
    // Members are ordered hottest-first: the stage masks, park state
    // and counters every visit (and every delivery) touches lead the
    // object, so the line deliver() prefetches is the one it needs;
    // the VC lanes follow, and the wiring only route compute, VA
    // parking or construction read comes last.

    const NocParams *params_;
    NetworkActivity *activity_;

    /**
     * Pending-work bitmasks over flat input-VC index (port * vcsPerPort
     * + vc), maintained at every state transition so the pipeline
     * stages visit only VCs that can act instead of scanning every
     * buffer. Bit-scan order equals the nested port/VC loop order, so
     * arbitration outcomes are unchanged.
     *  - rcPending_: Idle VCs holding an unrouted head flit.
     *  - vaPending_: VCs in RouteComputed awaiting an output VC.
     *  - saPending_: Active VCs currently holding flits.
     */
    std::uint64_t rcPending_ = 0;
    std::uint64_t vaPending_ = 0;
    std::uint64_t saPending_ = 0;
    /**
     * Event-driven VA retry (DESIGN.md §14): a nomination that found
     * every candidate output VC unavailable cannot succeed until some
     * output VC of this router frees, so its bit moves from
     * vaPending_ to vaBlocked_ instead of re-polling every tick. A
     * 0->1 transition of freeOutVcs_ on output port p wakes only the
     * parked bits registered in vaWaiters_[p] (spurious wakes
     * re-block with exact accounting). Only engaged when the success
     * condition depends solely on freeOutVcs_ (no classVcs window
     * schedule); vaWoken_ marks bits whose skipped per-tick
     * vaRequests_ ticks still need crediting when VA next processes
     * them.
     */
    std::uint64_t vaBlocked_ = 0;
    std::uint64_t vaWoken_ = 0;
    /**
     * Bit per flat output VC that is allocatable right now (!busy &&
     * credits == vcDepthFlits). Under the atomic-VC rule every free VC
     * holds exactly `vcDepthFlits` credits, so "most credits, first in
     * scan order" — the VA tie-break — reduces to "lowest set bit in
     * the candidate window": chooseVcRequest() is a couple of mask ops
     * instead of a per-candidate credit walk. Valid because every
     * downstream VC buffer is vcDepthFlits deep.
     */
    std::uint64_t freeOutVcs_ = 0;
    /** Total flits currently buffered across all input VCs. */
    int bufferedFlits_ = 0;
    /** Tick of the visit that parked this router, or kNeverCycle
     *  while it is on the active set (or idle). */
    Cycle parkedAt_ = kNeverCycle;

    std::uint64_t flitsForwarded_ = 0;
    std::uint64_t vaRequests_ = 0;
    std::uint64_t vaGrants_ = 0;
    std::uint64_t saRequests_ = 0;
    std::uint64_t saGrants_ = 0;
    std::uint64_t creditStallCycles_ = 0;
    /** Exact occupancy accounting: flit-ticks, ticks sampled, and the
     *  last tick accounted (gaps were idle at occupancy 0, or parked
     *  and settled by unpark()). */
    std::uint64_t occSumFlitTicks_ = 0;
    std::uint64_t occSamples_ = 0;
    Cycle occLastTick_ = 0;

    /** Rotation cursors for the separable allocators: input-side SA
     *  (per input port, over its VCs), output-side SA (per output
     *  port, over input ports), VA (per flat output VC, over flat
     *  input VCs). Replaces a RoundRobinArbiter object per port. */
    std::uint8_t inSaLast_[kMaxInPorts] = {};
    std::uint8_t outSaLast_[kMaxOutPorts] = {};
    std::uint8_t vaLast_[kMaxOutVcs] = {};

    /** Downstream credits / busy per flat output VC (credits bounded
     *  by the downstream depth, so a byte each keeps both arrays in
     *  one cache line apiece). */
    std::int8_t outCredits_[kMaxOutVcs] = {};
    std::uint8_t outBusy_[kMaxOutVcs] = {};

    /** Flit storage for every input VC: ring @p flat occupies slots
     *  [flat * vcDepthFlits, (flat+1) * vcDepthFlits). One allocation
     *  per router — the whole buffered state is one contiguous run. */
    std::vector<Flit> flitStore_;

    RunningStat residence_;

    /**
     * All per-input-VC pipeline state, packed to one 16-byte record so
     * an RC/VA/SA visit touches a single cache line (four VCs per
     * line) instead of one line per parallel array.
     */
    struct VcLane
    {
        VcState state = VcState::Idle;
        std::uint8_t count = 0;     ///< buffered flits
        std::uint8_t head = 0;      ///< ring head slot
        std::uint8_t cls = 0;       ///< head class (0/1)
        std::uint8_t headOk = 0;    ///< front flit is a head
        std::uint8_t ejecting = 0;  ///< routed to LocalEj
        std::uint8_t candCount = 0;
        std::int8_t outPort = -1;   ///< granted port (-1)
        std::int8_t destX = 0;      ///< head dest coord
        std::int8_t destY = 0;
        std::int16_t outFlat = -1;  ///< granted flat out VC
        std::int8_t cand[kMaxRouteCand] = {};
    };
    static_assert(sizeof(VcLane) == 16, "VcLane must stay one half-line");
    VcLane vc_[kMaxInVcs] = {};

    /** Per-output-port downstream flit channel + per-input-port
     *  upstream credit channel (SA send / credit-return paths). */
    Channel<Flit> *outChan_[kMaxOutPorts] = {};
    Channel<Credit> *creditUp_[kMaxInPorts] = {};
    /** Per-port flit counters (read through the port views). */
    std::uint64_t inFlitsAccepted_[kMaxInPorts] = {};
    std::uint64_t outFlitsSent_[kMaxOutPorts] = {};

    /** Geo direction -> output port (-1 when absent). */
    std::int8_t dirPort_[4] = {-1, -1, -1, -1};
    /** Ejection ports as a fixed candidate array (== ejPorts_). Not
     *  maintained on concentrated routers, whose ejection fan-out can
     *  exceed kMaxRouteCand — they eject via destSub_ instead. */
    std::int8_t ejCand_[kMaxRouteCand] = {};
    std::uint32_t outIsGeo_ = 0;       ///< bit per output port
    std::uint32_t outInterposer_ = 0;  ///< bit per output port
    int ejCandCount_ = 0;
    /** Topology facts cached off the hot path's pointer chase. */
    bool wrap_ = false;         ///< torus: wrap-aware RC + dateline VCs
    bool concentrated_ = false; ///< CMesh: eject by destination slot
    Coord coord_;

    // ---- Cold: identity, wiring, VA parking registry ----
    NodeId id_;
    const Topology *topo_;
    const Cycle *clock_;

    /** Port wiring facts, by port index. */
    struct PortWiring
    {
        PortKind kind;
        Dir dir;
    };
    std::vector<PortWiring> inputs_;
    std::vector<PortWiring> outputs_;
    std::vector<int> ejPorts_;

    /** Parked input VCs per candidate output port; bits outside
     *  vaBlocked_ are stale and masked off at wake time. */
    std::uint64_t vaWaiters_[kMaxOutPorts] = {};
    /** Tick each vaBlocked_ bit parked at (deferred vaRequests_). */
    Cycle vaBlockTick_[kMaxInVcs] = {};
    /** Concentrated ejection: the head packet's destination tile slot
     *  per input VC (indexes ejPorts_), written at route compute. */
    std::int8_t destSub_[kMaxInVcs] = {};

    /** Last tick a flit of each class (0=req, 1=reply) was seen. */
    Cycle lastSeenClass_[3] = {0, 0, 0};
    bool seenClass_[3] = {false, false, false};
};

} // namespace eqx

#endif // EQX_NOC_ROUTER_HH
