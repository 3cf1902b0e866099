/**
 * @file
 * The per-network fault plane: applies a FaultSchedule to the
 * network's registered injection wires, tracks per-wire fault state
 * (stalled / corrupting / killed), and carries the out-of-band
 * recovery events — end-to-end acks, reconciliation credits and
 * port-mask notifications — on its own event wheel so they can never
 * collide with in-band channel traffic (DESIGN.md §11).
 *
 * The plane is passive: the owning Network drives it once per internal
 * tick and consults it on every arrival over a fault-enabled wire. It
 * is created only when faults are armed, so an un-armed network pays
 * a single null-pointer test per tick.
 */

#ifndef EQX_FAULT_FAULT_PLANE_HH
#define EQX_FAULT_FAULT_PLANE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/types.hh"
#include "fault/fault_model.hh"
#include "noc/packet.hh"

namespace eqx {

/**
 * Callbacks the owning Network implements so the plane can deliver
 * recovery events without depending on network internals.
 */
class FaultPlaneHost
{
  public:
    virtual ~FaultPlaneHost() = default;
    /** End-to-end ack from @p peer reached NI @p ni for @p seq. */
    virtual void faultDeliverAck(NodeId ni, NodeId peer,
                                 std::uint32_t seq) = 0;
    /** Return one (buf, vc) credit to NI @p ni for a dropped flit. */
    virtual void faultReturnCredit(NodeId ni, int buf, int vc) = 0;
    /** Fault detection latched: NI @p ni must stop using @p buf. */
    virtual void faultMaskBuffer(NodeId ni, int buf) = 0;
};

class FaultPlane
{
  public:
    FaultPlane(const FaultConfig &cfg, std::string net_name,
               FaultPlaneHost *host);

    /** Register one injection wire (construction order = wire index
     *  order, which the schedule generator depends on). @return the
     *  plane wire index. */
    int addWire(NodeId ni, int buf, NodeId router, bool interposer,
                int span_hops, Cycle credit_latency);

    /** Resolve explicit events and generate the random schedule. Call
     *  once, after every addWire. */
    void finalize(std::uint64_t seed);

    /** Apply schedule entries due at @p now and fire matured recovery
     *  events. The Network calls this right after advancing its tick,
     *  before channel delivery. */
    void tick(Cycle now);

    // ---- Receive-side wire filtering (Network::deliver) ----
    /** Arrivals on @p wi are withheld this tick? A stall of duration D
     *  armed at tick T covers ticks [T, T + D). */
    bool
    wireStalled(int wi, Cycle now) const
    {
        return wires_[static_cast<std::size_t>(wi)].stallUntil > now;
    }
    /** Track worm boundaries on @p wi and corrupt the flit's checksum
     *  if the wire is faulting this worm. Faults take effect at worm
     *  granularity: a worm whose head already crossed cleanly
     *  completes, so a partial worm never wedges a VC. */
    void touchFlit(int wi, Flit &f);
    /** The network verified the checksum and is dropping the flit:
     *  account it and schedule the reconciliation credit. */
    void onChecksumDrop(int wi, const Flit &f, Cycle now);

    // ---- Protocol hooks (NIs) ----
    /** Queue the end-to-end ack @p to <- @p peer for @p seq. */
    void scheduleAck(NodeId to, NodeId peer, std::uint32_t seq,
                     Cycle now);

    const FaultConfig &config() const { return cfg_; }
    const std::string &netName() const { return net_; }
    int numWires() const { return static_cast<int>(wires_.size()); }
    const std::vector<FaultEvent> &schedule() const { return schedule_; }

    /** No recovery event in flight (drain condition: a pending ack or
     *  reconciliation credit is as real as a buffered flit). */
    bool quiescent() const { return due_.empty(); }

    FaultStats &stats() { return stats_; }
    const FaultStats &stats() const { return stats_; }
    void resetStats() { stats_.reset(); }

  private:
    struct Wire
    {
        NodeId ni = kInvalidNode;
        int buf = 0;
        NodeId router = kInvalidNode;
        bool interposer = false;
        int spanHops = 0;
        Cycle creditLatency = 1;

        // Fault state.
        bool killed = false;
        Cycle stallUntil = 0;    ///< arrivals withheld while now <= this
        int corruptWormsLeft = 0;
        bool dropWorm = false;   ///< worm in progress is being dropped
    };

    struct PlaneEvent
    {
        enum class Kind : std::uint8_t { Ack, CreditReturn, MaskBuffer };
        Kind kind;
        NodeId ni = kInvalidNode;
        NodeId peer = kInvalidNode; ///< Ack: delivering endpoint
        std::uint32_t seq = 0;      ///< Ack
        int buf = 0;                ///< CreditReturn / MaskBuffer
        int vc = 0;                 ///< CreditReturn
    };

    void applyEvent(const FaultEvent &e, Cycle now);
    void killWire(int wi, Cycle now);
    int findWire(NodeId ni, int buf) const;

    FaultConfig cfg_;
    std::string net_;
    FaultPlaneHost *host_;

    std::vector<Wire> wires_;
    std::vector<FaultEvent> schedule_;
    std::size_t nextEvent_ = 0;

    /** Recovery-event wheel, keyed by due tick. Insertion order within
     *  a tick is preserved (determinism). */
    std::map<Cycle, std::vector<PlaneEvent>> due_;

    FaultStats stats_;
};

} // namespace eqx

#endif // EQX_FAULT_FAULT_PLANE_HH
