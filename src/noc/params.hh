/**
 * @file
 * Configuration parameters for one physical network. A full-system
 * scheme (Section 5 of the paper) instantiates one or more networks,
 * each with its own NocParams.
 */

#ifndef EQX_NOC_PARAMS_HH
#define EQX_NOC_PARAMS_HH

#include <cstdint>
#include <string>

#include "common/types.hh"
#include "noc/topology.hh"

namespace eqx {

/** Routing algorithms supported by the router's route-compute stage. */
enum class RoutingMode : std::uint8_t
{
    /** Deterministic dimension-order (X then Y). */
    XY,
    /**
     * Minimal adaptive with a Duato-style escape VC: the highest VC
     * index is reserved for XY routing only; adaptive VCs may pick any
     * minimal direction and may drop into the escape VC when blocked.
     */
    MinimalAdaptive,
};

/** Router-to-router link latency, in network ticks. */
constexpr int kChannelLatencyCycles = 1;
/** Packets an NI's core-side injection queue holds. */
constexpr int kNiInjBufPackets = 2;
/** Assembled packets an NI holds for its sink before it stops
 *  ejecting (backpressure into the network). */
constexpr int kNiEjectQueuePackets = 4;

/** Which message classes a network carries. */
struct ClassMask
{
    bool request = true;
    bool reply = true;

    bool
    accepts(PacketType t) const
    {
        return isRequest(t) ? request : reply;
    }
};

/** Parameters of one physical mesh network (paper Table 1 defaults). */
struct NocParams
{
    std::string name = "net";

    int width = 8;             ///< mesh columns
    int height = 8;            ///< mesh rows

    int vcsPerPort = 2;        ///< virtual channels per port
    int vcDepthFlits = 5;      ///< buffer depth per VC, 1..127 (1 packet)
    int flitBits = 128;        ///< link/flit width

    RoutingMode routing = RoutingMode::MinimalAdaptive;

    /**
     * Fabric topology over the width x height endpoint grid
     * (DESIGN.md §17). Torus wraps every row/column ring and requires
     * vcsPerPort >= 2 (XY) or >= 3 (MinimalAdaptive) for the dateline
     * VC discipline; CMesh shares one router per
     * topo.concentration^2-tile block. Mesh is the byte-identical
     * default.
     */
    TopoSpec topo;

    /**
     * Single-network mode: VC classes are segregated (VC0.. for
     * requests, the rest for replies) and routing is forced to XY for
     * per-class deadlock freedom.
     */
    bool classVcs = false;

    /**
     * VC-Monopolization [Jang et al., DAC'15]: in classVcs mode, a
     * packet may allocate a VC of the other class when no flit of that
     * class has passed the router within vcMonoWindow cycles.
     */
    bool vcMono = false;
    int vcMonoWindow = 64;

    /**
     * Coherence multicast classes (traffic model "coherence"): in
     * classVcs mode, reserve the top coherenceVcs VCs as a third class
     * carrying Invalidate/InvAck packets, so the invalidation fan-out
     * cannot deadlock against the request/reply classes it crosses.
     * 0 (default) = coherence packets share the class of their
     * direction (InvAck with requests, Invalidate with replies).
     * Requires vcsPerPort >= coherenceVcs + 2 when set.
     */
    int coherenceVcs = 0;

    /**
     * Mesh links routed through the interposer RDLs (the CMesh overlay
     * of Interposer-CMesh): counted as interposer traversals by the
     * power model.
     */
    bool geoLinksInterposer = false;

    ClassMask classes;         ///< which packet classes are admitted

    /**
     * Internal network ticks per core cycle, alternating even/odd core
     * cycles. {1,1} = core clock; DA2Mesh subnets use {3,2} = 2.5x.
     */
    int ticksEvenCycle = 1;
    int ticksOddCycle = 1;

    int numNodes() const { return width * height; }
    /** Flits needed for a packet of the given payload size. */
    int
    flitsForBits(int bits) const
    {
        int f = (bits + flitBits - 1) / flitBits;
        return f < 1 ? 1 : f;
    }
    /** Average internal ticks per core cycle (e.g. 2.5 for DA2Mesh). */
    double
    clockRatio() const
    {
        return (ticksEvenCycle + ticksOddCycle) / 2.0;
    }
};

/**
 * VC class of a packet in a classVcs network: 0 = request, 1 = reply,
 * 2 = coherence (only when the network reserves coherence VCs —
 * otherwise Invalidate/InvAck fold into the class of their direction).
 */
inline int
packetVcClass(PacketType t, const NocParams &p)
{
    if (p.coherenceVcs > 0 && isCoherence(t))
        return 2;
    return isRequest(t) ? 0 : 1;
}

/** Payload sizes in bits for the packet types (64 B lines). */
struct PacketSizes
{
    int readRequestBits = 128;
    int writeRequestBits = 640;
    int readReplyBits = 640;
    int writeReplyBits = 128;
    int invalidateBits = 128; ///< coherence: address-only control packet
    int invAckBits = 128;     ///< coherence: address-only control packet

    int
    bitsFor(PacketType t) const
    {
        switch (t) {
          case PacketType::ReadRequest:  return readRequestBits;
          case PacketType::WriteRequest: return writeRequestBits;
          case PacketType::ReadReply:    return readReplyBits;
          case PacketType::WriteReply:   return writeReplyBits;
          case PacketType::Invalidate:   return invalidateBits;
          case PacketType::InvAck:       return invAckBits;
        }
        return 128;
    }
};

} // namespace eqx

#endif // EQX_NOC_PARAMS_HH
