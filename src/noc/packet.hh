/**
 * @file
 * Packets and flits. A packet is the unit endpoints exchange; the
 * network serializes it into flits sized to the link width.
 *
 * Packets are pool-allocated with a *non-atomic* intrusive refcount:
 * only one thread at a time touches a packet's references, the one
 * ticking the network or endpoint that holds it. System may tick a
 * step's two lanes on two threads, but the lanes of a phase share no
 * packet, and the threads meet before any packet moves between them
 * (DESIGN.md §8). So the shared_ptr atomic refcount traffic the flit
 * hot path used to pay buys nothing. Each thread allocates from its
 * own freelist arena: the helper makes the storm endpoints' requests
 * and the CBs' Invalidates, the caller the PEs' requests and InvAcks
 * and the CBs' replies. See DESIGN.md §10 for the lifetime rules.
 */

#ifndef EQX_NOC_PACKET_HH
#define EQX_NOC_PACKET_HH

#include <cstdint>
#include <cstddef>
#include <utility>

#include "common/types.hh"

namespace eqx {

class PacketPool;

/**
 * One in-flight message. Latency book-keeping fields are stamped by
 * the NI/network as the packet progresses, in *core* cycles.
 */
struct Packet
{
    std::uint64_t id = 0;
    PacketType type = PacketType::ReadRequest;
    NodeId src = kInvalidNode;    ///< logical source node (tile)
    NodeId dst = kInvalidNode;    ///< logical destination node (tile)
    Addr addr = 0;                ///< memory line address (for endpoints)
    int bits = 128;               ///< payload size

    /** Opaque tag endpoints may use to match replies to requests. */
    std::uint64_t tag = 0;

    Cycle cycleCreated = 0;   ///< enqueued at the source NI
    Cycle cycleInjected = 0;  ///< head flit entered the first router
    Cycle cycleEjected = 0;   ///< tail flit delivered to the sink

    /** Router the packet physically enters (EIR injection may differ
     *  from src); set by the NI. */
    NodeId entryRouter = kInvalidNode;

    /**
     * Final destination in the *tile* namespace when the packet rides
     * an overlay network whose own node ids differ (Interposer-CMesh):
     * dst then names the overlay exit router and finalDst the tile.
     */
    NodeId finalDst = kInvalidNode;

    /**
     * End-to-end delivery identity, stamped by the source NI only when
     * the fault-recovery protocol is armed (DESIGN.md §11.3): seqSrc
     * is the injecting NI and seq its per-destination sequence number.
     * A retransmitted clone carries the original identity so the
     * receiver can discard duplicates. seqSrc == kInvalidNode means
     * the packet is outside the protocol.
     */
    NodeId seqSrc = kInvalidNode;
    std::uint32_t seq = 0;

    Cycle queueLatency() const { return cycleInjected - cycleCreated; }
    Cycle networkLatency() const { return cycleEjected - cycleInjected; }
    Cycle totalLatency() const { return cycleEjected - cycleCreated; }

    /** Pool internals: live references and the freelist link. Not
     *  simulation state — managed exclusively by PacketPtr/the pool. */
    std::uint32_t poolRefs_ = 0;
    Packet *poolNext_ = nullptr;
    PacketPool *poolOwner_ = nullptr; ///< the arena that allocated it
};

/** Packets a thread's arena carves per block when its freelist runs
 *  dry (test visibility). */
constexpr std::size_t kPacketPoolBlock = 256;

namespace detail {
/** Return a zero-reference packet to the arena that allocated it. */
void releasePacket(Packet *p);
/** Take a default-initialized packet from the thread's freelist. */
Packet *allocatePacket();
} // namespace detail

/**
 * Intrusive smart pointer over pooled packets. Copying bumps a plain
 * (non-atomic) counter; moving is pointer-steal only, so flits travel
 * through channels and VC buffers without touching the refcount.
 */
class PacketPtr
{
  public:
    PacketPtr() = default;
    PacketPtr(std::nullptr_t) {}

    PacketPtr(const PacketPtr &o) : p_(o.p_)
    {
        if (p_)
            ++p_->poolRefs_;
    }

    PacketPtr(PacketPtr &&o) noexcept : p_(o.p_) { o.p_ = nullptr; }

    PacketPtr &
    operator=(const PacketPtr &o)
    {
        if (o.p_)
            ++o.p_->poolRefs_;
        Packet *old = p_;
        p_ = o.p_;
        unref(old);
        return *this;
    }

    PacketPtr &
    operator=(PacketPtr &&o) noexcept
    {
        if (this != &o) {
            Packet *old = p_;
            p_ = o.p_;
            o.p_ = nullptr;
            unref(old);
        }
        return *this;
    }

    ~PacketPtr() { unref(p_); }

    Packet *operator->() const { return p_; }
    Packet &operator*() const { return *p_; }
    Packet *get() const { return p_; }
    explicit operator bool() const { return p_ != nullptr; }

    void
    reset()
    {
        Packet *old = p_;
        p_ = nullptr;
        unref(old);
    }

    /** Live references to the pointee (debug/test visibility). */
    std::uint32_t useCount() const { return p_ ? p_->poolRefs_ : 0; }

    friend bool
    operator==(const PacketPtr &a, const PacketPtr &b)
    {
        return a.p_ == b.p_;
    }
    friend bool
    operator!=(const PacketPtr &a, const PacketPtr &b)
    {
        return a.p_ != b.p_;
    }
    friend bool
    operator==(const PacketPtr &a, std::nullptr_t)
    {
        return a.p_ == nullptr;
    }
    friend bool
    operator!=(const PacketPtr &a, std::nullptr_t)
    {
        return a.p_ != nullptr;
    }

    /** Adopt a freshly allocated zero-ref packet (pool internal). */
    static PacketPtr
    adopt(Packet *p)
    {
        PacketPtr out;
        out.p_ = p;
        ++p->poolRefs_;
        return out;
    }

  private:
    static void
    unref(Packet *p)
    {
        if (p && --p->poolRefs_ == 0)
            detail::releasePacket(p);
    }

    Packet *p_ = nullptr;
};

/** One link-width slice of a packet. */
struct Flit
{
    PacketPtr pkt;

    /** Scratch: cycle this flit entered the current router's buffer
     *  (internal network ticks), for per-router residence stats. */
    Cycle arrived = 0;

    /** Position within the packet. Narrow on purpose: a flit is moved
     *  four times per hop (buffer -> SA -> wheel -> acceptFlit), so
     *  the struct is packed to 24 bytes. 128-bit flits cap packets at
     *  well under 64k flits. */
    std::uint16_t index = 0;
    std::int8_t vc = 0;       ///< VC on the current link / input buffer
    bool isHead = false;
    bool isTail = false;

    /** Per-flit checksum, stamped by the NI serializer only on
     *  fault-armed networks and verified where a wire delivers into a
     *  router; 0 and ignored otherwise (DESIGN.md §11.2). */
    std::uint16_t fcs = 0;
};

/** A flow-control credit returned upstream for one freed buffer slot. */
struct Credit
{
    int port = 0; ///< the *downstream receiver's* input port (upstream out port context)
    int vc = 0;
};

/** Process-wide packet id allocator (monotonic, thread safe). */
std::uint64_t nextPacketId();

/** Convenience constructor. */
PacketPtr makePacket(PacketType type, NodeId src, NodeId dst, int bits,
                     Addr addr = 0, std::uint64_t tag = 0);

/** Packets currently on the freelist of the arena this thread
 *  allocates from (test visibility). */
std::size_t packetPoolFreeCount();

} // namespace eqx

#endif // EQX_NOC_PACKET_HH
