#include "noc/packet.hh"

#include <atomic>
#include <memory>
#include <vector>

namespace eqx {

/**
 * Thread-local freelist arena. Memory is carved in blocks and only
 * returned to the OS when the owning thread exits; the freelist is
 * LIFO so the hot loop keeps re-touching cache-warm packets. Only the
 * owner allocates. A packet may die on another thread: System ticks
 * the request network and the storm endpoints on a helper thread and
 * the reply group, the CBs and the PEs on the caller (DESIGN.md §8).
 * So a storm request, made on the helper, mostly dies in a CB tick on
 * the caller; a CB's Invalidate, made on the helper, dies in the reply
 * group; and a PE's InvAck, made on the caller, dies in a CB on the
 * helper. Such a packet goes onto the owner's lock-free return stack,
 * which the owner splices into its freelist when that runs dry, so
 * neither arena grows with run length. An arena must outlive every
 * packet it allocated: System stops its helper only after its
 * networks and endpoints are gone.
 */
class PacketPool
{
  public:
    Packet *allocate();
    void release(Packet *p);
    std::size_t freeCount();

  private:
    void reclaimReturned();

    Packet *free_ = nullptr;
    std::size_t freeCount_ = 0;
    std::vector<std::unique_ptr<Packet[]>> blocks_;
    /** Treiber stack of packets released on other threads. */
    std::atomic<Packet *> returned_{nullptr};
};

namespace {

PacketPool &
pool()
{
    thread_local PacketPool p;
    return p;
}

} // namespace

Packet *
PacketPool::allocate()
{
    if (!free_)
        reclaimReturned();
    if (!free_) {
        blocks_.push_back(std::make_unique<Packet[]>(kPacketPoolBlock));
        Packet *block = blocks_.back().get();
        for (std::size_t i = 0; i < kPacketPoolBlock; ++i) {
            block[i].poolNext_ = free_;
            free_ = &block[i];
        }
        freeCount_ += kPacketPoolBlock;
    }
    Packet *p = free_;
    free_ = p->poolNext_;
    --freeCount_;
    // Recycled packets must be indistinguishable from fresh ones:
    // reset every simulation field to its default.
    *p = Packet{};
    p->poolOwner_ = this;
    return p;
}

void
PacketPool::release(Packet *p)
{
    if (this == &pool()) {
        p->poolNext_ = free_;
        free_ = p;
        ++freeCount_;
        return;
    }
    Packet *head = returned_.load(std::memory_order_relaxed);
    do {
        p->poolNext_ = head;
    } while (!returned_.compare_exchange_weak(head, p,
                                              std::memory_order_release,
                                              std::memory_order_relaxed));
}

std::size_t
PacketPool::freeCount()
{
    reclaimReturned();
    return freeCount_;
}

void
PacketPool::reclaimReturned()
{
    // The owner takes the whole stack at once, so no ABA: a pushed
    // node is never popped individually.
    Packet *p = returned_.exchange(nullptr, std::memory_order_acquire);
    while (p) {
        Packet *next = p->poolNext_;
        p->poolNext_ = free_;
        free_ = p;
        ++freeCount_;
        p = next;
    }
}

namespace detail {

Packet *
allocatePacket()
{
    return pool().allocate();
}

void
releasePacket(Packet *p)
{
    p->poolOwner_->release(p);
}

} // namespace detail

std::size_t
packetPoolFreeCount()
{
    return pool().freeCount();
}

std::uint64_t
nextPacketId()
{
    // Atomic so concurrent System runs (JobPool workers) and a
    // System's two network threads can allocate ids without racing.
    // Ids are debugging handles only — no simulation decision reads
    // them (the fault checksum hashes one, but a corrupted flit fails
    // it whatever the id) — so the interleaving does not affect
    // determinism of results.
    static std::atomic<std::uint64_t> id{0};
    return id.fetch_add(1, std::memory_order_relaxed) + 1;
}

PacketPtr
makePacket(PacketType type, NodeId src, NodeId dst, int bits, Addr addr,
           std::uint64_t tag)
{
    PacketPtr p = PacketPtr::adopt(detail::allocatePacket());
    p->id = nextPacketId();
    p->type = type;
    p->src = src;
    p->dst = dst;
    p->bits = bits;
    p->addr = addr;
    p->tag = tag;
    return p;
}

} // namespace eqx
