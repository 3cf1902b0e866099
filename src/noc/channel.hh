/**
 * @file
 * Fixed-latency pipelined wires for flits and credits. A send lands as
 * a payload in the owning network's pending wheel, slot
 * (now + latency) & mask, and Network::deliver() dispatches it when
 * that tick comes round. A channel accepts at most one item per tick
 * (enforced by send()); interposer channels carry multi-hop spans in
 * one tick.
 */

#ifndef EQX_NOC_CHANNEL_HH
#define EQX_NOC_CHANNEL_HH

#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "noc/packet.hh"

namespace eqx {

/**
 * One slot of the pending-arrival wheel (slot index = due tick & wheel
 * mask): the flits and credits that arrive that tick, each tagged with
 * its wire, in send order.
 */
struct FlitWheelEvent
{
    std::uint32_t wire;
    Flit f;
};
struct CreditWheelEvent
{
    std::uint32_t wire;
    Credit c;
};
struct WheelSlot
{
    std::vector<FlitWheelEvent> flits;
    std::vector<CreditWheelEvent> credits;

    bool empty() const { return flits.empty() && credits.empty(); }
};

/**
 * Pipelined point-to-point wire carrying flits or credits. The owner
 * picks the wheel and the wire tag at construction; send() appends
 * the item to the slot it is due in, so nothing stays inside the
 * channel object.
 */
template <typename T>
class Channel
{
    static_assert(std::is_same_v<T, Flit> || std::is_same_v<T, Credit>,
                  "channels carry flits or credits");

  public:
    /**
     * A wire of @p latency ticks posting to @p slots under @p tag. The
     * wheel size (@p slot_mask + 1) must be a power of two exceeding
     * the latency, so an item's due slot is never the one being
     * delivered.
     */
    Channel(int latency, WheelSlot *slots, std::uint32_t slot_mask,
            std::uint32_t tag)
        : latency_(static_cast<Cycle>(latency)), wheel_(slots),
          wheelMask_(slot_mask), tag_(tag)
    {
        eqx_assert(latency >= 1, "channel latency must be >= 1");
        eqx_assert(latency_ <= slot_mask,
                   "channel latency must be below the wheel size");
    }

    /** Send an item at tick @p now; it arrives at now + latency. */
    void
    send(T item, Cycle now)
    {
        // A physical link carries one item per tick, so a wire has at
        // most one event in any wheel slot.
        eqx_assert(lastSendTick_ == kNeverSent || now > lastSendTick_,
                   "channel accepts at most one send per tick (tick ",
                   now, ")");
        lastSendTick_ = now;
        WheelSlot &slot = wheel_[(now + latency_) & wheelMask_];
        if constexpr (std::is_same_v<T, Flit>)
            slot.flits.push_back({tag_, std::move(item)});
        else
            slot.credits.push_back({tag_, item});
    }

  private:
    static constexpr Cycle kNeverSent = ~static_cast<Cycle>(0);

    Cycle latency_;
    Cycle lastSendTick_ = kNeverSent;
    WheelSlot *wheel_;
    std::uint32_t wheelMask_;
    std::uint32_t tag_;
};

} // namespace eqx

#endif // EQX_NOC_CHANNEL_HH
