/**
 * @file
 * Fixed-latency pipelined channels for flits and credits. A channel
 * accepts at most one item per tick (enforced by send()) and delivers
 * it latency ticks later; interposer channels carry multi-hop spans in
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
 * Receives due-tick notifications from channels so the owner can
 * visit only channels that actually hold arrivals (the network's
 * pending-wire event wheel) instead of scanning every wire per tick.
 */
class ChannelScheduler
{
  public:
    virtual ~ChannelScheduler() = default;
    /** The channel tagged @p tag has an item arriving at tick @p due. */
    virtual void channelDue(std::uint32_t tag, Cycle due) = 0;
};

/**
 * One slot of a pending-arrival time wheel (slot index = due tick mod
 * wheel size). `wires` holds tag events for channels in store mode
 * (the item stays buffered in the channel); `flits`/`credits` carry
 * the payloads themselves for channels in pass-through mode
 * (DESIGN.md §14) — delivery then never touches the channel object.
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
    std::vector<std::uint32_t> wires;
    std::vector<FlitWheelEvent> flits;
    std::vector<CreditWheelEvent> credits;

    bool
    empty() const
    {
        return wires.empty() && flits.empty() && credits.empty();
    }
};

/**
 * Pipelined point-to-point channel. T is Flit or Credit. The owner
 * calls send() during a tick and drains arrivals at the start of the
 * next tick(s) via receive().
 */
template <typename T>
class Channel
{
  public:
    explicit Channel(int latency = 1)
        : latency_(latency), buf_(static_cast<std::size_t>(latency) + 1)
    {
        eqx_assert(latency >= 1, "channel latency must be >= 1");
    }

    /**
     * Attach the owner's delivery scheduler; every send() then posts
     * one (tag, arrival-tick) event and the item stays buffered here
     * until receive(). An unscheduled channel (unit tests) posts
     * nothing and is drained only by explicit receive() calls.
     */
    void
    setScheduler(ChannelScheduler *sched, std::uint32_t tag)
    {
        sched_ = sched;
        tag_ = tag;
        wheel_ = nullptr;
    }

    /**
     * Pass-through mode (Flit/Credit channels only): send() appends
     * the payload itself to wheel slot (now + latency) & @p slot_mask
     * — one vector append instead of a ring write, a tag event, and a
     * later pointer-chase back into this object. The wheel size must
     * be a power of two exceeding the maximum channel latency.
     * Latency semantics are identical: the item is due at now+latency.
     */
    void
    setWheel(WheelSlot *slots, std::uint32_t slot_mask, std::uint32_t tag)
    {
        wheel_ = slots;
        wheelMask_ = slot_mask;
        tag_ = tag;
        sched_ = nullptr;
    }

    /** Enqueue an item at tick @p now; it arrives at now + latency. */
    void
    send(T item, Cycle now)
    {
        // A physical link carries one item per tick. The event wheel
        // also relies on this: one send per (channel, tick) means one
        // due event per (channel, tick).
        eqx_assert(lastSendTick_ == kNeverSent || now > lastSendTick_,
                   "channel accepts at most one send per tick (tick ",
                   now, ")");
        lastSendTick_ = now;
        if constexpr (std::is_same_v<T, Flit>) {
            if (wheel_) {
                wheel_[(now + static_cast<Cycle>(latency_)) & wheelMask_]
                    .flits.push_back({tag_, std::move(item)});
                return;
            }
        } else if constexpr (std::is_same_v<T, Credit>) {
            if (wheel_) {
                wheel_[(now + static_cast<Cycle>(latency_)) & wheelMask_]
                    .credits.push_back({tag_, item});
                return;
            }
        }
        if (count_ == buf_.size())
            grow();
        std::size_t slot = head_ + count_;
        if (slot >= buf_.size())
            slot -= buf_.size();
        buf_[slot].first = now + static_cast<Cycle>(latency_);
        buf_[slot].second = std::move(item);
        ++count_;
        if (sched_)
            sched_->channelDue(tag_, now + static_cast<Cycle>(latency_));
    }

    /** Pop the next item that has arrived by tick @p now, if any. */
    bool
    receive(Cycle now, T &out)
    {
        if (count_ == 0 || buf_[head_].first > now)
            return false;
        out = std::move(buf_[head_].second);
        if (++head_ == buf_.size())
            head_ = 0;
        --count_;
        return true;
    }

    bool empty() const { return count_ == 0; }
    std::size_t inflightCount() const { return count_; }
    int latency() const { return latency_; }
    /** Wire tag assigned by the owner (setWheel / setScheduler). */
    std::uint32_t tag() const { return tag_; }

  private:
    static constexpr Cycle kNeverSent = ~static_cast<Cycle>(0);

    /**
     * Double the in-flight ring, preserving FIFO order. A drained-each-
     * tick channel never exceeds `latency` items, so the initial sizing
     * makes this cold; only tests that batch sends without receiving
     * ever grow.
     */
    void
    grow()
    {
        std::vector<std::pair<Cycle, T>> bigger(
            buf_.empty() ? 4 : buf_.size() * 2);
        for (std::size_t i = 0; i < count_; ++i) {
            std::size_t src = head_ + i;
            if (src >= buf_.size())
                src -= buf_.size();
            bigger[i] = std::move(buf_[src]);
        }
        buf_ = std::move(bigger);
        head_ = 0;
    }

    int latency_;
    Cycle lastSendTick_ = kNeverSent;
    ChannelScheduler *sched_ = nullptr;
    WheelSlot *wheel_ = nullptr;
    std::uint32_t wheelMask_ = 0;
    std::uint32_t tag_ = 0;
    /** FIFO ring of (arrival tick, item), `count_` live from `head_`. */
    std::vector<std::pair<Cycle, T>> buf_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
};

} // namespace eqx

#endif // EQX_NOC_CHANNEL_HH
