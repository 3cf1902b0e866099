/**
 * @file
 * Open-loop storm machinery shared by the storm-* traffic models: a
 * rate-driven arrival process per non-CB tile, decoupled from the PE
 * latency-tolerance window. Arrivals accumulate through a fractional
 * accumulator (no libm, bit-exact everywhere), queue in a bounded
 * backlog against NI admission backpressure, and are *dropped* — the
 * open-loop loss signal — when the backlog is full. Request/reply
 * bookkeeping measures delivered ratio and saturation.
 */

#ifndef EQX_TRAFFIC_STORM_HH
#define EQX_TRAFFIC_STORM_HH

#include <cstdint>
#include <deque>

#include "common/rng.hh"
#include "noc/network_interface.hh"
#include "traffic/traffic_model.hh"

namespace eqx {

/** Rate-profile shape of a storm model. */
enum class StormShape
{
    Diurnal, ///< triangle ramp: trough -> peak -> trough over horizon
    Flash,   ///< flash crowd: trough base, peak step in [0.4h, 0.6h)
    Hotspot, ///< constant peak, arrivals concentrated on hot CBs
};

/** Packet::tag sentinel marking storm-generated traffic. */
inline constexpr std::uint64_t kStormTag = 0x53544f524dULL; // "STORM"

/**
 * One tile's open-loop injector + reply sink. Replaces the PE at a
 * non-CB tile when a storm model is active.
 */
class StormEndpoint final : public PacketSink
{
  public:
    StormEndpoint(NodeId node, StormShape shape, const TrafficConfig &tc,
                  std::uint64_t stream_seed, PacketInjector *inj,
                  const AddressMap *amap, const PacketSizes *sizes);

    NodeId node() const { return node_; }

    /** Advance one core cycle: generate arrivals, push the backlog. */
    void tick(Cycle now);

    /** Horizon passed, backlog flushed, every reply returned. */
    bool done() const;

    std::uint64_t offered() const { return offered_; }
    std::uint64_t injected() const { return injected_; }
    std::uint64_t delivered() const { return delivered_; }
    std::uint64_t dropped() const { return dropped_; }

    // PacketSink: replies are always consumed immediately.
    bool canAccept(const PacketPtr &) override { return true; }
    void accept(const PacketPtr &pkt, Cycle core_now) override;

  private:
    /** Offered arrivals per core cycle at @p now (profile-shaped). */
    double ratePerCycle(Cycle now) const;

    /** Pick the target line address (hotspot concentrates on hot CBs). */
    Addr pickAddr();

    NodeId node_;
    StormShape shape_;
    TrafficConfig tc_;
    PacketInjector *injector_;
    const AddressMap *amap_;
    const PacketSizes *sizes_;
    Rng rng_;

    Cycle horizon_;
    Cycle lastNow_ = 0;
    double acc_ = 0; ///< fractional arrival accumulator

    std::deque<PacketPtr> backlog_;
    int outstanding_ = 0;

    std::uint64_t offered_ = 0;
    std::uint64_t injected_ = 0;
    std::uint64_t delivered_ = 0;
    std::uint64_t dropped_ = 0;
};

} // namespace eqx

#endif // EQX_TRAFFIC_STORM_HH
