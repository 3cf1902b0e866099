#include "traffic/storm.hh"

#include "common/logging.hh"
#include "runner/stream_seed.hh"
#include "traffic/registration.hh"
#include "traffic/traffic_registry.hh"

namespace eqx {

namespace {

/** Line-index space per CB: 2^20 lines (64 MB) keeps the L2 missing. */
constexpr std::uint64_t kStormLinesPerCb = 1ULL << 20;

} // namespace

StormEndpoint::StormEndpoint(NodeId node, StormShape shape,
                             const TrafficConfig &tc,
                             std::uint64_t stream_seed,
                             PacketInjector *inj, const AddressMap *amap,
                             const PacketSizes *sizes)
    : node_(node), shape_(shape), tc_(tc), injector_(inj), amap_(amap),
      sizes_(sizes), rng_(stream_seed),
      horizon_(static_cast<Cycle>(tc.stormHorizon))
{
    eqx_assert(tc_.stormRatePerK > 0, "storm rate must be positive");
    eqx_assert(tc_.stormQueueCap >= 1, "storm queue cap must be >= 1");
}

double
StormEndpoint::ratePerCycle(Cycle now) const
{
    double peak = tc_.stormRatePerK / 1000.0;
    double trough = tc_.stormTrough;
    switch (shape_) {
      case StormShape::Diurnal: {
          // Piecewise-linear triangle (no libm: bit-exact everywhere):
          // trough at the horizon's edges, peak at its midpoint.
          double phase = static_cast<double>(now) /
                         static_cast<double>(horizon_);
          double tri = phase < 0.5 ? 2.0 * phase : 2.0 - 2.0 * phase;
          return peak * (trough + (1.0 - trough) * tri);
      }
      case StormShape::Flash: {
          // Flash crowd: a step spike over the middle fifth.
          Cycle lo = horizon_ * 2 / 5, hi = horizon_ * 3 / 5;
          return peak * (now >= lo && now < hi ? 1.0 : trough);
      }
      case StormShape::Hotspot:
          return peak;
    }
    return peak;
}

Addr
StormEndpoint::pickAddr()
{
    auto num_cbs = static_cast<std::uint64_t>(amap_->cbNodes.size());
    std::uint64_t cb;
    if (shape_ == StormShape::Hotspot) {
        auto hot = static_cast<std::uint64_t>(tc_.stormHotCbs);
        if (hot > num_cbs)
            hot = num_cbs;
        cb = rng_.chance(tc_.stormHotFrac) ? rng_.nextBounded(hot)
                                           : rng_.nextBounded(num_cbs);
    } else {
        cb = rng_.nextBounded(num_cbs);
    }
    std::uint64_t line = rng_.nextBounded(kStormLinesPerCb) * num_cbs + cb;
    return line * static_cast<Addr>(amap_->lineBytes);
}

void
StormEndpoint::tick(Cycle now)
{
    lastNow_ = now;
    if (now < horizon_) {
        acc_ += ratePerCycle(now);
        while (acc_ >= 1.0) {
            acc_ -= 1.0;
            ++offered_;
            if (static_cast<int>(backlog_.size()) >= tc_.stormQueueCap) {
                ++dropped_; // open-loop loss: the backlog is saturated
                continue;
            }
            bool is_write = rng_.chance(tc_.stormWriteFrac);
            Addr addr = pickAddr();
            PacketType t = is_write ? PacketType::WriteRequest
                                    : PacketType::ReadRequest;
            backlog_.push_back(makePacket(t, node_, amap_->cbNodeOf(addr),
                                          sizes_->bitsFor(t), addr,
                                          kStormTag));
        }
    }
    // Open-loop NI admission: push until the NI refuses — the backlog
    // (not a latency-tolerance window) is the only throttle.
    while (!backlog_.empty() && injector_->tryInject(backlog_.front())) {
        backlog_.pop_front();
        ++injected_;
        ++outstanding_;
    }
}

bool
StormEndpoint::done() const
{
    return lastNow_ >= horizon_ && backlog_.empty() && outstanding_ == 0;
}

void
StormEndpoint::accept(const PacketPtr &pkt, Cycle)
{
    eqx_assert(isReply(pkt->type),
               "storm endpoint received a request packet");
    eqx_assert(pkt->tag == kStormTag,
               "non-storm reply delivered to a storm endpoint");
    ++delivered_;
    --outstanding_;
}

namespace {

/** One run of a storm model: per-tile endpoints of one shape. */
class StormInstance final : public TrafficInstance
{
  public:
    StormInstance(const TrafficBuild &b, StormShape shape)
        : tc_(b.traffic), seed_(b.seed), shape_(shape)
    {
    }

    bool openLoop() const override { return true; }

    std::unique_ptr<StormEndpoint>
    makeEndpoint(int, NodeId node, PacketInjector *inj,
                 const AddressMap *amap, const PacketSizes *sizes) override
    {
        // Per-node decorrelated stream, hashed (not forked) so the
        // arrival pattern is independent of endpoint construction
        // order.
        return std::make_unique<StormEndpoint>(
            node, shape_, tc_,
            deriveStreamSeed(seed_, "storm",
                             static_cast<std::uint64_t>(node)),
            inj, amap, sizes);
    }

  private:
    TrafficConfig tc_;
    std::uint64_t seed_;
    StormShape shape_;
};

/** A storm-* traffic model: one StormShape under its registry names. */
class StormModel final : public TrafficModel
{
  public:
    StormModel(std::string name, std::vector<std::string> aliases,
               StormShape shape)
        : name_(std::move(name)), aliases_(std::move(aliases)),
          shape_(shape)
    {
    }

    std::string name() const override { return name_; }
    std::vector<std::string> aliases() const override { return aliases_; }

    std::unique_ptr<TrafficInstance>
    build(const TrafficBuild &b) const override
    {
        return std::make_unique<StormInstance>(b, shape_);
    }

  private:
    std::string name_;
    std::vector<std::string> aliases_;
    StormShape shape_;
};

} // namespace

void
registerStormTraffic(TrafficRegistry &r)
{
    r.add(std::make_unique<StormModel>(
        "storm-diurnal", std::vector<std::string>{"diurnal"},
        StormShape::Diurnal));
    r.add(std::make_unique<StormModel>(
        "storm-flash", std::vector<std::string>{"flash", "flash-crowd"},
        StormShape::Flash));
    r.add(std::make_unique<StormModel>(
        "storm-hotspot", std::vector<std::string>{"hotspot"},
        StormShape::Hotspot));
}

} // namespace eqx
