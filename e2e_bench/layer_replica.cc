#include "layer_replica.hh"

#include <chrono>

#include "common/logging.hh"
#include "schemes/scheme_registry.hh"
#include "traffic/traffic_registry.hh"

namespace eqx {

namespace {

using Clock = std::chrono::steady_clock;

double
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::nano>(b - a).count();
}

} // namespace

LayerReplica::LayerReplica(const SystemConfig &config,
                           const WorkloadProfile &profile)
    : cfg_(config),
      model_(cfg_.schemeKey.empty()
                 ? &SchemeRegistry::instance().byEnum(cfg_.scheme)
                 : &SchemeRegistry::instance().byName(cfg_.schemeKey))
{
    if (cfg_.fault.enabled() || !cfg_.traffic.trace.empty())
        eqx_fatal("layer replica: fault and trace configs are not "
                  "replicated");

    // Placement and networks, as System::buildPlacement/buildNetworks.
    designUsed_ = model_->placeCbs(cfg_, ownedDesign_, cbCoords_);
    for (const auto &c : cbCoords_)
        cbNodes_.push_back(static_cast<NodeId>(c.y * cfg_.width + c.x));
    SchemeBuild build{cfg_, cbCoords_, cbNodes_, designUsed_};
    for (auto &spec : model_->networkSpecs(build))
        nets_.push_back(std::make_unique<Network>(spec));

    // Endpoints, as System::buildEndpoints.
    int num_nodes = cfg_.width * cfg_.height;
    std::vector<bool> is_cb(static_cast<std::size_t>(num_nodes), false);
    amap_.lineBytes = 64;
    amap_.cbNodes = cbNodes_;
    for (NodeId n : cbNodes_)
        is_cb[static_cast<std::size_t>(n)] = true;
    tileSinks_.assign(static_cast<std::size_t>(num_nodes), nullptr);

    auto make_injector = [&](NodeId node, bool for_reply) {
        injectors_.push_back(
            model_->makeInjector(build, nets_, node, for_reply));
        return injectors_.back().get();
    };

    int num_cbs = static_cast<int>(cbNodes_.size());
    const TrafficModel &tm = TrafficRegistry::instance().byName(
        cfg_.traffic.model.empty() ? "synthetic" : cfg_.traffic.model);
    TrafficBuild tb{cfg_.traffic, profile, cfg_.seed,
                    num_nodes - num_cbs, num_cbs};
    traffic_ = tm.build(tb);

    int pe_index = 0;
    bool open_loop = traffic_->openLoop();
    for (NodeId n = 0; n < num_nodes; ++n) {
        auto slot = static_cast<std::size_t>(n);
        if (is_cb[slot]) {
            auto *inj = make_injector(n, /*for_reply=*/true);
            cbs_.push_back(std::make_unique<CacheBank>(n, cfg_.cb, inj,
                                                       &cfg_.sizes));
            if (traffic_->wantsCoherence())
                cbs_.back()->enableCoherence(
                    {cfg_.traffic.cohRegionLines});
            tileSinks_[slot] = cbs_.back().get();
        } else if (open_loop) {
            auto *inj = make_injector(n, /*for_reply=*/false);
            storms_.push_back(traffic_->makeEndpoint(
                pe_index, n, inj, &amap_, &cfg_.sizes));
            tileSinks_[slot] = storms_.back().get();
            ++pe_index;
        } else {
            auto *inj = make_injector(n, /*for_reply=*/false);
            pes_.push_back(std::make_unique<ProcessingElement>(
                n, cfg_.pe, traffic_->makeSource(pe_index), &amap_, inj,
                &cfg_.sizes));
            tileSinks_[slot] = pes_.back().get();
            ++pe_index;
        }
    }
    model_->wireSinks(build, nets_, tileSinks_, overlaySinks_);
}

LayerReplica::~LayerReplica() = default;

bool
LayerReplica::finished() const
{
    for (const auto &pe : pes_)
        if (!pe->done())
            return false;
    for (const auto &s : storms_)
        if (!s->done())
            return false;
    for (const auto &cb : cbs_)
        if (!cb->drained())
            return false;
    for (const auto &net : nets_)
        if (!net->drained())
            return false;
    return true;
}

void
LayerReplica::run(LayerTimes &t)
{
    t.netNs.resize(nets_.size(), 0.0);
    // One clock read closes each layer's span and opens the next, so
    // the spans tile the cycle; the remainder is the drain check and
    // loop overhead. An empty layer reads no clock and gets no time.
    Clock::time_point start = Clock::now();
    Clock::time_point prev = start;
    auto close = [&prev](double &acc) {
        Clock::time_point now = Clock::now();
        acc += nsBetween(prev, now);
        prev = now;
    };
    while (!finished() && cycle_ < cfg_.maxCycles) {
        ++cycle_;
        for (std::size_t i = 0; i < nets_.size(); ++i) {
            nets_[i]->coreTick(cycle_);
            close(t.netNs[i]);
        }
        if (!cbs_.empty()) {
            for (auto &cb : cbs_)
                cb->tick(cycle_);
            close(t.cbNs);
        }
        if (!pes_.empty()) {
            for (auto &pe : pes_)
                pe->tick(cycle_);
            close(t.peNs);
        }
        if (!storms_.empty()) {
            for (auto &s : storms_)
                s->tick(cycle_);
            close(t.stormNs);
        }
        if (cfg_.warmupCycles > 0 && cycle_ == cfg_.warmupCycles)
            for (auto &net : nets_)
                net->resetStats();
        ++t.cycles;
    }
    t.cycleNs += nsBetween(start, Clock::now());
}

std::uint64_t
LayerReplica::insts() const
{
    std::uint64_t n = 0;
    for (const auto &pe : pes_)
        n += pe->instsIssued();
    return n;
}

std::uint64_t
networkFlits(const Network &net)
{
    std::uint64_t flits = 0;
    for (NodeId n = 0; n < net.numRouters(); ++n) {
        const NetworkInterface &ni = net.ni(n);
        for (int b = 0; b < ni.numInjBuffers(); ++b)
            flits += ni.injBuffer(b).flitsInjected;
    }
    return flits;
}

} // namespace eqx
