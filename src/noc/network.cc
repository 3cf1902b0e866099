#include "noc/network.hh"

#include <algorithm>
#include <bit>
#include <iterator>

#include "common/logging.hh"

namespace eqx {

Network::Network(const NetworkSpec &spec)
    : params_(spec.params),
      topo_(makeTopology(spec.params.width, spec.params.height,
                         spec.params.topo))
{
    eqx_assert(params_.width >= 2 && params_.height >= 2,
               "mesh must be at least 2x2");
    eqx_assert(params_.vcsPerPort >= 1, "need at least one VC");
    // Router credit counters and VC ring cursors are byte-wide.
    eqx_assert(params_.vcDepthFlits >= 1 && params_.vcDepthFlits <= 127,
               "vcDepthFlits must be in [1, 127], got ",
               params_.vcDepthFlits);
    if (params_.classVcs)
        eqx_assert(params_.vcsPerPort >= 2,
                   "class-segregated VCs need >= 2 VCs");
    if (params_.coherenceVcs > 0) {
        eqx_assert(params_.classVcs,
                   "coherence VCs require class-segregated VC mode");
        eqx_assert(params_.vcsPerPort >= params_.coherenceVcs + 2,
                   "coherence VCs need vcsPerPort >= coherenceVcs + 2");
    }
    if (topo_->wraps()) {
        // The dateline discipline (DESIGN.md §17) stores its ring
        // class in the per-VC class slot, so it composes with neither
        // class-segregated VCs nor VC monopolization.
        eqx_assert(!params_.classVcs && !params_.vcMono,
                   "wrap topologies exclude classVcs/vcMono");
        eqx_assert(topo_->routerCols() >= 3 && topo_->routerRows() >= 3,
                   "torus rings need >= 3 routers per side");
        int need = params_.routing == RoutingMode::XY ? 2 : 3;
        eqx_assert(params_.vcsPerPort >= need,
                   "torus dateline VCs need vcsPerPort >= ", need,
                   " for this routing mode");
    }
    if (topo_->concentrated())
        eqx_assert(topo_->routerCols() >= 2 && topo_->routerRows() >= 2,
                   "cmesh router grid must be at least 2x2");

    int n = topo_->numNodes();
    int nr = topo_->numRouters();
    routers_.reserve(static_cast<std::size_t>(nr));
    for (NodeId i = 0; i < nr; ++i)
        routers_.emplace_back(i, topo_.get(), &params_, &activity_,
                              &tick_);

    // EIR interposer links: spans within the 1-cycle interposer reach
    // (2 hops) traverse in a single tick; longer links would need
    // repeaters and take a tick per reach-length segment.
    auto eirSpan = [&](NodeId cb, NodeId e) {
        return topo_->distance(topo_->coord(cb), topo_->coord(e));
    };
    auto eirLatency = [](int span) { return std::max(1, (span + 1) / 2); };

    // Power-of-two pending wheel above the longest channel latency, so
    // slot lookup is a mask. Sized before any channel exists: channels
    // post straight into it.
    int max_chan_lat = kChannelLatencyCycles;
    for (const auto &[cb, eirs] : spec.eirGroups) {
        eqx_assert(cb >= 0 && cb < n, "EIR group CB out of range");
        for (NodeId e : eirs) {
            eqx_assert(e >= 0 && e < n, "EIR node out of range");
            eqx_assert(e != cb, "a CB cannot be its own EIR");
            max_chan_lat = std::max(max_chan_lat, eirLatency(eirSpan(cb, e)));
        }
    }
    std::size_t wheel_slots = std::bit_ceil(
        static_cast<std::size_t>(max_chan_lat) + 1);
    pendingWheel_.assign(wheel_slots, {});
    wheelMask_ = static_cast<std::uint32_t>(wheel_slots - 1);

    // Each channel is tagged with the index its wire will take in the
    // matching wire table (kNiWire marks the NI-bound tables).
    auto newFlitChan = [&](int latency, std::uint32_t tag) {
        flitChans_.emplace_back(latency, pendingWheel_.data(), wheelMask_,
                                tag);
        return &flitChans_.back();
    };
    auto newCreditChan = [&](int latency, std::uint32_t tag) {
        creditChans_.emplace_back(latency, pendingWheel_.data(),
                                  wheelMask_, tag);
        return &creditChans_.back();
    };
    auto nextTag = [](const auto &wires) {
        return static_cast<std::uint32_t>(wires.size());
    };

    // Geo links: for every directed neighbour pair A -> B the topology
    // wires (mesh/cmesh grid edges, torus rings), a flit channel
    // (A out -> B in) plus the reverse credit channel. Routers ascend
    // and directions keep their fixed order, so mesh wiring is
    // byte-identical to the pre-topology builder.
    for (NodeId a = 0; a < nr; ++a) {
        for (Dir d : {Dir::North, Dir::East, Dir::South, Dir::West}) {
            int b = topo_->neighbor(a, d);
            if (b < 0)
                continue;
            auto *fc = newFlitChan(kChannelLatencyCycles,
                                   nextTag(routerFlitWires_));
            auto *cc = newCreditChan(kChannelLatencyCycles,
                                     nextTag(routerCreditWires_));
            int in_idx = routerRef(b).addInputPort(PortKind::Geo,
                                                   opposite(d), cc);
            int out_idx = routerRef(a).addOutputPort(
                PortKind::Geo, d, fc, params_.geoLinksInterposer);
            routerFlitWires_.push_back({b, in_idx});
            routerCreditWires_.push_back({a, out_idx});
        }
    }

    // NIs: one per endpoint tile, wired to the tile's router (the
    // tile itself except under concentration). Tiles ascend, so a
    // concentrated router collects its block's ejection ports in
    // ascending tile-id order — exactly Topology::tileSlot order, the
    // invariant the router's slot-indexed ejection relies on.
    nis_.reserve(static_cast<std::size_t>(n));
    for (NodeId i = 0; i < n; ++i) {
        NodeMods mods;
        auto mit = spec.mods.find(i);
        if (mit != spec.mods.end())
            mods = mit->second;
        bool is_eir_cb = spec.eirGroups.count(i) > 0;
        if (is_eir_cb)
            mods.kind = NiKind::EquiNox;

        std::unique_ptr<NetworkInterface> ni;
        switch (mods.kind) {
          case NiKind::Basic:
            ni = std::make_unique<BasicNi>(i, topo_.get(), &params_,
                                           &activity_, &latency_);
            break;
          case NiKind::MultiPort:
            ni = std::make_unique<MultiPortNi>(i, topo_.get(), &params_,
                                               &activity_, &latency_);
            break;
          case NiKind::EquiNox:
            ni = std::make_unique<EquiNoxNi>(i, topo_.get(), &params_,
                                             &activity_, &latency_);
            break;
        }

        NodeId r = topo_->routerOf(i);

        // Local injection port(s).
        for (int p = 0; p < mods.localInjPorts; ++p) {
            std::uint32_t wi = nextTag(routerFlitWires_);
            auto *fc = newFlitChan(1, wi);
            auto *cc = newCreditChan(1, kNiWire | nextTag(niCreditWires_));
            int in_idx = routerRef(r).addInputPort(PortKind::LocalInj,
                                                   Dir::Local, cc);
            int buf = ni->addInjBuffer(1, fc, r, /*interposer=*/false);
            routerFlitWires_.push_back({r, in_idx});
            niCreditWires_.push_back({i, buf});
            injWires_.push_back({wi, i, buf, r, /*interposer=*/false,
                                 /*spanHops=*/0, /*creditLatency=*/1});
        }

        // Ejection port(s).
        for (int p = 0; p < mods.localEjPorts; ++p) {
            auto *fc = newFlitChan(1, kNiWire | nextTag(niFlitWires_));
            auto *cc = newCreditChan(1, nextTag(routerCreditWires_));
            int ej = ni->addEjPort(cc);
            int out_idx = routerRef(r).addOutputPort(PortKind::LocalEj,
                                                     Dir::Local, fc);
            niFlitWires_.push_back({i, ej});
            routerCreditWires_.push_back({r, out_idx});
        }

        nis_.push_back(std::move(ni));
    }

    // EIR interposer links: CB NI buffer -> remote router extra port.
    for (const auto &[cb, eirs] : spec.eirGroups) {
        for (NodeId e : eirs) {
            NodeId er = topo_->routerOf(e);
            int span = eirSpan(cb, e);
            int lat = eirLatency(span);
            std::uint32_t wi = nextTag(routerFlitWires_);
            auto *fc = newFlitChan(lat, wi);
            auto *cc =
                newCreditChan(lat, kNiWire | nextTag(niCreditWires_));
            int in_idx = routerRef(er).addInputPort(PortKind::RemoteInj,
                                                    Dir::Local, cc);
            int buf = nis_[static_cast<std::size_t>(cb)]->addInjBuffer(
                1, fc, er, /*interposer=*/true);
            routerFlitWires_.push_back({er, in_idx});
            niCreditWires_.push_back({cb, buf});
            injWires_.push_back({wi, cb, buf, er, /*interposer=*/true,
                                 span, static_cast<Cycle>(lat)});
            ++remoteInjPorts_;
        }
    }

    // ---- Activity-driven scheduling state (DESIGN.md §10) ----
    activeRouters_ = ActiveSet(static_cast<std::size_t>(nr));
    activeNis_ = ActiveSet(static_cast<std::size_t>(n));
}

void
Network::armFaults(const FaultConfig &cfg, const std::string &name,
                   std::uint64_t seed)
{
    eqx_assert(!plane_, "armFaults: faults already armed");
    eqx_assert(tick_ == 0, "armFaults: network already ticked");
    if (!cfg.enabled())
        return;
    plane_ = std::make_unique<FaultPlane>(
        cfg, name, static_cast<FaultPlaneHost *>(this));
    wireFault_.assign(routerFlitWires_.size(), -1);
    for (const auto &iw : injWires_) {
        int id = plane_->addWire(iw.ni, iw.buf, iw.router,
                                 iw.interposer, iw.spanHops,
                                 iw.creditLatency);
        wireFault_[iw.wire] = id;
    }
    plane_->finalize(seed);
    for (auto &ni : nis_)
        ni->attachFaultPlane(plane_.get());
}

void
Network::faultDeliverAck(NodeId ni, NodeId peer, std::uint32_t seq)
{
    nis_[static_cast<std::size_t>(ni)]->ackArrived(peer, seq);
}

void
Network::faultReturnCredit(NodeId ni, int buf, int vc)
{
    nis_[static_cast<std::size_t>(ni)]->creditArrived(buf, vc);
}

void
Network::faultMaskBuffer(NodeId ni, int buf)
{
    nis_[static_cast<std::size_t>(ni)]->maskBuffer(buf);
}

int
Network::maskedInjBuffers() const
{
    int total = 0;
    for (const auto &ni : nis_)
        total += ni->maskedBuffers();
    return total;
}

void
Network::coreTick(Cycle core_cycle)
{
    coreCycle_ = core_cycle;
    int ticks = (core_cycle % 2 == 0) ? params_.ticksEvenCycle
                                      : params_.ticksOddCycle;
    for (int i = 0; i < ticks; ++i)
        internalTick();
}

void
Network::internalTick()
{
    ++tick_;
    if (plane_)
        plane_->tick(tick_);
    deliver();
    // One walk runs all three stages per router. Stages of distinct
    // routers cannot interact within a tick — every cross-router
    // effect rides a channel with latency >= 1 and lands in a later
    // deliver() — so the per-router walk equals running each stage
    // over the whole network in turn, while touching each router's
    // state once. The router active set cannot grow during the walk
    // (flits and credits only arrive in deliver()). A router leaves it
    // inline once its next visit is provably a no-op: drained (until
    // the next acceptFlit), or parked on credits (until deliver()
    // hands it a flit or a credit that can move it).
    activeRouters_.forEach([&](std::size_t i) {
        auto &r = routers_[i];
        r.tickStages(tick_);
        bool off = !r.hasBufferedFlits();
        if (!off && r.tryPark(tick_)) {
            ++parkedRouters_;
            off = true;
        }
        if (off)
            activeRouters_.clear(i);
    });
    // NI pass with inline deregistration: an idle NI (nothing queued,
    // mid-serialization, delivered or awaiting reassembly) is a no-op
    // until inject()/acceptEjectedFlit() re-activates it, and an NI
    // whose tick moved nothing repeats that tick until a credit, an
    // inject() or an ejected flit wakes it.
    activeNis_.forEach([&](std::size_t i) {
        auto &ni = *nis_[i];
        if (ni.parked()) {
            ni.unpark(tick_);
            --parkedNis_;
        }
        bool moved = ni.tick(tick_, coreCycle_);
        bool off = ni.idle();
        if (!off && !moved && ni.tryPark(tick_)) {
            ++parkedNis_;
            off = true;
        }
        if (off)
            activeNis_.clear(i);
    });
    if (parkedRouters_ != 0)
        checkParkedProgress();
}

void
Network::checkParkedProgress() const
{
    // Progress is still possible while any router or NI is active, any
    // flit or credit is on a wire, or the fault plane owes an event.
    if (activeRouters_.any() || activeNis_.any())
        return;
    for (const auto &slot : pendingWheel_)
        if (!slot.flits.empty() || !slot.credits.empty())
            return;
    if (plane_ && !plane_->quiescent())
        return;
    // Nothing can wake the parked routers: each waits on a credit or
    // an output VC only another parked router could release.
    constexpr int kShown = 16;
    std::string msg;
    int v = params_.vcsPerPort;
    auto vcName = [v](int flat) {
        return "(in " + std::to_string(flat / v) + " vc " +
               std::to_string(flat % v) + ")";
    };
    int shown = 0;
    for (const Router &r : routers_) {
        if (!r.parked() || ++shown > kShown)
            continue;
        msg += "\n  router " + std::to_string(r.id()) + ":";
        for (std::uint64_t m = r.saWaitingVcs(); m != 0; m &= m - 1) {
            int flat = std::countr_zero(m);
            Router::VcView vc = r.inputVc(flat / v, flat % v);
            msg += " " + vcName(flat) + " needs a credit for (out " +
                   std::to_string(vc.outPort) + " vc " +
                   std::to_string(vc.outVc) + ");";
        }
        for (std::uint64_t m = r.vaWaitingVcs(); m != 0; m &= m - 1) {
            int flat = std::countr_zero(m);
            Router::VcView vc = r.inputVc(flat / v, flat % v);
            msg += " " + vcName(flat) + " needs a free VC on out";
            for (int p : vc.routeCandidates)
                msg += " " + std::to_string(p);
            msg += ";";
        }
    }
    if (shown > kShown)
        msg += "\n  ... and " + std::to_string(shown - kShown) + " more";
    eqx_fatal("network '", params_.name, "' deadlocked at tick ", tick_,
              ": ", parkedRouters_, " router(s) parked with nothing "
              "active and nothing in flight to wake them:", msg);
}

void
Network::deliver()
{
    auto &slot = pendingWheel_[tick_ & wheelMask_];
    // Flits first, then credits — credits only increment counters, and
    // every delivery lands before the stage passes, so the relative
    // order is unobservable. Arrival order scatters targets across the
    // arena, so each iteration prefetches the next event's router to
    // overlap the dependent-load latency.
    for (std::size_t k = 0; k < slot.flits.size(); ++k) {
        if (k + 1 < slot.flits.size()) {
            const auto &nx = slot.flits[k + 1];
            if (!(nx.wire & kNiWire))
                __builtin_prefetch(&routers_[static_cast<std::size_t>(
                    routerFlitWires_[nx.wire].router)]);
        }
        auto &ev = slot.flits[k];
        if (ev.wire & kNiWire) {
            const auto &w = niFlitWires_[ev.wire & ~kNiWire];
            nis_[static_cast<std::size_t>(w.ni)]->acceptEjectedFlit(
                w.ejPort, std::move(ev.f));
            activeNis_.set(w.ni);
            continue;
        }
        // The fault plane acts on injection wires at delivery
        // (DESIGN.md §11): a stalled wire withholds its flit a tick, a
        // checksum mismatch drops it.
        if (plane_ && wireFault_[ev.wire] >= 0) {
            int fw = wireFault_[ev.wire];
            if (plane_->wireStalled(fw, tick_)) {
                withheld_.push_back(std::move(ev));
                continue;
            }
            plane_->touchFlit(fw, ev.f);
            if (ev.f.fcs != flitFcs(ev.f)) {
                plane_->onChecksumDrop(fw, ev.f, tick_);
                continue;
            }
        }
        const auto &w = routerFlitWires_[ev.wire];
        Router &r = routers_[static_cast<std::size_t>(w.router)];
        if (r.parked()) {
            r.unpark(tick_); // settle before the flit changes its state
            --parkedRouters_;
        }
        r.acceptFlit(w.port, std::move(ev.f), tick_);
        activeRouters_.set(w.router);
    }
    slot.flits.clear();
    if (!withheld_.empty()) {
        // Withheld flits retry next tick ahead of that slot's own
        // arrivals, which their wires sent later: per-wire FIFO order
        // holds whatever the wire latency.
        auto &next = pendingWheel_[(tick_ + 1) & wheelMask_].flits;
        next.insert(next.begin(), std::make_move_iterator(withheld_.begin()),
                    std::make_move_iterator(withheld_.end()));
        withheld_.clear();
    }
    for (std::size_t k = 0; k < slot.credits.size(); ++k) {
        if (k + 1 < slot.credits.size()) {
            const auto &nx = slot.credits[k + 1];
            if (!(nx.wire & kNiWire))
                __builtin_prefetch(&routers_[static_cast<std::size_t>(
                    routerCreditWires_[nx.wire].router)]);
        }
        // A credit wakes a parked component; every other one is on
        // its active set already or holds nothing a credit could move.
        const auto &ev = slot.credits[k];
        if (ev.wire & kNiWire) {
            const auto &w = niCreditWires_[ev.wire & ~kNiWire];
            NetworkInterface &ni = *nis_[static_cast<std::size_t>(w.ni)];
            ni.creditArrived(w.buf, ev.c.vc);
            if (ni.parked())
                activeNis_.set(w.ni);
        } else {
            const auto &w = routerCreditWires_[ev.wire];
            Router &r = routers_[static_cast<std::size_t>(w.router)];
            if (r.creditArrived(w.port, ev.c.vc) && r.parked()) {
                r.unpark(tick_);
                --parkedRouters_;
                activeRouters_.set(w.router);
            }
        }
    }
    slot.credits.clear();
}

bool
Network::inject(NodeId node, const PacketPtr &pkt)
{
    eqx_assert(node >= 0 && node < topo_->numNodes(), "inject: bad node");
    if (!nis_[static_cast<std::size_t>(node)]->inject(pkt, tick_))
        return false;
    activeNis_.set(node);
    return true;
}

bool
Network::canInject(NodeId node) const
{
    return nis_[static_cast<std::size_t>(node)]->canInject();
}

void
Network::setSink(NodeId node, PacketSink *sink)
{
    nis_[static_cast<std::size_t>(node)]->setSink(sink);
}

std::vector<double>
Network::routerResidenceMeans() const
{
    std::vector<double> means;
    means.reserve(routers_.size());
    for (const auto &r : routers_)
        means.push_back(r.residenceStat().mean());
    return means;
}

double
Network::residenceVariance() const
{
    RunningStat rs;
    for (double m : routerResidenceMeans())
        rs.add(m);
    return rs.variance();
}

void
Network::resetStats()
{
    activity_.reset();
    latency_.reset();
    for (auto &r : routers_)
        r.resetStats(tick_);
    for (auto &ni : nis_)
        ni->resetStats(tick_);
    if (plane_)
        plane_->resetStats();
}

namespace {

/** Append a stable, human-readable key segment for a router port. */
void
appendPortLabel(std::string &key, PortKind kind, Dir dir,
                int nth_of_kind)
{
    switch (kind) {
      case PortKind::Geo:
        key += dirName(dir);
        return;
      case PortKind::LocalInj:
        key += "inj";
        break;
      case PortKind::LocalEj:
        key += "ej";
        break;
      case PortKind::RemoteInj:
        key += "rinj";
        break;
      default:
        key += 'p';
        break;
    }
    key += std::to_string(nth_of_kind);
}

} // namespace

void
Network::exportStats(StatGroup &sg, const std::string &prefix) const
{
    // One reusable key buffer for the whole export: every metric key
    // is built by truncating back to a mark and appending, instead of
    // allocating prefix + "." + key strings per metric per router.
    std::string key;
    key.reserve(prefix.size() + 64);
    key = prefix;
    key += '.';
    const std::size_t root = key.size();
    auto emit = [&](double v) { sg.set(key, v); };
    auto setAt = [&](std::size_t mark, const char *suffix, double v) {
        key.resize(mark);
        key += suffix;
        emit(v);
    };

    // Aggregate activity and per-class latency (ticks).
    setAt(root, "act.buffer_writes",
          static_cast<double>(activity_.bufferWrites));
    setAt(root, "act.xbar", static_cast<double>(activity_.xbarTraversals));
    setAt(root, "act.link_flits", static_cast<double>(activity_.linkFlits));
    setAt(root, "act.interposer_flits",
          static_cast<double>(activity_.interposerLinkFlits));
    // Fault/recovery counters, present only on armed networks so the
    // un-faulted export schema is untouched.
    if (plane_) {
        const FaultStats &fs = plane_->stats();
        key.resize(root);
        key += "fault.";
        const std::size_t fk = key.size();
        setAt(fk, "seq_packets", static_cast<double>(fs.seqPackets));
        setAt(fk, "delivered", static_cast<double>(fs.delivered));
        setAt(fk, "duplicates", static_cast<double>(fs.duplicates));
        setAt(fk, "retx", static_cast<double>(fs.retransmissions));
        setAt(fk, "lost", static_cast<double>(fs.lost));
        setAt(fk, "acks", static_cast<double>(fs.acks));
        setAt(fk, "worms_dropped",
              static_cast<double>(fs.wormsDropped));
        setAt(fk, "flits_dropped",
              static_cast<double>(fs.flitsDropped));
        setAt(fk, "credits_reconciled",
              static_cast<double>(fs.creditsReconciled));
        setAt(fk, "stall_events", static_cast<double>(fs.stallEvents));
        setAt(fk, "corrupt_events",
              static_cast<double>(fs.corruptEvents));
        setAt(fk, "kill_events", static_cast<double>(fs.killEvents));
        setAt(fk, "mask_events", static_cast<double>(fs.maskEvents));
        setAt(fk, "masked_ports",
              static_cast<double>(maskedInjBuffers()));
    }

    static const char *cls_name[2] = {"req", "rep"};
    for (int c = 0; c < 2; ++c) {
        key.resize(root);
        key += "lat.";
        key += cls_name[c];
        key += '.';
        const std::size_t cls = key.size();
        setAt(cls, "packets", static_cast<double>(latency_.packets[c]));
        setAt(cls, "mean", latency_.totalLat[c].mean());
        setAt(cls, "p50", latency_.totalHist[c].percentile(0.50));
        setAt(cls, "p95", latency_.totalHist[c].percentile(0.95));
        setAt(cls, "p99", latency_.totalHist[c].percentile(0.99));
    }

    // Per-router counters, ports keyed by direction / kind.
    for (const Router &r : routers_) {
        key.resize(root);
        key += "router.";
        key += std::to_string(r.id());
        key += '.';
        const std::size_t rk = key.size();
        setAt(rk, "flits", static_cast<double>(r.flitsForwarded()));
        setAt(rk, "va_req", static_cast<double>(r.vaRequests(tick_)));
        setAt(rk, "va_grant", static_cast<double>(r.vaGrants()));
        setAt(rk, "sa_req", static_cast<double>(r.saRequests()));
        setAt(rk, "sa_grant", static_cast<double>(r.saGrants()));
        setAt(rk, "credit_stall",
              static_cast<double>(r.creditStallCycles()));
        setAt(rk, "occ_mean", r.occupancyMean(tick_));
        setAt(rk, "residence_mean", r.residenceStat().mean());
        int nth[4] = {0, 0, 0, 0};
        for (int p = 0; p < r.numInputPorts(); ++p) {
            const Router::PortView ip = r.inputPort(p);
            int k = static_cast<int>(ip.kind);
            key.resize(rk);
            key += "in.";
            appendPortLabel(key, ip.kind, ip.dir, nth[k]++);
            key += ".flits";
            emit(static_cast<double>(ip.flits));
        }
        nth[0] = nth[1] = nth[2] = nth[3] = 0;
        for (int p = 0; p < r.numOutputPorts(); ++p) {
            const Router::PortView op = r.outputPort(p);
            int k = static_cast<int>(op.kind);
            key.resize(rk);
            key += "out.";
            appendPortLabel(key, op.kind, op.dir, nth[k]++);
            key += ".flits";
            emit(static_cast<double>(op.flits));
        }
    }

    // Per-NI injection-buffer loads. Buffer 0 is always the local
    // router; EquiNox CB NIs additionally carry one buffer per EIR, so
    // these keys are the measured per-injection-point loads the MCTS
    // evaluator predicts.
    for (const auto &nip : nis_) {
        const NetworkInterface &ni = *nip;
        key.resize(root);
        key += "ni.";
        key += std::to_string(ni.node());
        key += ".buf";
        const std::size_t nk = key.size();
        for (int b = 0; b < ni.numInjBuffers(); ++b) {
            const auto &buf = ni.injBuffer(b);
            key.resize(nk);
            key += std::to_string(b);
            key += '.';
            const std::size_t bk = key.size();
            setAt(bk, "router", static_cast<double>(buf.targetRouter));
            setAt(bk, "packets",
                  static_cast<double>(buf.packetsInjected));
            setAt(bk, "flits", static_cast<double>(buf.flitsInjected));
            setAt(bk, "stall",
                  static_cast<double>(ni.creditStallTicks(b, tick_)));
        }
    }
}

bool
Network::drained() const
{
    for (const auto &r : routers_)
        if (r.hasBufferedFlits())
            return false;
    for (const auto &ni : nis_)
        if (!ni->idle())
            return false;
    for (const auto &slot : pendingWheel_)
        if (!slot.flits.empty()) // flits in flight on a wire
            return false;
    // A pending recovery event (ack, reconciliation credit, mask) is
    // as real as a buffered flit.
    if (plane_ && !plane_->quiescent())
        return false;
    return true;
}

void
Network::settleParkedStats()
{
    for (auto &ni : nis_)
        if (ni->parked())
            ni->settleParked(tick_);
}

bool
Network::activeSetsConsistent()
{
    // Off the set => the next visit would be a no-op: drained, or
    // parked with the park condition still holding. A woken NI keeps
    // its park until the visit settles it, so it may be on the set.
    int parked = 0;
    for (std::size_t i = 0; i < routers_.size(); ++i) {
        const Router &r = routers_[i];
        bool active = activeRouters_.test(i);
        parked += r.parked();
        if (active ? r.parked()
                   : r.hasBufferedFlits() && !(r.parked() && r.canPark()))
            return false;
    }
    if (parked != parkedRouters_)
        return false;
    parked = 0;
    for (std::size_t i = 0; i < nis_.size(); ++i) {
        NetworkInterface &ni = *nis_[i];
        bool active = activeNis_.test(i);
        parked += ni.parked();
        if (!active && !ni.idle() && !(ni.parked() && ni.parkHolds()))
            return false;
    }
    return parked == parkedNis_;
}

} // namespace eqx
