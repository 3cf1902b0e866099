#include "noc/router.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"
#include "noc/routing.hh"

namespace eqx {

Router::Router(NodeId id, const Topology *topo, const NocParams *params,
               NetworkActivity *activity, const Cycle *clock)
    : params_(params), activity_(activity), id_(id), topo_(topo),
      clock_(clock)
{
    eqx_assert(topo_ && params_ && activity_ && clock_,
               "router needs its context");
    coord_ = topo_->routerCoord(id_);
    wrap_ = topo_->wraps();
    concentrated_ = topo_->concentrated();
}

int
Router::addInputPort(PortKind kind, Dir dir, Channel<Credit> *credit_up)
{
    eqx_assert(kind != PortKind::LocalEj, "LocalEj is an output kind");
    eqx_assert(inputs_.size() < kMaxInPorts,
               "per-input-port state supports at most 32 input ports");
    eqx_assert((inputs_.size() + 1) *
                       static_cast<std::size_t>(params_->vcsPerPort) <=
                   kMaxInVcs,
               "pending-VC bitmasks support at most 64 input VCs");
    inputs_.push_back({kind, dir});
    int idx = static_cast<int>(inputs_.size()) - 1;
    creditUp_[idx] = credit_up;
    flitStore_.resize(inputs_.size() *
                      static_cast<std::size_t>(params_->vcsPerPort) *
                      static_cast<std::size_t>(params_->vcDepthFlits));
    return idx;
}

int
Router::addOutputPort(PortKind kind, Dir dir, Channel<Flit> *out,
                      bool interposer)
{
    eqx_assert(kind == PortKind::Geo || kind == PortKind::LocalEj,
               "outputs connect to neighbours or the NI ejection side");
    eqx_assert(outputs_.size() < kMaxOutPorts,
               "SA port bitmask supports at most 32 output ports");
    eqx_assert((outputs_.size() + 1) *
                       static_cast<std::size_t>(params_->vcsPerPort) <=
                   kMaxOutVcs,
               "flat output-VC state supports at most 64 output VCs");
    outputs_.push_back({kind, dir});
    int idx = static_cast<int>(outputs_.size()) - 1;
    // Every downstream VC buffer is vcDepthFlits deep (Network
    // validates the byte-wide range), so each output VC starts free.
    for (int vi = 0; vi < params_->vcsPerPort; ++vi) {
        int of = idx * params_->vcsPerPort + vi;
        outCredits_[of] = static_cast<std::int8_t>(params_->vcDepthFlits);
        freeOutVcs_ |= std::uint64_t{1} << of;
    }
    outChan_[idx] = out;
    if (interposer)
        outInterposer_ |= std::uint32_t{1} << idx;
    if (kind == PortKind::Geo) {
        outIsGeo_ |= std::uint32_t{1} << idx;
        dirPort_[static_cast<int>(dir)] = static_cast<std::int8_t>(idx);
    } else if (concentrated_) {
        // Concentrated routers eject by destination tile slot
        // (destSub_ indexes ejPorts_ directly), so the fixed
        // candidate array — and its kMaxRouteCand cap, which a c x c
        // block of ejection ports would overflow — is not maintained.
        ejPorts_.push_back(idx);
    } else {
        ejPorts_.push_back(idx);
        eqx_assert(ejCandCount_ < kMaxRouteCand,
                   "too many ejection ports for the fixed candidate set");
        ejCand_[ejCandCount_++] = static_cast<std::int8_t>(idx);
    }
    return idx;
}

void
Router::acceptFlit(int in_port, Flit f, Cycle now)
{
    eqx_assert(in_port >= 0 && in_port < numInputPorts(),
               "bad input port ", in_port, " at router ", id_);
    int v = params_->vcsPerPort;
    int depth = params_->vcDepthFlits;
    eqx_assert(f.vc >= 0 && f.vc < v, "bad VC on arriving flit");
    f.arrived = now;
    int flat = in_port * v + f.vc;
    // Class bookkeeping feeds classVcRange()/monopolyAllowed() only;
    // plain networks skip the packet dereference entirely.
    if (params_->classVcs || params_->vcMono) {
        int cls = packetVcClass(f.pkt->type, *params_);
        lastSeenClass_[cls] = now;
        seenClass_[cls] = true;
        if (vc_[flat].count == 0)
            vc_[flat].cls = static_cast<std::uint8_t>(cls);
    }
    std::uint64_t bit = std::uint64_t{1} << flat;
    if (vc_[flat].state == VcState::Idle) {
        rcPending_ |= bit; // fresh head flit awaiting route compute
        if (vc_[flat].count == 0) {
            // Cache the head-flit facts RC reads every visit, so the
            // stage walks never touch the Packet. Routing happens in
            // router space: identical to tile space except on
            // concentrated topologies, where the destination's tile
            // slot is kept alongside for slot-indexed ejection.
            Coord dest = concentrated_
                             ? topo_->routerCoordOf(f.pkt->dst)
                             : topo_->coord(f.pkt->dst);
            vc_[flat].destX = static_cast<std::int8_t>(dest.x);
            vc_[flat].destY = static_cast<std::int8_t>(dest.y);
            if (concentrated_)
                destSub_[flat] = static_cast<std::int8_t>(
                    topo_->tileSlot(f.pkt->dst));
            vc_[flat].headOk = f.isHead;
        }
    } else if (vc_[flat].state == VcState::Active) {
        saPending_ |= bit; // body flit joins the switch competition
    }
    eqx_assert(vc_[flat].count < depth,
               "VC buffer overflow at router ", id_);
    int slot = vc_[flat].head + vc_[flat].count;
    if (slot >= depth)
        slot -= depth;
    flitStore_[static_cast<std::size_t>(flat * depth + slot)] =
        std::move(f);
    ++vc_[flat].count;
    ++bufferedFlits_;
    ++inFlitsAccepted_[in_port];
    ++activity_->bufferWrites;
}

void
Router::classVcRange(int cls, int &lo, int &hi) const
{
    int v = params_->vcsPerPort;
    int coh = params_->coherenceVcs;
    if (cls == 2) {
        // Coherence class: the reserved top VCs (only reachable when
        // coherenceVcs > 0, enforced at packet classification).
        lo = v - coh;
        hi = v - 1;
        return;
    }
    // Request/reply split the remaining VCs exactly as before; with
    // coherenceVcs == 0 this is byte-identical to the legacy layout.
    int base = v - coh;
    int half = base / 2;
    if (half == 0)
        half = 1;
    if (cls == 0) {
        lo = 0;
        hi = std::min(half, base) - 1;
    } else {
        lo = std::min(half, base - 1);
        hi = base - 1;
    }
}

bool
Router::monopolyAllowed(int cls, Cycle now) const
{
    if (!params_->vcMono)
        return false;
    // Only replies may monopolize request-class VCs: replies are always
    // sunk at PE NIs, so borrowed request VCs still drain. Letting
    // requests borrow reply VCs would close the classic request/reply
    // protocol-deadlock cycle, and the coherence class stays pinned to
    // its reserved VCs so the fan-out can never starve either class.
    if (cls != 1)
        return false;
    if (!seenClass_[0])
        return true;
    return now - lastSeenClass_[0] >
           static_cast<Cycle>(params_->vcMonoWindow);
}

void
Router::routeVcFlat(int flat)
{
    Coord dest{vc_[flat].destX, vc_[flat].destY};
    int nc = 0;
    bool ejecting = dest == coord_;
    if (ejecting) {
        if (concentrated_) {
            // Slot-indexed ejection: the destination tile's rank
            // within this router's block picks its ejection port.
            int slot = destSub_[flat];
            eqx_assert(slot >= 0 &&
                           slot < static_cast<int>(ejPorts_.size()),
                       "router ", id_, " has no ejection port for "
                       "tile slot ", slot);
            vc_[flat].cand[nc++] = static_cast<std::int8_t>(
                ejPorts_[static_cast<std::size_t>(slot)]);
        } else {
            eqx_assert(ejCandCount_ > 0,
                       "router ", id_, " has no ejection port");
            for (int i = 0; i < ejCandCount_; ++i)
                vc_[flat].cand[nc++] = ejCand_[i];
        }
    } else if (wrap_) {
        // Wrap-aware route compute (torus): candidate 0 is always
        // the dimension-order escape direction; the head's dateline
        // class rides in vc_[flat].cls (free here — wrap topologies
        // exclude classVcs/vcMono) for the VC allocator's escape
        // window. Recomputed per hop: the class is a pure function of
        // (router, destination), so it stays valid while parked.
        RouteCandidates dirs = topo_->minimalRouterDirs(coord_, dest);
        eqx_assert(!dirs.empty(), "non-ejecting head with no route");
        bool adaptive =
            params_->routing == RoutingMode::MinimalAdaptive;
        int take = adaptive ? dirs.size() : 1;
        for (int i = 0; i < take; ++i) {
            std::int8_t p = dirPort_[static_cast<int>(dirs[i])];
            eqx_assert(p >= 0, "torus direction port missing");
            vc_[flat].cand[nc++] = p;
        }
        vc_[flat].cls = static_cast<std::uint8_t>(
            topo_->wrapClass(coord_, dest, dirs[0]));
    } else if (params_->routing == RoutingMode::XY || params_->classVcs) {
        std::int8_t p = dirPort_[static_cast<int>(
            xyDirection(coord_, dest))];
        eqx_assert(p >= 0, "XY direction port missing");
        vc_[flat].cand[nc++] = p;
    } else {
        // Minimal adaptive: x-dimension candidate first so that
        // candidate 0 is always the XY (escape) port.
        if (dest.x != coord_.x)
            vc_[flat].cand[nc++] =
                dirPort_[dest.x > coord_.x
                             ? static_cast<int>(Dir::East)
                             : static_cast<int>(Dir::West)];
        if (dest.y != coord_.y)
            vc_[flat].cand[nc++] =
                dirPort_[dest.y > coord_.y
                             ? static_cast<int>(Dir::South)
                             : static_cast<int>(Dir::North)];
        eqx_assert(nc > 0 && vc_[flat].cand[0] >= 0,
                   "minimal direction port missing");
    }
    vc_[flat].candCount = static_cast<std::uint8_t>(nc);
    vc_[flat].ejecting = ejecting;
    vc_[flat].state = VcState::RouteComputed;
}

void
Router::routeComputeStage(Cycle)
{
    std::uint64_t m = rcPending_;
    while (m != 0) {
        int flat = std::countr_zero(m);
        m &= m - 1;
        std::uint64_t bit = std::uint64_t{1} << flat;
        if (vc_[flat].state != VcState::Idle || vc_[flat].count == 0) {
            rcPending_ &= ~bit; // stale: nothing left to route
            continue;
        }
        if (!vc_[flat].headOk)
            continue;
        routeVcFlat(flat);
        rcPending_ &= ~bit;
        vaPending_ |= bit;
    }
}

bool
Router::chooseVcRequest(int flat, Cycle now, int &req_port,
                        int &req_vc) const
{
    int v = params_->vcsPerPort;

    // Determine the permitted VC window on non-ejection ports.
    int lo = 0, hi = v - 1;
    bool adaptive = params_->routing == RoutingMode::MinimalAdaptive &&
                    !params_->classVcs;
    if (params_->classVcs && !monopolyAllowed(vc_[flat].cls, now))
        classVcRange(vc_[flat].cls, lo, hi);
    else if (wrap_ && !adaptive) {
        // Torus XY: split the VCs into dateline halves. Class 0
        // ("wrap link still ahead on the current ring") and class 1
        // never share a VC, which breaks every ring cycle
        // (DESIGN.md §17). Network asserts vcsPerPort >= 2 here.
        int half = v / 2;
        lo = vc_[flat].cls ? half : 0;
        hi = vc_[flat].cls ? v - 1 : half - 1;
    }

    const std::int8_t *cand = vc_[flat].cand;
    int nc = vc_[flat].candCount;

    // Every free VC holds exactly vcDepthFlits credits (atomic VC
    // rule), so the max-credit tie-break degenerates to "first free VC
    // in scan order": one mask-and-scan per candidate port.
    // freeOutVcs_ is maintained at every busy/credit transition.
    auto firstFree = [&](int port, int lo_vc, int hi_vc) -> int {
        std::uint64_t m = (freeOutVcs_ >> (port * v)) &
                          ((std::uint64_t{2} << hi_vc) -
                           (std::uint64_t{1} << lo_vc));
        return m ? std::countr_zero(m) : -1;
    };
    if (vc_[flat].ejecting) {
        for (int i = 0; i < nc; ++i) {
            int vc = firstFree(cand[i], 0, v - 1);
            if (vc >= 0) {
                req_port = cand[i];
                req_vc = vc;
                return true;
            }
        }
        return false;
    }
    if (adaptive) {
        if (wrap_) {
            // Torus escape discipline (Duato over the dateline
            // subnetwork): the top two VCs form the escape pair, v-2
            // for class 0 (wrap link ahead) and v-1 for class 1. The
            // per-ring (position, class) order strictly increases
            // along escape hops, so the escape subnetwork is
            // cycle-free (DESIGN.md §17). Network asserts
            // vcsPerPort >= 3 here.
            int esc = v - 2 + vc_[flat].cls;
            if (flat % v >= v - 2) {
                // Escape input: stay on the dateline pair, XY
                // (candidate 0) only.
                int vc = firstFree(cand[0], esc, esc);
                if (vc < 0)
                    return false;
                req_port = cand[0];
                req_vc = vc;
                return true;
            }
            for (int i = 0; i < nc; ++i) {
                int vc = firstFree(cand[i], 0, v - 3);
                if (vc >= 0) {
                    req_port = cand[i];
                    req_vc = vc;
                    return true;
                }
            }
            // Blocked on all adaptive VCs: fall into escape.
            int vc = firstFree(cand[0], esc, esc);
            if (vc >= 0) {
                req_port = cand[0];
                req_vc = vc;
                return true;
            }
            return false;
        }
        if (flat % v == escapeVc() && v > 1) {
            // Escape discipline: stay on the escape VC along XY.
            int vc = firstFree(cand[0], escapeVc(), escapeVc());
            if (vc < 0)
                return false;
            req_port = cand[0];
            req_vc = vc;
            return true;
        }
        int adaptive_vcs = std::max(1, v - 1);
        for (int i = 0; i < nc; ++i) {
            int vc = firstFree(cand[i], 0, adaptive_vcs - 1);
            if (vc >= 0) {
                req_port = cand[i];
                req_vc = vc;
                return true;
            }
        }
        if (v > 1) {
            // Blocked on all adaptive VCs: fall into escape.
            int vc = firstFree(cand[0], escapeVc(), escapeVc());
            if (vc >= 0) {
                req_port = cand[0];
                req_vc = vc;
                return true;
            }
        }
        return false;
    }
    for (int i = 0; i < nc; ++i) {
        int vc = firstFree(cand[i], lo, hi);
        if (vc >= 0) {
            req_port = cand[i];
            req_vc = vc;
            return true;
        }
    }
    return false;
}

void
Router::vcAllocStage(Cycle now)
{
    int v = params_->vcsPerPort;

    // Input-first: each waiting input VC nominates one (port, vc), in
    // ascending flat order. Nominations land in flat parallel arrays;
    // groups with the same requested output VC resolve in
    // first-nomination order.
    int want_flat[kMaxInVcs];
    std::int16_t want_of[kMaxInVcs];
    std::int8_t want_port[kMaxInVcs];
    int n_wants = 0;
    // Nominations whose failure can only be cured by a free-VC
    // transition park on vaBlocked_ instead of re-polling every tick.
    // A parked VC still counts one request per tick: a woken bit
    // first credits the ticks it spent parked.
    bool park = !params_->classVcs;
    std::uint64_t m = vaPending_;
    while (m != 0) {
        int flat = std::countr_zero(m);
        std::uint64_t bit = m & (~m + 1);
        m &= m - 1;
        int rp = -1, rv = -1;
        ++vaRequests_;
        if (vaWoken_ & bit) {
            vaRequests_ += now - vaBlockTick_[flat] - 1;
            vaWoken_ &= ~bit;
        }
        if (chooseVcRequest(flat, now, rp, rv)) {
            want_flat[n_wants] = flat;
            want_of[n_wants] = static_cast<std::int16_t>(rp * v + rv);
            want_port[n_wants] = static_cast<std::int8_t>(rp);
            ++n_wants;
        } else if (park) {
            vaPending_ &= ~bit;
            vaBlocked_ |= bit;
            vaBlockTick_[flat] = now;
            for (int c = 0; c < vc_[flat].candCount; ++c)
                vaWaiters_[vc_[flat].cand[c]] |= bit;
        }
    }
    if (n_wants == 0)
        return;

    // Output side: arbitrate per requested output VC.
    for (int i = 0; i < n_wants; ++i) {
        if (want_of[i] < 0)
            continue; // already resolved as part of an earlier group
        std::int16_t of = want_of[i];
        std::uint64_t reqs = std::uint64_t{1} << want_flat[i];
        for (int j = i + 1; j < n_wants; ++j)
            if (want_of[j] == of) {
                reqs |= std::uint64_t{1} << want_flat[j];
                want_of[j] = -1;
            }
        int winner = rrGrant(reqs, vaLast_[of]);
        vc_[winner].state = VcState::Active;
        vc_[winner].outPort = want_port[i];
        vc_[winner].outFlat = of;
        outBusy_[of] = 1;
        freeOutVcs_ &= ~(std::uint64_t{1} << of);
        vaPending_ &= ~(std::uint64_t{1} << winner);
        saPending_ |= std::uint64_t{1} << winner;
        ++vaGrants_;
        ++activity_->vaGrants;
    }
}

void
Router::switchAllocStage(Cycle now)
{
    int v = params_->vcsPerPort;
    int depth = params_->vcDepthFlits;

    // SA runs first each tick: sample buffered-flit occupancy here so
    // the accounting sees exactly one sample per internal tick. Ticks
    // since the last sample were skipped by the activity scheduler and
    // had zero occupancy by construction; they extend the sample count
    // without contributing flit-ticks.
    if (now > occLastTick_) {
        occSamples_ += now - occLastTick_;
        occLastTick_ = now;
    }
    occSumFlitTicks_ += static_cast<std::uint64_t>(bufferedFlits_);

    // Phase 1: one candidate VC per input port, walking only Active
    // non-empty VCs (saPending_). Requested output ports are tracked
    // in a bitmask so phase 2 only visits contested ports.
    std::int8_t chosen_vc[kMaxInVcs];
    std::int8_t chosen_port[kMaxInVcs];
    std::uint32_t chosen_in = 0; ///< input ports with a phase-1 winner
    std::uint32_t req_ports = 0;
    std::uint64_t m = saPending_;
    if (m == 0)
        return;
    while (m != 0) {
        int pi = std::countr_zero(m) / v;
        std::uint64_t port_bits =
            m & (((std::uint64_t{1} << v) - 1) << (pi * v));
        m ^= port_bits;
        std::uint64_t reqs = 0;
        while (port_bits != 0) {
            int flat = std::countr_zero(port_bits);
            port_bits &= port_bits - 1;
            ++saRequests_;
            if (outCredits_[vc_[flat].outFlat] <= 0) {
                ++creditStallCycles_;
                continue;
            }
            reqs |= std::uint64_t{1} << (flat - pi * v);
        }
        if (reqs != 0) {
            int vi = rrGrant(reqs, inSaLast_[pi]);
            chosen_vc[pi] = static_cast<std::int8_t>(vi);
            chosen_port[pi] = vc_[pi * v + vi].outPort;
            chosen_in |= std::uint32_t{1} << pi;
            req_ports |= std::uint32_t{1} << chosen_port[pi];
        }
    }
    if (req_ports == 0)
        return;

    // Phase 2: one input per output port, ascending port order.
    while (req_ports != 0) {
        int po = std::countr_zero(req_ports);
        req_ports &= req_ports - 1;
        std::uint64_t reqs = 0;
        std::uint32_t in_bits = chosen_in;
        while (in_bits != 0) {
            int pi = std::countr_zero(in_bits);
            in_bits &= in_bits - 1;
            if (chosen_port[pi] == po)
                reqs |= std::uint64_t{1} << pi;
        }
        if (reqs == 0)
            continue;
        int pi = rrGrant(reqs, outSaLast_[po]);

        int vi = chosen_vc[pi];
        int flat = pi * v + vi;
        int head = vc_[flat].head;
        Flit f = std::move(
            flitStore_[static_cast<std::size_t>(flat * depth + head)]);
        vc_[flat].head =
            static_cast<std::uint8_t>(head + 1 == depth ? 0 : head + 1);
        --vc_[flat].count;
        if (vc_[flat].count == 0)
            saPending_ &= ~(std::uint64_t{1} << flat);
        --bufferedFlits_;
        residence_.add(static_cast<double>(now - f.arrived + 1));
        ++flitsForwarded_;
        ++saGrants_;
        ++outFlitsSent_[po];
        ++activity_->bufferReads;
        ++activity_->xbarTraversals;
        ++activity_->saGrants;
        if (outIsGeo_ & (std::uint32_t{1} << po)) {
            if (outInterposer_ & (std::uint32_t{1} << po))
                ++activity_->interposerLinkFlits;
            else
                ++activity_->linkFlits;
        }

        std::int16_t of = vc_[flat].outFlat;
        --outCredits_[of];
        eqx_assert(outCredits_[of] >= 0,
                   "credit underflow at router ", id_);

        bool tail = f.isTail;
        f.vc = of - po * v;
        eqx_assert(outChan_[po], "output port without a channel");
        outChan_[po]->send(std::move(f), now);

        // Return a credit for the freed input slot.
        if (creditUp_[pi]) {
            creditUp_[pi]->send(Credit{pi, vi}, now);
            ++activity_->creditsSent;
        }

        if (tail) {
            outBusy_[of] = 0;
            // The tail's credit is still outstanding (decremented just
            // above), so the VC can't be free yet; creditArrived()
            // will set the bit when the last credit returns. Kept as a
            // check rather than assumed:
            if (outCredits_[of] == params_->vcDepthFlits) {
                freeOutVcs_ |= std::uint64_t{1} << of;
                if (vaBlocked_ != 0)
                    wakeBlockedVa(po);
            }
            vc_[flat].state = VcState::Idle;
            vc_[flat].candCount = 0;
            vc_[flat].headOk = 0;
            vc_[flat].outPort = -1;
            vc_[flat].outFlat = -1;
        }
    }
}

double
Router::occupancyMean(Cycle now) const
{
    // Ticks between the last explicit sample and `now` were skipped:
    // idle at zero occupancy, or parked at the buffered-flit count.
    std::uint64_t samples = occSamples_;
    if (now > occLastTick_)
        samples += now - occLastTick_;
    std::uint64_t sum = occSumFlitTicks_;
    if (parked())
        sum += static_cast<std::uint64_t>(bufferedFlits_) *
               (now - parkedAt_);
    return samples ? static_cast<double>(sum) /
                         static_cast<double>(samples)
                   : 0.0;
}

void
Router::resetStats(Cycle now)
{
    residence_.reset();
    occSumFlitTicks_ = 0;
    occSamples_ = 0;
    occLastTick_ = now;
    flitsForwarded_ = 0;
    vaRequests_ = 0;
    vaGrants_ = 0;
    saRequests_ = 0;
    saGrants_ = 0;
    creditStallCycles_ = 0;
    for (int i = 0; i < numInputPorts(); ++i)
        inFlitsAccepted_[i] = 0;
    for (int i = 0; i < numOutputPorts(); ++i)
        outFlitsSent_[i] = 0;
    // A parked router, and parked (or woken, not yet re-nominated) VA
    // nominations, re-base their deferred accounting at the reset
    // boundary: only post-reset ticks may count.
    if (parked())
        parkedAt_ = now;
    std::uint64_t m = vaBlocked_ | vaWoken_;
    while (m != 0) {
        int f = std::countr_zero(m);
        m &= m - 1;
        vaBlockTick_[f] = now;
    }
}

Router::PortView
Router::inputPort(int i) const
{
    const PortWiring &w = inputs_[static_cast<std::size_t>(i)];
    return {w.kind, w.dir, inFlitsAccepted_[i]};
}

Router::PortView
Router::outputPort(int i) const
{
    const PortWiring &w = outputs_[static_cast<std::size_t>(i)];
    return {w.kind, w.dir, outFlitsSent_[i]};
}

Router::VcView
Router::inputVc(int port, int vc) const
{
    int v = params_->vcsPerPort;
    const VcLane &lane = vc_[port * v + vc];
    VcView view;
    view.state = lane.state;
    if (lane.state != VcState::Idle)
        view.routeCandidates.assign(lane.cand, lane.cand + lane.candCount);
    if (lane.state == VcState::Active) {
        view.outPort = lane.outPort;
        view.outVc = lane.outFlat - lane.outPort * v;
    }
    return view;
}

bool
Router::pipelineStateConsistent() const
{
    int v = params_->vcsPerPort;
    int depth = params_->vcDepthFlits;
    int total = 0;
    for (int pi = 0; pi < numInputPorts(); ++pi) {
        for (int vi = 0; vi < v; ++vi) {
            int flat = pi * v + vi;
            std::uint64_t bit = std::uint64_t{1} << flat;
            if (vc_[flat].count > depth || vc_[flat].head >= depth)
                return false;
            total += vc_[flat].count;
            if (vc_[flat].state == VcState::Active) {
                std::int16_t of = vc_[flat].outFlat;
                if (vc_[flat].outPort < 0 ||
                    vc_[flat].outPort >= numOutputPorts())
                    return false;
                if (of < vc_[flat].outPort * v ||
                    of >= (vc_[flat].outPort + 1) * v)
                    return false;
                if (!outBusy_[of])
                    return false;
            } else if (vc_[flat].outPort != -1 ||
                       vc_[flat].outFlat != -1) {
                return false;
            }
            if (vc_[flat].state == VcState::RouteComputed &&
                vc_[flat].candCount == 0)
                return false;
            // Pending-mask membership per stage: VA and SA bits are
            // exact; an RC bit may be stale (cleared lazily) but every
            // routable head must be covered. A RouteComputed VC sits
            // on exactly one of vaPending_ / vaBlocked_ (parked
            // nominations are event-driven, DESIGN.md §14).
            if ((((vaPending_ | vaBlocked_) & bit) != 0) !=
                (vc_[flat].state == VcState::RouteComputed))
                return false;
            // A parked nomination must be registered with every one
            // of its candidate output ports, or a free-VC transition
            // there would never wake it. And parking must be safe: a
            // parked VC skips VA until a wake, so its nomination must
            // still fail right now. (Only classVcs windows depend on
            // the tick, and classVcs never parks, so any tick will do.)
            if ((vaBlocked_ & bit) != 0) {
                for (int c = 0; c < vc_[flat].candCount; ++c)
                    if ((vaWaiters_[vc_[flat].cand[c]] & bit) == 0)
                        return false;
                int rp = -1, rv = -1;
                if (chooseVcRequest(flat, 0, rp, rv))
                    return false;
            }
            if (((saPending_ & bit) != 0) !=
                (vc_[flat].state == VcState::Active &&
                 vc_[flat].count > 0))
                return false;
            if (vc_[flat].state == VcState::Idle && vc_[flat].count > 0 &&
                vc_[flat].headOk && (rcPending_ & bit) == 0)
                return false;
        }
    }
    if (total != bufferedFlits_)
        return false;
    if ((vaPending_ & vaBlocked_) != 0 || (vaWoken_ & ~vaPending_) != 0)
        return false;
    for (int of = 0; of < numOutputPorts() * v; ++of) {
        if (outCredits_[of] < 0)
            return false;
        if (outBusy_[of] > 1)
            return false;
        if (((freeOutVcs_ >> of) & 1) !=
                (!outBusy_[of] && outCredits_[of] == depth ? 1u : 0u))
            return false;
        // Every busy output VC is owned by exactly one Active input VC.
        int owners = 0;
        for (int flat = 0; flat < numInputPorts() * v; ++flat)
            if (vc_[flat].state == VcState::Active &&
                vc_[flat].outFlat == of)
                ++owners;
        if (owners != (outBusy_[of] ? 1 : 0))
            return false;
    }
    return true;
}

} // namespace eqx
