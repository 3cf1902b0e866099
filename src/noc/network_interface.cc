#include "noc/network_interface.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace eqx {

NetworkInterface::NetworkInterface(NodeId node, const Topology *topo,
                                   const NocParams *params,
                                   NetworkActivity *activity,
                                   LatencyStats *latency)
    : node_(node), topo_(topo), params_(params), activity_(activity),
      latency_(latency)
{
}

int
NetworkInterface::addInjBuffer(int capacity_packets, Channel<Flit> *out,
                               NodeId target_router, bool interposer)
{
    eqx_assert(bufs_.size() < 32,
               "the parked-stall mask covers at most 32 injection buffers");
    InjBuffer b;
    b.capacityPackets = capacity_packets;
    b.out = out;
    b.targetRouter = target_router;
    b.targetCoord = topo_->routerCoord(target_router);
    b.interposer = interposer;
    b.credits.assign(static_cast<std::size_t>(params_->vcsPerPort),
                     params_->vcDepthFlits);
    bufs_.push_back(std::move(b));
    return static_cast<int>(bufs_.size()) - 1;
}

int
NetworkInterface::addEjPort(Channel<Credit> *credit_up)
{
    EjPort p;
    p.vcs.assign(static_cast<std::size_t>(params_->vcsPerPort),
                 VcBuffer(params_->vcDepthFlits));
    p.creditUp = credit_up;
    p.arb.resize(params_->vcsPerPort);
    ejPorts_.push_back(std::move(p));
    return static_cast<int>(ejPorts_.size()) - 1;
}

bool
NetworkInterface::canInject() const
{
    return static_cast<int>(coreQueue_.size()) < kNiInjBufPackets;
}

bool
NetworkInterface::inject(const PacketPtr &pkt, Cycle now_ticks)
{
    eqx_assert(params_->classes.accepts(pkt->type),
               "packet class not admitted by network ", params_->name);
    if (!canInject())
        return false;
    pkt->cycleCreated = now_ticks;
    if (plane_) {
        // Enter the end-to-end protocol: stamp the delivery identity
        // and open a retransmission record (DESIGN.md §11.3).
        pkt->seqSrc = node_;
        pkt->seq = nextSeq_[pkt->dst]++;
        RetxRecord r;
        r.peer = pkt->dst;
        r.seq = pkt->seq;
        r.type = pkt->type;
        r.src = pkt->src;
        r.dst = pkt->dst;
        r.finalDst = pkt->finalDst;
        r.bits = pkt->bits;
        r.addr = pkt->addr;
        r.tag = pkt->tag;
        r.created = now_ticks;
        r.timeout = plane_->config().retxTimeout;
        r.deadline = now_ticks + r.timeout;
        retx_.push_back(std::move(r));
        ++plane_->stats().seqPackets;
    }
    coreQueue_.push_back(pkt);
    return true;
}

void
NetworkInterface::creditArrived(int buf, int vc)
{
    auto &b = bufs_[static_cast<std::size_t>(buf)];
    ++b.credits[static_cast<std::size_t>(vc)];
    eqx_assert(b.credits[static_cast<std::size_t>(vc)] <=
                   params_->vcDepthFlits,
               "injection credit overflow");
}

void
NetworkInterface::acceptEjectedFlit(int ej_port, Flit f)
{
    auto &p = ejPorts_[static_cast<std::size_t>(ej_port)];
    p.vcs[static_cast<std::size_t>(f.vc)].push(std::move(f));
}

void
NetworkInterface::allowedVcs(PacketType t, int &lo, int &hi) const
{
    int v = params_->vcsPerPort;
    lo = 0;
    hi = v - 1;
    if (!params_->classVcs)
        return;
    int cls = packetVcClass(t, *params_);
    if (cls == 2) {
        // Coherence class: the reserved top VCs.
        lo = v - params_->coherenceVcs;
        return;
    }
    int base = v - params_->coherenceVcs;
    int half = base / 2;
    if (half == 0)
        half = 1;
    if (cls == 0) {
        hi = std::min(half, base) - 1;
    } else {
        lo = std::min(half, base - 1);
        hi = base - 1;
    }
}

bool
NetworkInterface::tickEjection(Cycle now_ticks)
{
    int v = params_->vcsPerPort;
    bool moved = false;
    for (auto &p : ejPorts_) {
        if (static_cast<int>(delivered_.size()) >= kNiEjectQueuePackets)
            return moved; // assembled-packet queue full: backpressure
        ejReqs_.clear();
        for (int i = 0; i < v; ++i)
            if (!p.vcs[static_cast<std::size_t>(i)].empty())
                ejReqs_.push_back(i);
        if (ejReqs_.empty())
            continue;
        // grantList picks the same winner grant() would (closest index
        // after the previous one in rotation) without the per-tick
        // vector<bool> allocation.
        int vc = p.arb.grantList(ejReqs_);
        Flit f = p.vcs[static_cast<std::size_t>(vc)].pop();
        moved = true;
        if (p.creditUp)
            p.creditUp->send(Credit{0, vc}, now_ticks);
        if (f.isTail) {
            if (plane_ && f.pkt->seqSrc != kInvalidNode) {
                // Ack every tail (re-acking a duplicate is how a
                // sender whose first ack raced a timeout converges),
                // then discard duplicate deliveries.
                plane_->scheduleAck(f.pkt->seqSrc, node_, f.pkt->seq,
                                    now_ticks);
                if (!seen_[f.pkt->seqSrc].insert(f.pkt->seq)) {
                    ++plane_->stats().duplicates;
                    continue;
                }
                ++plane_->stats().delivered;
            }
            f.pkt->cycleEjected = now_ticks;
            int c = LatencyStats::classIdx(f.pkt->type);
            latency_->queueLat[c].add(
                static_cast<double>(f.pkt->queueLatency()));
            latency_->netLat[c].add(
                static_cast<double>(f.pkt->networkLatency()));
            latency_->totalLat[c].add(
                static_cast<double>(f.pkt->totalLatency()));
            latency_->totalHist[c].add(
                static_cast<double>(f.pkt->totalLatency()));
            ++latency_->packets[c];
            delivered_.push_back(f.pkt);
        }
    }
    return moved;
}

bool
NetworkInterface::serializeBuffer(int buf, Cycle now_ticks)
{
    InjBuffer &b = bufs_[static_cast<std::size_t>(buf)];
    bool started = false;
    if (!b.current) {
        if (b.queue.empty())
            return false;
        b.current = b.queue.front();
        b.queue.pop_front();
        b.numFlits = params_->flitsForBits(b.current->bits);
        b.flitsSent = 0;
        b.vc = -1;
        started = true;
    }
    if (b.vc < 0) {
        // Atomic VC acquisition: the target input VC must be empty.
        int lo, hi;
        allowedVcs(b.current->type, lo, hi);
        for (int vc = lo; vc <= hi; ++vc) {
            if (b.credits[static_cast<std::size_t>(vc)] ==
                params_->vcDepthFlits) {
                b.vc = vc;
                break;
            }
        }
        if (b.vc < 0) {
            ++b.creditStallTicks;
            stalledBufs_ |= std::uint32_t{1} << buf;
            return started; // all candidate VCs occupied: retry
        }
    }
    if (b.credits[static_cast<std::size_t>(b.vc)] <= 0) {
        ++b.creditStallTicks;
        stalledBufs_ |= std::uint32_t{1} << buf;
        return started;
    }

    Flit f;
    f.pkt = b.current;
    f.index = b.flitsSent;
    f.isHead = b.flitsSent == 0;
    f.isTail = b.flitsSent == b.numFlits - 1;
    f.vc = b.vc;
    if (plane_)
        f.fcs = flitFcs(f); // verified where the wire delivers
    if (f.isHead) {
        b.current->cycleInjected = now_ticks;
        b.current->entryRouter = b.targetRouter;
        ++b.packetsInjected;
        if (isRequest(b.current->type))
            activity_->requestBits += static_cast<std::uint64_t>(
                b.current->bits);
        else
            activity_->replyBits += static_cast<std::uint64_t>(
                b.current->bits);
    }
    ++b.flitsInjected;
    --b.credits[static_cast<std::size_t>(b.vc)];
    if (b.interposer)
        ++activity_->interposerLinkFlits;
    else
        ++activity_->linkFlits;
    bool tail = f.isTail;
    b.out->send(std::move(f), now_ticks);
    ++b.flitsSent;
    if (tail) {
        b.current.reset();
        b.vc = -1;
    }
    return true;
}

bool
NetworkInterface::tickInjection(Cycle now_ticks)
{
    bool moved = false;
    // NI core logic dispatches at most one packet per tick to a buffer.
    // A failing selectBuffer() leaves every variant's state untouched,
    // so a parked NI may skip the retries.
    if (!coreQueue_.empty()) {
        int idx = selectBuffer(coreQueue_.front());
        if (idx >= 0) {
            auto &b = bufs_[static_cast<std::size_t>(idx)];
            eqx_assert(static_cast<int>(b.queue.size()) <
                           b.capacityPackets,
                       "selectBuffer returned a full buffer");
            b.queue.push_back(coreQueue_.front());
            coreQueue_.pop_front();
            for (const WakeBit &w : slotWakers_)
                w.fire();
            moved = true;
        }
    }
    stalledBufs_ = 0;
    for (int i = 0; i < numInjBuffers(); ++i)
        moved |= serializeBuffer(i, now_ticks);
    return moved;
}

bool
NetworkInterface::tick(Cycle now_ticks, Cycle core_now)
{
    bool moved = tickEjection(now_ticks);
    while (!delivered_.empty() && sink_ &&
           sink_->canAccept(delivered_.front())) {
        PacketPtr pkt = delivered_.front();
        delivered_.pop_front();
        sink_->accept(pkt, core_now);
        moved = true;
    }
    if (!sink_) {
        // Pure traffic-sink mode: consume unconditionally.
        delivered_.clear();
    }
    if (plane_ && !retx_.empty())
        tickResilience(now_ticks);
    return tickInjection(now_ticks) || moved;
}

void
NetworkInterface::settleParked(Cycle through)
{
    for (std::uint32_t m = stalledBufs_; m != 0; m &= m - 1)
        bufs_[static_cast<std::size_t>(std::countr_zero(m))]
            .creditStallTicks += through - parkedAt_;
    parkedAt_ = through;
}

std::uint64_t
NetworkInterface::creditStallTicks(int buf, Cycle now) const
{
    std::uint64_t n = bufs_[static_cast<std::size_t>(buf)].creditStallTicks;
    if (parked() && ((stalledBufs_ >> buf) & 1) != 0)
        n += now - parkedAt_;
    return n;
}

bool
NetworkInterface::parkHolds()
{
    if (plane_ || !delivered_.empty())
        return false;
    for (const auto &p : ejPorts_)
        for (const auto &vc : p.vcs)
            if (!vc.empty())
                return false;
    if (!coreQueue_.empty() && selectBuffer(coreQueue_.front()) >= 0)
        return false;
    for (int i = 0; i < numInjBuffers(); ++i) {
        const InjBuffer &b = bufs_[static_cast<std::size_t>(i)];
        if (!b.current) {
            if (!b.queue.empty())
                return false; // would start serializing
            continue;
        }
        // Would it send? The same credit tests serializeBuffer() makes.
        bool stalled;
        if (b.vc < 0) {
            int lo, hi;
            allowedVcs(b.current->type, lo, hi);
            stalled = true;
            for (int vc = lo; vc <= hi; ++vc)
                if (b.credits[static_cast<std::size_t>(vc)] ==
                    params_->vcDepthFlits)
                    stalled = false;
        } else {
            stalled = b.credits[static_cast<std::size_t>(b.vc)] <= 0;
        }
        if (!stalled || ((stalledBufs_ >> i) & 1) == 0)
            return false;
    }
    return true;
}

void
NetworkInterface::tickResilience(Cycle now_ticks)
{
    const FaultConfig &fc = plane_->config();
    for (std::size_t i = 0; i < retx_.size();) {
        RetxRecord &r = retx_[i];
        if (now_ticks < r.deadline) {
            ++i;
            continue;
        }
        if (fc.retxMax > 0 && r.attempts >= fc.retxMax) {
            ++plane_->stats().lost;
            retx_.erase(retx_.begin() +
                        static_cast<std::ptrdiff_t>(i));
            continue;
        }
        // Rebuild a clone carrying the original delivery identity (the
        // receiver dedups, so a spurious timeout cannot deliver twice)
        // and the original creation time (latency-under-faults numbers
        // measure true end-to-end time, recovery included). It jumps
        // the core-queue capacity on purpose: the packet already held
        // a slot on its first attempt.
        PacketPtr clone =
            makePacket(r.type, r.src, r.dst, r.bits, r.addr, r.tag);
        clone->finalDst = r.finalDst;
        clone->seqSrc = node_;
        clone->seq = r.seq;
        clone->cycleCreated = r.created;
        coreQueue_.push_front(std::move(clone));
        ++r.attempts;
        r.timeout = std::min(r.timeout * 2, fc.retxTimeoutCap);
        r.deadline = now_ticks + r.timeout;
        ++plane_->stats().retransmissions;
        ++i;
    }
}

void
NetworkInterface::ackArrived(NodeId peer, std::uint32_t seq)
{
    for (std::size_t i = 0; i < retx_.size(); ++i) {
        if (retx_[i].peer == peer && retx_[i].seq == seq) {
            retx_.erase(retx_.begin() +
                        static_cast<std::ptrdiff_t>(i));
            return;
        }
    }
    // A re-ack for an already-closed (or abandoned) record: ignore.
}

void
NetworkInterface::maskBuffer(int buf)
{
    auto &b = bufs_[static_cast<std::size_t>(buf)];
    if (!b.masked) {
        b.masked = true;
        ++maskedBufs_;
    }
}

void
NetworkInterface::resetStats(Cycle now_ticks)
{
    for (auto &b : bufs_) {
        b.packetsInjected = 0;
        b.flitsInjected = 0;
        b.creditStallTicks = 0;
    }
    if (parked())
        parkedAt_ = now_ticks; // only post-reset skipped ticks count
}

bool
NetworkInterface::idle() const
{
    // An open retransmission record is pending work: it keeps the NI
    // on the active set (so timeouts are polled) and the network
    // undrained (so a run cannot "finish" with a packet outstanding).
    if (!retx_.empty())
        return false;
    if (!coreQueue_.empty() || !delivered_.empty())
        return false;
    for (const auto &b : bufs_)
        if (!b.idle())
            return false;
    for (const auto &p : ejPorts_)
        for (const auto &vc : p.vcs)
            if (!vc.empty())
                return false;
    return true;
}

int
BasicNi::selectBuffer(const PacketPtr &)
{
    eqx_assert(!bufs_.empty(), "BasicNi has no buffer");
    auto &b = bufs_[0];
    return static_cast<int>(b.queue.size()) < b.capacityPackets ? 0 : -1;
}

int
MultiPortNi::selectBuffer(const PacketPtr &)
{
    int n = numInjBuffers();
    for (int i = 0; i < n; ++i) {
        int idx = (rr_ + 1 + i) % n;
        const auto &b = bufs_[static_cast<std::size_t>(idx)];
        if (b.masked)
            continue;
        if (static_cast<int>(b.queue.size()) < b.capacityPackets) {
            rr_ = idx;
            return idx;
        }
    }
    if (maskedBufs_ == n) {
        // Every port masked: dispatch anyway (last resort — the dead
        // wires drop, end-to-end recovery keeps the accounting sane).
        for (int i = 0; i < n; ++i) {
            int idx = (rr_ + 1 + i) % n;
            const auto &b = bufs_[static_cast<std::size_t>(idx)];
            if (static_cast<int>(b.queue.size()) < b.capacityPackets) {
                rr_ = idx;
                return idx;
            }
        }
    }
    return -1;
}

int
EquiNoxNi::selectBuffer(const PacketPtr &pkt)
{
    // Buffer 0 = local router; buffers 1..n = EIRs over the interposer.
    // All geometry is in router space and routed through the shared
    // Topology distance, so shortest-path eligibility matches what the
    // fabric (mesh or torus) actually routes.
    Coord src = topo_->routerCoordOf(node_);
    Coord dst = topo_->routerCoordOf(pkt->dst);
    eqx_assert(node_ != pkt->dst, "CB does not send packets to itself");
    int base = topo_->routerDistance(src, dst);

    // Collect EIR buffers that lie on a shortest path and are free,
    // skipping fault-masked ports (a no-op on a healthy NI, keeping
    // the fault-free policy bit-identical to the pre-fault one).
    int free_eligible[2] = {-1, -1};
    int num_free = 0;
    int sp_masked = 0;   ///< shortest-path EIRs lost to masking
    int sp_unmasked = 0; ///< shortest-path EIRs still in service
    for (int i = 1; i < numInjBuffers(); ++i) {
        const auto &b = bufs_[static_cast<std::size_t>(i)];
        Coord e = b.targetCoord;
        if (topo_->routerDistance(src, e) +
                topo_->routerDistance(e, dst) != base)
            continue;
        if (b.masked) {
            ++sp_masked;
            continue;
        }
        ++sp_unmasked;
        if (b.availableForDispatch() && num_free < 2)
            free_eligible[num_free++] = i;
    }

    bool on_axis = src.x == dst.x || src.y == dst.y;
    const auto &local = bufs_[0];
    bool local_free =
        static_cast<int>(local.queue.size()) < local.capacityPackets;

    if (on_axis) {
        // At most one shortest-path EIR exists; use it, else local.
        if (num_free >= 1)
            return free_eligible[0];
    } else {
        // Quadrant destination: up to two shortest-path EIRs.
        if (num_free == 2) {
            rr_ ^= 1;
            return free_eligible[rr_];
        }
        if (num_free == 1)
            return free_eligible[0];
    }

    // No dispatchable shortest-path EIR. The legacy fallback (local
    // port, else retry) applies while any shortest-path EIR is merely
    // busy — or never existed for this destination.
    if (sp_masked == 0 || sp_unmasked > 0)
        return local_free ? 0 : -1;

    // Degraded fail-over (DESIGN.md §11.4): masking removed every
    // shortest-path EIR, so equivalence is what's left — any surviving
    // EIR is still a valid injection point at the cost of a
    // non-minimal first hop. Rotate strictly over survivors so the
    // redistributed load stays fair.
    int n = numInjBuffers();
    for (int k = 1; k < n; ++k) {
        int i = 1 + (failRr_ + k) % (n - 1);
        const auto &b = bufs_[static_cast<std::size_t>(i)];
        if (b.masked)
            continue;
        if (b.availableForDispatch()) {
            failRr_ = i - 1;
            return i;
        }
    }
    // Survivors busy, or every EIR masked: the local port is the last
    // resort (never masked out of consideration — a CB with no usable
    // injection point at all would livelock the core queue).
    return local_free ? 0 : -1;
}

} // namespace eqx
