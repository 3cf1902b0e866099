#include "gpu/pe.hh"

#include "common/logging.hh"

namespace eqx {

namespace {

/** ProcessingElement::Stat names, in enum order. */
const char *const kStatNames[] = {
    "l1_read_hits",
    "l1_read_merges",
    "l1_read_misses",
    "stall_mshr_targets",
    "stall_mshr_full",
    "stall_inject",
    "stall_window",
    "stall_ack_inject",
    "writes_issued",
    "inv_acks_sent",
    "read_replies",
    "write_replies",
    "invalidations_received",
};

} // namespace

ProcessingElement::ProcessingElement(NodeId node, const PeParams &params,
                                     std::unique_ptr<TrafficSource> trace,
                                     const AddressMap *amap,
                                     PacketInjector *injector,
                                     const PacketSizes *sizes)
    : node_(node), params_(params), trace_(std::move(trace)), amap_(amap),
      injector_(injector), sizes_(sizes), l1_(params.l1),
      l1Mshr_(params.l1Mshrs, params.l1TargetsPerMshr),
      counters_(kStatNames)
{
    eqx_assert(trace_ != nullptr, "PE needs a traffic source");
    eqx_assert(amap_ && injector_ && sizes_, "PE needs its context");
}

ProcessingElement::ProcessingElement(NodeId node, const PeParams &params,
                                     PeTraceGen trace,
                                     const AddressMap *amap,
                                     PacketInjector *injector,
                                     const PacketSizes *sizes)
    : ProcessingElement(node, params,
                        std::make_unique<SyntheticSource>(std::move(trace)),
                        amap, injector, sizes)
{
}

bool
ProcessingElement::sendRequest(PacketType type, int bits)
{
    // Ask first: a refused request, retried every cycle under reply
    // backpressure, then costs no packet allocation.
    NodeId cb = amap_->cbNodeOf(pending_.addr);
    if (!injector_->canInject(cb)) {
        counters_.inc(Stat::StallInject);
        return false;
    }
    bool sent = injector_->tryInject(
        makePacket(type, node_, cb, bits, pending_.addr));
    eqx_assert(sent, "injector refused after canInject at PE ", node_);
    return true;
}

bool
ProcessingElement::processPendingMem()
{
    Addr line = amap_->lineOf(pending_.addr);

    if (!pending_.isWrite) {
        if (l1_.probe(line)) {
            counters_.inc(Stat::L1ReadHits);
            return true;
        }
        if (l1Mshr_.pending(line)) {
            auto r = l1Mshr_.allocate(line, 0);
            if (r == MshrTable::Alloc::Full) {
                counters_.inc(Stat::StallMshrTargets);
                return false;
            }
            ++outstanding_;
            counters_.inc(Stat::L1ReadMerges);
            return true;
        }
        if (l1Mshr_.full()) {
            counters_.inc(Stat::StallMshrFull);
            return false;
        }
        if (!sendRequest(PacketType::ReadRequest, sizes_->readRequestBits))
            return false;
        auto r = l1Mshr_.allocate(line, 0);
        eqx_assert(r == MshrTable::Alloc::NewEntry,
                   "expected a fresh MSHR entry");
        ++outstanding_;
        counters_.inc(Stat::L1ReadMisses);
        return true;
    }

    // Write-through, no-allocate L1 (GPU-typical): every store goes to
    // the L2 bank; the write reply closes the outstanding window slot.
    if (!sendRequest(PacketType::WriteRequest, sizes_->writeRequestBits))
        return false;
    if (l1_.contains(line))
        l1_.probe(line); // keep LRU state coherent with the update
    ++outstanding_;
    counters_.inc(Stat::WritesIssued);
    return true;
}

void
ProcessingElement::tick(Cycle)
{
    // Coherence acks first: fire-and-forget control packets that must
    // not be starved by the issue loop's structural stalls.
    while (!pendingAcks_.empty()) {
        if (!injector_->tryInject(pendingAcks_.front())) {
            counters_.inc(Stat::StallAckInject);
            break;
        }
        pendingAcks_.pop_front();
        counters_.inc(Stat::InvAcksSent);
    }
    for (int slot = 0; slot < params_.issueWidth; ++slot) {
        if (outstanding_ >= params_.maxOutstanding) {
            counters_.inc(Stat::StallWindow);
            return;
        }
        if (!havePending_) {
            if (!trace_->next(pending_))
                return; // stream exhausted
            havePending_ = true;
        }
        if (!pending_.isMem) {
            ++instsIssued_;
            havePending_ = false;
            continue;
        }
        if (!processPendingMem())
            return; // structural stall: retry the same op next cycle
        ++instsIssued_;
        havePending_ = false;
    }
}

bool
ProcessingElement::done() const
{
    return trace_->remaining() == 0 && !havePending_ &&
           outstanding_ == 0 && pendingAcks_.empty();
}

bool
ProcessingElement::canAccept(const PacketPtr &)
{
    return true; // PEs always sink replies (guaranteed reply drain)
}

void
ProcessingElement::accept(const PacketPtr &pkt, Cycle)
{
    if (pkt->type == PacketType::ReadReply) {
        Addr line = amap_->lineOf(pkt->addr);
        auto targets = l1Mshr_.complete(line);
        eqx_assert(!targets.empty(), "read reply with no MSHR targets");
        if (!l1_.contains(line))
            l1_.insert(line, /*dirty=*/false); // write-through: clean
        outstanding_ -= static_cast<int>(targets.size());
        counters_.inc(Stat::ReadReplies);
    } else if (pkt->type == PacketType::WriteReply) {
        --outstanding_;
        counters_.inc(Stat::WriteReplies);
    } else if (pkt->type == PacketType::Invalidate) {
        // Coherence: drop the line and answer with a fire-and-forget
        // InvAck back to the CB. Not part of the outstanding window —
        // invalidations are unsolicited.
        Addr line = amap_->lineOf(pkt->addr);
        l1_.invalidate(line);
        counters_.inc(Stat::InvalidationsReceived);
        pendingAcks_.push_back(makePacket(PacketType::InvAck, node_,
                                          pkt->src, sizes_->invAckBits,
                                          pkt->addr, pkt->tag));
        return; // no outstanding-window bookkeeping for control flows
    } else {
        eqx_panic("PE received a request packet");
    }
    eqx_assert(outstanding_ >= 0, "outstanding underflow at PE ", node_);
}

} // namespace eqx
