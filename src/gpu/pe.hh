/**
 * @file
 * Processing element (streaming multiprocessor) model: issues a
 * profile-driven instruction stream, filters memory operations through
 * a real L1 cache with MSHR merging, and tolerates memory latency up
 * to a bounded number of outstanding requests — the many side of the
 * many-to-few-to-many pattern.
 */

#ifndef EQX_GPU_PE_HH
#define EQX_GPU_PE_HH

#include <cstdint>
#include <deque>
#include <memory>

#include "common/stats.hh"
#include "common/types.hh"
#include "gpu/endpoint.hh"
#include "gpu/mshr.hh"
#include "gpu/tag_array.hh"
#include "noc/network_interface.hh"
#include "noc/params.hh"
#include "traffic/source.hh"
#include "workloads/trace_gen.hh"

namespace eqx {

/** PE microarchitecture parameters (paper Table 1 defaults). */
struct PeParams
{
    CacheGeometry l1{16 * 1024, 64, 4}; ///< 16 KB L1 per PE
    int l1Mshrs = 16;
    int l1TargetsPerMshr = 8;
    int maxOutstanding = 32; ///< latency-tolerance window
    int issueWidth = 2;      ///< instructions issued per cycle
};

/** One PE. Also the PacketSink for replies delivered at its node. */
class ProcessingElement : public PacketSink
{
  public:
    /** Drive the PE from any closed-loop traffic source. */
    ProcessingElement(NodeId node, const PeParams &params,
                      std::unique_ptr<TrafficSource> trace,
                      const AddressMap *amap, PacketInjector *injector,
                      const PacketSizes *sizes);

    /** Legacy convenience: wrap a PeTraceGen (the synthetic default). */
    ProcessingElement(NodeId node, const PeParams &params,
                      PeTraceGen trace, const AddressMap *amap,
                      PacketInjector *injector, const PacketSizes *sizes);

    NodeId node() const { return node_; }

    /** Advance one core cycle. */
    void tick(Cycle now);

    /** Stream exhausted and every outstanding access returned. */
    bool done() const;

    /**
     * Earliest core cycle after @p now at which this PE does real
     * work (global time wheel, DESIGN.md §14): the next cycle while
     * it still has instructions to issue or retry; kNeverCycle once
     * the stream is exhausted or the outstanding window is full —
     * tick() is then a guaranteed no-op until a reply arrives, and a
     * reply in flight means the network reports work of its own.
     * (The stall_window stat consequently counts only *stepped*
     * stalled cycles; it is not part of the exported determinism
     * contract.)
     */
    Cycle
    nextDueCycle(Cycle now) const
    {
        if (!pendingAcks_.empty())
            return now + 1; // an ack retry never depends on a reply
        if (outstanding_ >= params_.maxOutstanding)
            return kNeverCycle;
        if (trace_->remaining() != 0 || havePending_)
            return now + 1;
        return kNeverCycle;
    }

    std::uint64_t instsIssued() const { return instsIssued_; }
    int outstanding() const { return outstanding_; }
    const TagArray &l1() const { return l1_; }
    const StatGroup &stats() const { return counters_.view(); }

    // PacketSink: replies are always consumed immediately.
    bool canAccept(const PacketPtr &pkt) override;
    void accept(const PacketPtr &pkt, Cycle core_now) override;

  private:
    /** Event counters; stats() names them in pe.cc. */
    enum class Stat : std::uint8_t
    {
        L1ReadHits,
        L1ReadMerges,
        L1ReadMisses,
        StallMshrTargets,
        StallMshrFull,
        StallInject,
        StallWindow,
        StallAckInject,
        WritesIssued,
        InvAcksSent,
        ReadReplies,
        WriteReplies,
        InvalidationsReceived,
        Count
    };

    /** Send the pending op's request to its CB; false = stall. */
    bool sendRequest(PacketType type, int bits);

    /** Try to complete the pending memory op; false = stall. */
    bool processPendingMem();

    NodeId node_;
    PeParams params_;
    std::unique_ptr<TrafficSource> trace_;
    const AddressMap *amap_;
    PacketInjector *injector_;
    const PacketSizes *sizes_;

    TagArray l1_;
    MshrTable l1Mshr_;
    int outstanding_ = 0;

    bool havePending_ = false;
    TraceOp pending_;

    /** Coherence: InvAcks awaiting injection (fire-and-forget). */
    std::deque<PacketPtr> pendingAcks_;

    std::uint64_t instsIssued_ = 0;
    CounterArray<Stat> counters_;
};

} // namespace eqx

#endif // EQX_GPU_PE_HH
