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

    /**
     * Let System park this PE (DESIGN.md §10): from now on accept()
     * fires @p self, and so does every core-queue slot that frees in an
     * NI the injector can reach — the only events that can end a tick
     * which changed nothing. An unwired PE (unit tests, the layer
     * replica) is simply ticked every cycle.
     */
    void
    wire(const WakeBit &self)
    {
        wake_ = self;
        injector_->watchSlots(self);
    }

    /**
     * The last tick issued nothing, drew no op, sent no ack and left
     * the outstanding window and L1 hits alone: it bumped only stall
     * counters, and every tick repeats it until a wake event.
     */
    bool idleLastTick() const { return !lastTick_.moved; }

    /** Credit @p ticks skipped repeats of the last (idle) tick. */
    void replayIdle(std::uint64_t ticks);

    /** Stream exhausted and every outstanding access returned. */
    bool done() const;

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

    /** Count a structural stall and note it for replayIdle(). */
    void
    stall(Stat s)
    {
        counters_.inc(s);
        lastTick_.stall = s;
    }

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

    /** What the last tick did, as replayIdle() repeats it. */
    struct TickRecord
    {
        bool moved = false;        ///< anything beyond stall counters
        bool ackStall = false;     ///< StallAckInject counted
        bool l1Miss = false;       ///< the stalled read probed L1
        Stat stall = Stat::Count;  ///< the issue stall, if any
    };
    TickRecord lastTick_;
    WakeBit wake_;
};

} // namespace eqx

#endif // EQX_GPU_PE_HH
