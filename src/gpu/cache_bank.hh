/**
 * @file
 * Last-level cache bank (CB): the few side of the many-to-few-to-many
 * pattern. Ejects request packets from the request network through a
 * finite input queue, services them against a real L2 slice with MSHR
 * merging, fetches misses from its HBM stack, and injects reply
 * packets into the reply network through a finite reply queue — the
 * two finite queues propagate reply-injection backpressure into the
 * request network (the paper's parking-lot effect, Section 6.4).
 */

#ifndef EQX_GPU_CACHE_BANK_HH
#define EQX_GPU_CACHE_BANK_HH

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "gpu/endpoint.hh"
#include "gpu/tag_array.hh"
#include "memory/hbm.hh"
#include "noc/network_interface.hh"
#include "noc/params.hh"

namespace eqx {

/** CB microarchitecture parameters (paper Table 1 defaults). */
struct CbParams
{
    CacheGeometry l2{2 * 1024 * 1024, 64, 16}; ///< 2 MB per bank
    int mshrs = 32;
    int targetsPerMshr = 8;
    int inputQueuePackets = 8;
    int replyQueuePackets = 16;
    int l2HitLatency = 8;
    int requestsPerCycle = 1;
    HbmParams hbm;
};

/**
 * Coherence-style traffic knobs (traffic model "coherence"): the bank
 * tracks a sharer set per cache-line region and multicasts Invalidate
 * packets on writes to regions with other sharers. Derived from the
 * TrafficConfig by System (never set directly), so it is hashed via
 * the traffic.* digest keys rather than here.
 */
struct CoherenceParams
{
    int regionLines = 4; ///< cache lines per tracked region
};

/** One L2 bank with its memory controller and HBM stack. */
class CacheBank : public PacketSink
{
  public:
    CacheBank(NodeId node, const CbParams &params,
              PacketInjector *reply_injector, const PacketSizes *sizes);

    NodeId node() const { return node_; }

    /** Arm the sharer-set directory (coherence-style traffic). */
    void
    enableCoherence(const CoherenceParams &cp)
    {
        cohEnabled_ = true;
        coh_ = cp;
    }

    std::uint64_t
    invalidationsSent() const
    {
        return counters_[Stat::InvalidationsSent];
    }
    std::uint64_t
    invAcksReceived() const
    {
        return counters_[Stat::InvAcksReceived];
    }

    /** Advance one core cycle. */
    void tick(Cycle now);

    /** No queued work anywhere in the bank. */
    bool drained() const;

    /**
     * Earliest core cycle after @p now at which this bank does real
     * work (global time wheel, DESIGN.md §14). Queued packets and
     * writebacks need a tick every cycle; an otherwise-empty bank is
     * due at its first L2 hit-pipeline completion or whenever its HBM
     * stack is. kNeverCycle when drained (woken only by accept()).
     */
    Cycle nextDueCycle(Cycle now) const;

    const TagArray &l2() const { return l2_; }
    const HbmStack &hbm() const { return hbm_; }
    const StatGroup &stats() const { return counters_.view(); }

    // PacketSink (request ejection side).
    bool canAccept(const PacketPtr &pkt) override;
    void accept(const PacketPtr &pkt, Cycle core_now) override;

  private:
    /** Event counters; stats() names them in cache_bank.cc. */
    enum class Stat : std::uint8_t
    {
        InvalidationsSent,
        InvAcksReceived,
        ReadRequests,
        WriteRequests,
        L2ReadHits,
        L2WriteHits,
        L2ReadMisses,
        L2WriteMisses,
        L2MissMerges,
        StallReplyQueue,
        StallMshrTargets,
        StallMshrFull,
        StallHbmQueue,
        Fills,
        WritebacksDone,
        RepliesInjected,
        InvalidationsInjected,
        Count
    };

    struct DelayedReply
    {
        Cycle dueAt;
        PacketPtr reply;
    };

    /** Service the request at the input queue head; false = stall. */
    bool processRequest(const PacketPtr &req, Cycle now);

    /** Directory bookkeeping for one accepted request. */
    void updateSharers(const PacketPtr &req);

    PacketPtr makeReply(const PacketPtr &req) const;
    void onMemComplete(const MemRequest &mreq, Cycle now);

    NodeId node_;
    CbParams params_;
    PacketInjector *replyInjector_;
    const PacketSizes *sizes_;

    TagArray l2_;
    HbmStack hbm_;

    std::deque<PacketPtr> inputQueue_;
    std::deque<DelayedReply> hitPipeline_; ///< replies in the L2 pipeline
    std::deque<PacketPtr> replyQueue_;     ///< awaiting NoC injection
    std::deque<Addr> writebackQueue_;      ///< dirty victims to memory

    /** Outstanding misses: line -> requests merged onto the fetch. */
    std::map<Addr, std::vector<PacketPtr>> missTable_;

    // Coherence-style traffic (enableCoherence): region sharer sets
    // and the Invalidate fan-out awaiting reply-network injection.
    bool cohEnabled_ = false;
    CoherenceParams coh_;
    std::map<Addr, std::set<NodeId>> sharers_;
    std::deque<PacketPtr> invQueue_;

    CounterArray<Stat> counters_;
};

} // namespace eqx

#endif // EQX_GPU_CACHE_BANK_HH
