/**
 * @file
 * HBM stack model (Ramulator-class abstraction): channels with
 * banked DRAM timing (row activate / precharge / CAS / burst), an
 * FR-FCFS scheduler per channel, and a data-bus occupancy model that
 * caps per-stack bandwidth (paper Table 1: 256 GB/s per stack,
 * 16 channels, 4 dies per stack).
 */

#ifndef EQX_MEMORY_HBM_HH
#define EQX_MEMORY_HBM_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <queue>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace eqx {

/** DRAM timing in core clock cycles (1126 MHz domain). */
struct DramTiming
{
    int tRCD = 16; ///< activate -> column access
    int tRP = 16;  ///< precharge
    int tCL = 16;  ///< CAS latency
    int tBL = 4;   ///< data burst occupancy on the channel bus
    int tWR = 18;  ///< write recovery (adds to write completion)
};

/** Geometry and policy parameters of one HBM stack. */
struct HbmParams
{
    int channels = 16;      ///< channels per stack (8 ch x 2 pseudo)
    int banksPerChannel = 8;
    int queueDepth = 16;    ///< per-channel scheduler queue
    int lineBytes = 64;
    DramTiming timing;
};

/** One memory access presented to the stack. */
struct MemRequest
{
    Addr addr = 0;
    bool write = false;
    std::uint64_t tag = 0;
};

/**
 * One HBM stack with FR-FCFS scheduling. The owner ticks it once per
 * core cycle; completions fire the callback with the original request.
 */
class HbmStack
{
  public:
    using Callback = std::function<void(const MemRequest &, Cycle)>;

    explicit HbmStack(const HbmParams &params, Callback on_complete);

    /** Is there queue space for the channel this address maps to? */
    bool canEnqueue(Addr addr) const;

    /** Add a request (caller must have checked canEnqueue). */
    void enqueue(const MemRequest &req, Cycle now);

    /** Advance one core cycle: issue per channel, fire completions. */
    void tick(Cycle now);

    /** Requests accepted but not yet completed. */
    int outstanding() const { return outstanding_; }

    const StatGroup &stats() const { return counters_.view(); }

    /** Address decomposition helpers (line-interleaved channels). */
    int channelOf(Addr addr) const;
    int bankOf(Addr addr) const;
    std::int64_t rowOf(Addr addr) const;

  private:
    /** Event counters; stats() names them in hbm.cc. */
    enum class Stat : std::uint8_t
    {
        Reads,
        Writes,
        RowHits,
        RowConflicts,
        RowEmpty,
        Completions,
        Count
    };

    struct Bank
    {
        std::int64_t openRow = -1;
        Cycle readyAt = 0;
    };

    /** A queued request with its bank and row decoded at enqueue. */
    struct Queued
    {
        MemRequest req;
        int bank;
        std::int64_t row;
    };

    struct Channel
    {
        std::deque<Queued> queue;
        std::vector<Bank> banks;
        Cycle busFreeAt = 0;
        /** No issue can happen before this cycle (DESIGN.md §18):
         *  busFreeAt after an issue, else the earliest readyAt among
         *  the queued requests' banks; enqueue() lowers it. */
        Cycle nextIssue = 0;
    };

    struct Inflight
    {
        Cycle finishAt;
        MemRequest req;
        bool operator>(const Inflight &o) const
        {
            return finishAt > o.finishAt;
        }
    };

    /** FR-FCFS issue on one backlogged channel (no-op while its bus
     *  is busy or no queued request's bank is ready); either way it
     *  sets the channel's nextIssue. */
    void issueChannel(Channel &ch, Cycle now);

    HbmParams params_;
    Callback onComplete_;
    std::vector<Channel> channels_;
    /** Bit c set iff channels_[c] has queued requests. */
    std::uint64_t backlog_ = 0;
    std::priority_queue<Inflight, std::vector<Inflight>,
                        std::greater<Inflight>>
        inflight_;
    int outstanding_ = 0;
    CounterArray<Stat> counters_;
};

} // namespace eqx

#endif // EQX_MEMORY_HBM_HH
