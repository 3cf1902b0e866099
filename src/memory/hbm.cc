#include "memory/hbm.hh"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/logging.hh"

namespace eqx {

namespace {

/** HbmStack::Stat names, in enum order. */
const char *const kStatNames[] = {
    "reads",
    "writes",
    "row_hits",
    "row_conflicts",
    "row_empty",
    "completions",
};

} // namespace

HbmStack::HbmStack(const HbmParams &params, Callback on_complete)
    : params_(params), onComplete_(std::move(on_complete)),
      counters_(kStatNames)
{
    eqx_assert(params_.channels >= 1 && params_.banksPerChannel >= 1,
               "HBM geometry must be positive");
    eqx_assert(params_.channels <= 64,
               "HBM backlog mask holds at most 64 channels");
    channels_.resize(static_cast<std::size_t>(params_.channels));
    for (auto &ch : channels_)
        ch.banks.resize(static_cast<std::size_t>(params_.banksPerChannel));
}

int
HbmStack::channelOf(Addr addr) const
{
    return static_cast<int>((addr / static_cast<Addr>(params_.lineBytes)) %
                            static_cast<Addr>(params_.channels));
}

int
HbmStack::bankOf(Addr addr) const
{
    Addr line = addr / static_cast<Addr>(params_.lineBytes);
    return static_cast<int>((line / static_cast<Addr>(params_.channels)) %
                            static_cast<Addr>(params_.banksPerChannel));
}

std::int64_t
HbmStack::rowOf(Addr addr) const
{
    Addr line = addr / static_cast<Addr>(params_.lineBytes);
    // 64 lines (4 KiB rows at 64 B lines) per row.
    return static_cast<std::int64_t>(
        line / static_cast<Addr>(params_.channels) /
        static_cast<Addr>(params_.banksPerChannel) / 64);
}

bool
HbmStack::canEnqueue(Addr addr) const
{
    const auto &ch = channels_[static_cast<std::size_t>(channelOf(addr))];
    return static_cast<int>(ch.queue.size()) < params_.queueDepth;
}

void
HbmStack::enqueue(const MemRequest &req, Cycle)
{
    int c = channelOf(req.addr);
    auto &ch = channels_[static_cast<std::size_t>(c)];
    eqx_assert(static_cast<int>(ch.queue.size()) < params_.queueDepth,
               "HBM channel queue overflow");
    int bank = bankOf(req.addr);
    ch.queue.push_back(Queued{req, bank, rowOf(req.addr)});
    ch.nextIssue = std::min(
        ch.nextIssue,
        std::max(ch.busFreeAt,
                 ch.banks[static_cast<std::size_t>(bank)].readyAt));
    backlog_ |= std::uint64_t{1} << c;
    ++outstanding_;
    counters_.inc(req.write ? Stat::Writes : Stat::Reads);
}

void
HbmStack::issueChannel(Channel &ch, Cycle now)
{
    if (ch.busFreeAt > now) {
        ch.nextIssue = ch.busFreeAt;
        return;
    }
    const DramTiming &t = params_.timing;

    // FR-FCFS: first ready row-hit; otherwise the oldest ready request.
    const std::size_t n = ch.queue.size();
    std::size_t pick = n;
    std::size_t oldest_ready = n;
    Cycle first_ready = kNeverCycle; ///< of the banks not ready now
    for (std::size_t i = 0; i < n; ++i) {
        const Queued &q = ch.queue[i];
        const Bank &b = ch.banks[static_cast<std::size_t>(q.bank)];
        if (b.readyAt > now) {
            first_ready = std::min(first_ready, b.readyAt);
            continue;
        }
        if (b.openRow == q.row) {
            pick = i;
            break;
        }
        if (oldest_ready == n)
            oldest_ready = i;
    }
    if (pick == n)
        pick = oldest_ready;
    if (pick == n) {
        ch.nextIssue = first_ready; // the whole queue was scanned
        return;
    }

    Queued q = ch.queue[pick];
    ch.queue.erase(ch.queue.begin() +
                   static_cast<std::ptrdiff_t>(pick));
    const MemRequest &req = q.req;

    Bank &bank = ch.banks[static_cast<std::size_t>(q.bank)];
    int access_lat;
    if (bank.openRow == q.row) {
        access_lat = t.tCL + t.tBL;
        counters_.inc(Stat::RowHits);
    } else if (bank.openRow >= 0) {
        access_lat = t.tRP + t.tRCD + t.tCL + t.tBL;
        counters_.inc(Stat::RowConflicts);
    } else {
        access_lat = t.tRCD + t.tCL + t.tBL;
        counters_.inc(Stat::RowEmpty);
    }
    bank.openRow = q.row;

    Cycle finish = now + static_cast<Cycle>(access_lat) +
                   static_cast<Cycle>(req.write ? t.tWR : 0);
    bank.readyAt = finish;
    ch.busFreeAt = now + static_cast<Cycle>(t.tBL);
    ch.nextIssue = ch.busFreeAt;
    inflight_.push(Inflight{finish, req});
}

void
HbmStack::tick(Cycle now)
{
    while (!inflight_.empty() && inflight_.top().finishAt <= now) {
        MemRequest req = inflight_.top().req;
        inflight_.pop();
        --outstanding_;
        counters_.inc(Stat::Completions);
        onComplete_(req, now);
    }
    // Backlogged channels only, in ascending order: the order in which
    // same-cycle issues enter inflight_ decides completion order. A
    // channel whose next possible issue lies ahead would find its bus
    // busy or no bank ready, so it is skipped.
    for (std::uint64_t m = backlog_; m != 0; m &= m - 1) {
        int c = std::countr_zero(m);
        Channel &ch = channels_[static_cast<std::size_t>(c)];
        if (ch.nextIssue > now)
            continue;
        issueChannel(ch, now);
        if (ch.queue.empty())
            backlog_ &= ~(std::uint64_t{1} << c);
    }
}

} // namespace eqx
