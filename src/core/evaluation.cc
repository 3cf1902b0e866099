#include "core/evaluation.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"
#include "core/hotzone.hh"

namespace eqx {

EirEvaluator::EirEvaluator(const EirProblem *problem, EvalWeights weights)
    : prob_(problem), weights_(weights)
{
    eqx_assert(prob_, "evaluator needs a problem");
    w_ = prob_->width();
    h_ = prob_->height();

    // Selection-independent state, built once per problem: the CB
    // occupancy bitmap and the per-tile hot-zone contention factor
    // (paper Section 3.2.4 — an injection point inside other CBs' hot
    // zones absorbs their surrounding traffic too). Both depend only
    // on the immutable problem, so every evaluation shares them.
    cbMask_.assign(static_cast<std::size_t>(w_ * h_), 0);
    for (const auto &cb : prob_->cbs())
        cbMask_[static_cast<std::size_t>(cb.y * w_ + cb.x)] = 1;
    HotZoneMap hot(prob_->cbs(), w_, h_);
    loadFactor_.assign(static_cast<std::size_t>(w_ * h_), 1.0);
    for (int y = 0; y < h_; ++y) {
        for (int x = 0; x < w_; ++x) {
            Coord p{x, y};
            std::size_t i = static_cast<std::size_t>(y * w_ + x);
            double factor = 1.0;
            if (!cbMask_[i])
                factor += 0.3 * hot.coverage(p);
            loadFactor_[i] = factor;
        }
    }

    // Tile bitsets for computeContribution: the senders (non-CB
    // tiles), and per CB the senders on its row or column.
    words_ = (cbMask_.size() + 63) / 64;
    nonCb_.assign(words_, 0);
    for (std::size_t i = 0; i < cbMask_.size(); ++i) {
        if (!cbMask_[i]) {
            nonCb_[i / 64] |= std::uint64_t{1} << (i % 64);
            ++numSenders_;
        }
    }
    const std::size_t num_cbs = prob_->cbs().size();
    onAxis_.assign(words_ * num_cbs, 0);
    localHops_.assign(num_cbs, 0);
    shortcutIdx_.assign(cbMask_.size() * num_cbs, -1);

    // Per-CB all-local hop sums, and the references from the EIR-less
    // baseline.
    double dist_sum = 0;
    int pairs = 0;
    for (std::size_t c = 0; c < num_cbs; ++c) {
        const Coord &cb = prob_->cbs()[c];
        for (int y = 0; y < h_; ++y) {
            for (int x = 0; x < w_; ++x) {
                Coord p{x, y};
                if (isCb(p))
                    continue;
                std::size_t i = static_cast<std::size_t>(y * w_ + x);
                if (cb.x == p.x || cb.y == p.y)
                    onAxis_[c * words_ + i / 64] |= std::uint64_t{1}
                                                    << (i % 64);
                localHops_[c] += prob_->distance(cb, p);
                dist_sum += prob_->distance(cb, p);
                ++pairs;
            }
        }
    }
    hopRef_ = pairs ? dist_sum / pairs : 1.0;
    loadRef_ = prob_->numCbs()
                   ? static_cast<double>(pairs) / prob_->numCbs()
                   : 1.0;
}

EvalBreakdown
EirEvaluator::finish(const std::vector<std::pair<Coord, double>> &loads,
                     double hop_sum, double hop_weight, int crossings,
                     double total_length, std::size_t num_links,
                     int over_reach) const
{
    EvalBreakdown out;
    // Contention-aware load: the load metric blends the maximum (the
    // paper's hotspot criterion) with the mean load per injection
    // point, which captures the aggregate injection bandwidth every
    // additional EIR contributes. `loads` must list tiles in Coord
    // order with only actually-loaded tiles present — the entry count
    // is the mean's denominator.
    double load_sum = 0;
    for (const auto &[tile, l] : loads) {
        double factor = loadFactor(tile);
        out.maxLoad = std::max(out.maxLoad, l * factor);
        load_sum += l * factor;
    }
    double mean_load =
        loads.empty() ? 0.0
                      : load_sum / static_cast<double>(loads.size());
    out.avgHops = hop_weight > 0 ? hop_sum / hop_weight : 0.0;
    out.crossings = crossings;
    out.totalLength = total_length;

    // Normalizers: crossings per link; link length against a full
    // deployment of reach-length links (so the cost scales with how
    // much wiring is actually deployed); repeater need as the fraction
    // of links beyond the 1-cycle interposer reach of 2 hops.
    double n_links =
        std::max<double>(1.0, static_cast<double>(num_links));
    out.repeaterFrac = num_links ? over_reach / n_links : 0.0;
    double len_ref = static_cast<double>(kReachHops) * prob_->numCbs() *
                     prob_->maxPerGroup();
    double load_term =
        0.5 * (out.maxLoad / loadRef_) + 0.5 * (mean_load / loadRef_);
    out.score = weights_.load * load_term +
                weights_.hops * (out.avgHops / hopRef_) +
                weights_.crossings * (out.crossings / n_links) +
                weights_.length * (out.totalLength / len_ref) +
                weights_.repeaters * out.repeaterFrac;
    return out;
}

std::size_t
EirEvaluator::shortcutRow(int cb_idx, const Coord &g) const
{
    eqx_assert(g.x >= 0 && g.x < w_ && g.y >= 0 && g.y < h_,
               "group tile off the mesh");
    std::size_t key = static_cast<std::size_t>(cb_idx) * cbMask_.size() +
                      static_cast<std::size_t>(g.y * w_ + g.x);
    std::int32_t &row = shortcutIdx_[key];
    if (row < 0) {
        const Coord &cb = prob_->cbs()[static_cast<std::size_t>(cb_idx)];
        int cb_g = prob_->distance(cb, g);
        row = static_cast<std::int32_t>(shortcutRows_.size() / words_);
        shortcutRows_.resize(shortcutRows_.size() + words_, 0);
        std::uint64_t *bits = &shortcutRows_[shortcutRows_.size() - words_];
        for (int y = 0; y < h_; ++y) {
            for (int x = 0; x < w_; ++x) {
                Coord p{x, y};
                if (cb_g + prob_->distance(g, p) ==
                    prob_->distance(cb, p)) {
                    std::size_t i = static_cast<std::size_t>(y * w_ + x);
                    bits[i / 64] |= std::uint64_t{1} << (i % 64);
                }
            }
        }
    }
    return static_cast<std::size_t>(row) * words_;
}

void
EirEvaluator::computeContribution(int cb_idx,
                                  const std::vector<Coord> &group,
                                  EvalContribution &out) const
{
    out.loads.clear();
    out.links.clear();
    out.lengthHops = 0.0;
    out.overReach = 0;

    const Coord &cb = prob_->cbs()[static_cast<std::size_t>(cb_idx)];
    const std::size_t n = group.size();

    // Buffer Selection per non-CB tile p: a group tile g is eligible
    // when it lies on a shortest CB -> p path (its shortcut row holds
    // p). p's flow goes whole to the first eligible tile when it has
    // one, or when it shares the CB's row or column; otherwise half
    // to each of the first two; with none it stays at the CB. The
    // word loop below classifies 64 tiles at a time and only counts
    // them, which is exact: every load is (whole + 0.5 x half), and
    // a tile served by g has hop count 1 + dist(g, p) =
    // 1 + dist(cb, p) - dist(cb, g), so the hop sum is the CB's
    // all-local sum plus (1 - dist(cb, g)) per tile g serves whole
    // and half that per tile it serves split.
    std::vector<std::size_t> rows(n);
    std::vector<int> cb_dist(n);
    for (std::size_t g = 0; g < n; ++g) {
        rows[g] = shortcutRow(cb_idx, group[g]);
        cb_dist[g] = prob_->distance(cb, group[g]);
    }
    std::vector<int> whole_n(n, 0); // tiles sent whole to g
    std::vector<int> half_n(n, 0);  // tiles split between g and another
    int local_n = 0;                // tiles kept at the CB
    const std::uint64_t *axis = &onAxis_[static_cast<std::size_t>(cb_idx) *
                                         words_];
    for (std::size_t w = 0; w < words_; ++w) {
        const std::uint64_t live = nonCb_[w];
        std::uint64_t any = 0; // >= 1 eligible group tile
        std::uint64_t two = 0; // >= 2 eligible group tiles
        for (std::size_t g = 0; g < n; ++g) {
            std::uint64_t e = shortcutRows_[rows[g] + w] & live;
            two |= any & e;
            any |= e;
        }
        const std::uint64_t whole = (any & ~two) | (two & axis[w]);
        const std::uint64_t split = two & ~axis[w];
        local_n += std::popcount(live & ~any);
        std::uint64_t seen = 0, seen2 = 0;
        for (std::size_t g = 0; g < n; ++g) {
            std::uint64_t e = shortcutRows_[rows[g] + w] & live;
            std::uint64_t first = e & ~seen;
            std::uint64_t second = e & seen & ~seen2;
            whole_n[g] += std::popcount(first & whole);
            half_n[g] += std::popcount((first | second) & split);
            seen2 |= seen & e;
            seen |= e;
        }
    }

    // Hop sum in half-hop units: an integer far below 2^53, so the
    // double is the exact sum the per-tile loop would accumulate.
    std::int64_t half_hops =
        2 * localHops_[static_cast<std::size_t>(cb_idx)];
    for (std::size_t g = 0; g < n; ++g) {
        half_hops += std::int64_t{2} * whole_n[g] * (1 - cb_dist[g]) +
                     std::int64_t{half_n[g]} * (1 - cb_dist[g]);
        if (whole_n[g] + half_n[g] > 0)
            out.loads.push_back({group[g], whole_n[g] + 0.5 * half_n[g],
                                 whole_n[g] + half_n[g]});
    }
    if (local_n > 0)
        out.loads.push_back({cb, static_cast<double>(local_n), local_n});
    out.hopSum = 0.5 * static_cast<double>(half_hops);
    out.hopWeight = static_cast<double>(numSenders_);

    out.links.reserve(n);
    for (const auto &e : group) {
        out.links.push_back(Segment{cb, e});
        int hops = manhattan(cb, e);
        out.lengthHops += hops;
        if (hops > kReachHops)
            ++out.overReach;
    }
}

const EvalContribution &
EirEvaluator::contribution(int cb_idx,
                           const std::vector<Coord> &group) const
{
    eqx_assert(cb_idx >= 0 && cb_idx < prob_->numCbs(),
               "contribution for an unknown CB");
    auto it = memo_.find(MemoProbe{cb_idx, group});
    if (it != memo_.end()) {
        ++memoHits_;
        return it->second;
    }
    ++memoMisses_;
    if (memo_.size() >= kMemoCap) {
        // Past the cap: still correct, just uncached.
        computeContribution(cb_idx, group, scratch_);
        return scratch_;
    }
    auto [ins, ok] = memo_.emplace(MemoKey{cb_idx, group},
                                   EvalContribution{});
    (void)ok;
    computeContribution(cb_idx, group, ins->second);
    return ins->second;
}

} // namespace eqx
