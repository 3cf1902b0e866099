#include "core/evaluation.hh"

#include <algorithm>

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

    // References from the EIR-less baseline.
    double dist_sum = 0;
    int pairs = 0;
    for (const auto &cb : prob_->cbs()) {
        for (int y = 0; y < h_; ++y) {
            for (int x = 0; x < w_; ++x) {
                Coord p{x, y};
                if (isCb(p))
                    continue;
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

void
EirEvaluator::computeContribution(int cb_idx,
                                  const std::vector<Coord> &group,
                                  EvalContribution &out) const
{
    out.loads.clear();
    out.hopSum = 0.0;
    out.hopWeight = 0.0;
    out.links.clear();
    out.lengthHops = 0.0;
    out.overReach = 0;

    const Coord &cb = prob_->cbs()[static_cast<std::size_t>(cb_idx)];

    // One load slot per group tile plus one for the CB itself; only
    // slots that actually receive flow survive into out.loads, so the
    // combined per-tile set holds exactly the loaded tiles (the entry
    // count feeds the mean-load divisor).
    std::vector<EvalContribution::TileLoad> slots(group.size() + 1);
    for (std::size_t g = 0; g < group.size(); ++g)
        slots[g].tile = group[g];
    slots.back().tile = cb;

    // Every non-CB tile sends its flow through this CB's Buffer
    // Selection choice. All increments are multiples of 0.5 well below
    // 2^52, so the partial sums are exact and combine
    // order-independently.
    for (int y = 0; y < h_; ++y) {
        for (int x = 0; x < w_; ++x) {
            Coord p{x, y};
            if (isCb(p))
                continue;
            int base = prob_->distance(cb, p);

            int elig[2];
            int n_elig = 0;
            for (std::size_t g = 0; g < group.size(); ++g) {
                if (prob_->distance(cb, group[g]) +
                        prob_->distance(group[g], p) ==
                        base &&
                    n_elig < 2)
                    elig[n_elig++] = static_cast<int>(g);
            }
            bool on_axis = cb.x == p.x || cb.y == p.y;
            if (n_elig == 0) {
                slots.back().load += 1.0;
                ++slots.back().count;
                out.hopSum += base;
            } else if (on_axis || n_elig == 1) {
                auto &s0 = slots[static_cast<std::size_t>(elig[0])];
                s0.load += 1.0;
                ++s0.count;
                out.hopSum +=
                    1 + prob_->distance(
                            group[static_cast<std::size_t>(elig[0])], p);
            } else {
                auto &s0 = slots[static_cast<std::size_t>(elig[0])];
                auto &s1 = slots[static_cast<std::size_t>(elig[1])];
                s0.load += 0.5;
                ++s0.count;
                s1.load += 0.5;
                ++s1.count;
                out.hopSum +=
                    0.5 * (1 + prob_->distance(
                                   group[static_cast<std::size_t>(
                                       elig[0])],
                                   p)) +
                    0.5 * (1 + prob_->distance(
                                   group[static_cast<std::size_t>(
                                       elig[1])],
                                   p));
            }
            out.hopWeight += 1.0;
        }
    }

    for (auto &s : slots)
        if (s.count > 0)
            out.loads.push_back(s);

    out.links.reserve(group.size());
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
    MemoKey key{cb_idx, group};
    auto it = memo_.find(key);
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
    auto [ins, ok] = memo_.emplace(std::move(key), EvalContribution{});
    (void)ok;
    computeContribution(cb_idx, group, ins->second);
    return ins->second;
}

} // namespace eqx
