#include "eval_reference.hh"

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

namespace eqx {

EvalBreakdown
referenceEvaluate(const EirEvaluator &eval, const EirSelection &sel)
{
    const EirProblem *prob = eval.problem();
    const int w = prob->width();
    const int h = prob->height();

    // Injection-point loads, per tile. Only CBs whose group has been
    // decided participate, so partial selections judged during search
    // are not drowned by the still-undecided CBs.
    std::map<Coord, double> load;
    double hop_sum = 0;
    double hop_weight = 0;
    int decided = std::min<int>(prob->numCbs(),
                                static_cast<int>(sel.size()));
    if (decided == 0)
        decided = prob->numCbs(); // empty selection = all-local design

    for (int i = 0; i < decided; ++i) {
        const Coord &cb = prob->cbs()[static_cast<std::size_t>(i)];
        const std::vector<Coord> *group =
            i < static_cast<int>(sel.size())
                ? &sel[static_cast<std::size_t>(i)]
                : nullptr;

        for (int y = 0; y < h; ++y) {
            for (int x = 0; x < w; ++x) {
                Coord p{x, y};
                if (eval.isCb(p))
                    continue;
                int base = prob->distance(cb, p);

                // Shortest-path EIRs per the Buffer Selection policy.
                Coord elig[2];
                int n_elig = 0;
                if (group) {
                    for (const auto &e : *group) {
                        if (prob->distance(cb, e) + prob->distance(e, p) == base &&
                            n_elig < 2)
                            elig[n_elig++] = e;
                    }
                }
                bool on_axis = cb.x == p.x || cb.y == p.y;
                if (n_elig == 0) {
                    load[cb] += 1.0;
                    hop_sum += base;
                } else if (on_axis || n_elig == 1) {
                    load[elig[0]] += 1.0;
                    hop_sum += 1 + prob->distance(elig[0], p);
                } else {
                    load[elig[0]] += 0.5;
                    load[elig[1]] += 0.5;
                    hop_sum += 0.5 * (1 + prob->distance(elig[0], p)) +
                               0.5 * (1 + prob->distance(elig[1], p));
                }
                hop_weight += 1.0;
            }
        }
    }

    std::vector<std::pair<Coord, double>> loads;
    loads.reserve(load.size());
    for (const auto &[tile, l] : load)
        loads.emplace_back(tile, l);

    LinkPlan plan = prob->linkPlan(sel);
    int over_reach = 0;
    for (const auto &link : plan.links())
        if (link.hops() > EirEvaluator::kReachHops)
            ++over_reach;

    return eval.finish(loads, hop_sum, hop_weight, plan.crossings(),
                       plan.totalLengthHops(), plan.size(), over_reach);
}

} // namespace eqx
