#include "trim_reference.hh"

#include "core/hotzone.hh"

namespace eqx {

std::vector<Coord>
referenceGreedyTrim(std::vector<Coord> cbs, int num_cbs, int n)
{
    while (static_cast<int>(cbs.size()) > num_cbs) {
        int best_idx = -1;
        int best_penalty = 0;
        for (std::size_t i = 0; i < cbs.size(); ++i) {
            std::vector<Coord> trial;
            trial.reserve(cbs.size() - 1);
            for (std::size_t j = 0; j < cbs.size(); ++j)
                if (j != i)
                    trial.push_back(cbs[j]);
            int p = placementPenalty(trial, n, n);
            if (best_idx < 0 || p < best_penalty) {
                best_idx = static_cast<int>(i);
                best_penalty = p;
            }
        }
        cbs.erase(cbs.begin() + best_idx);
    }
    return cbs;
}

} // namespace eqx
