/**
 * @file
 * The EIR selection problem (paper Section 3.2 / 4.3): given a CB
 * placement, choose for every CB a group of Equivalent Injection
 * Routers subject to the topological, architectural and physical
 * constraints the paper identifies.
 *
 * Constraints encoded here:
 *  - an EIR lies within [2, maxHops] Manhattan hops of its CB
 *    (distance >= 2 bypasses the DAZ/CAZ hot zone);
 *  - an EIR is not a CB and not inside any CB's hot zone;
 *  - at most one EIR per relative direction octant (4 axes +
 *    4 quadrants), at most maxPerGroup per CB;
 *  - an EIR serves exactly one CB (no sharing).
 */

#ifndef EQX_CORE_EIR_PROBLEM_HH
#define EQX_CORE_EIR_PROBLEM_HH

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "common/rng.hh"
#include "common/tile_mask.hh"
#include "common/types.hh"
#include "interposer/link_plan.hh"
#include "noc/topology.hh"

namespace eqx {

/** A full assignment: CB index -> its EIR tiles. */
using EirSelection = std::vector<std::vector<Coord>>;

/** Relative-direction octant of @p to as seen from @p from (0..7). */
int directionOctant(const Coord &from, const Coord &to);

/**
 * The legal groups of one CB as one flat list: every group's tiles
 * back to back in one buffer, plus a list order over them. A search
 * that keeps only a few groups (MCTS keeps 64 of ~1,700 at 16x16)
 * shuffles or truncates the order and builds vectors for the groups
 * it keeps, instead of one heap vector per enumerated group.
 */
class GroupList
{
  public:
    /** Number of groups in the list. */
    std::size_t size() const { return order_.size(); }
    bool empty() const { return order_.empty(); }

    /** The group at list position @p i. */
    std::vector<Coord>
    group(std::size_t i) const
    {
        std::uint32_t g = order_[i];
        return {tiles_.begin() + start_[g], tiles_.begin() + start_[g + 1]};
    }

    /**
     * Permute the list exactly as rng.shuffle permutes a vector of
     * size() groups: Fisher-Yates draws depend only on the length.
     */
    void shuffle(Rng &rng) { rng.shuffle(order_); }

    /** Keep only the first @p n groups. */
    void
    truncate(std::size_t n)
    {
        if (order_.size() > n)
            order_.resize(n);
    }

  private:
    friend class EirProblem;

    std::vector<Coord> tiles_;         ///< all groups' tiles
    std::vector<std::uint32_t> start_; ///< group g: [start_[g], start_[g+1])
    std::vector<std::uint32_t> order_; ///< list position -> group
};

/** Problem instance: mesh, placement and structural limits. */
class EirProblem
{
  public:
    EirProblem(int width, int height, std::vector<Coord> cbs,
               int max_hops = 3, int max_per_group = 4,
               const TopoSpec &topo = {});

    int width() const { return w_; }
    int height() const { return h_; }

    /** The reply-fabric geometry the problem is scored against. */
    const Topology &topology() const { return *topo_; }

    /**
     * Routed hop distance between tiles on the reply fabric — the
     * shared Topology::distance (DESIGN.md §17), so the evaluator's
     * hop metrics agree with what the NoC simulates. Manhattan on the
     * default mesh, byte-identical to the pre-topology scorer.
     */
    int
    distance(const Coord &a, const Coord &b) const
    {
        return topo_->distance(a, b);
    }
    int numCbs() const { return static_cast<int>(cbs_.size()); }
    const std::vector<Coord> &cbs() const { return cbs_; }
    int maxHops() const { return maxHops_; }
    int maxPerGroup() const { return maxPerGroup_; }

    /** All individually legal EIR tiles for CB @p cb_idx (row-major). */
    const std::vector<Coord> &candidates(int cb_idx) const;

    /** The candidates of CB @p cb_idx in direction @p octant, in order. */
    const std::vector<Coord> &
    candidatesIn(int cb_idx, int octant) const
    {
        return byOctant_[static_cast<std::size_t>(cb_idx)]
                        [static_cast<std::size_t>(octant)];
    }

    /**
     * Enumerate legal groups for CB @p cb_idx, excluding tiles already
     * taken by other groups. Groups satisfy the octant and size rules
     * and list larger groups first; the empty group is included last
     * as a fallback (a CB may end up with no EIR near a crowded
     * boundary).
     */
    GroupList groupsFor(int cb_idx, const TileMask &taken) const;

    /** Check a full selection against every constraint. */
    bool valid(const EirSelection &sel, std::string *why = nullptr) const;

    /** Build the interposer link plan (one 128-bit link per EIR). */
    LinkPlan linkPlan(const EirSelection &sel, int width_bits = 128) const;

  private:
    bool legalEir(int cb_idx, const Coord &c) const;

    int w_;
    int h_;
    std::unique_ptr<const Topology> topo_;
    std::vector<Coord> cbs_;
    int maxHops_;
    int maxPerGroup_;
    std::vector<std::vector<Coord>> candidates_;
    std::vector<std::array<std::vector<Coord>, 8>> byOctant_;
};

} // namespace eqx

#endif // EQX_CORE_EIR_PROBLEM_HH
