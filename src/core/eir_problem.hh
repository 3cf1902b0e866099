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

#include <map>
#include <vector>

#include "common/tile_mask.hh"
#include "common/types.hh"
#include "interposer/link_plan.hh"
#include "noc/topology.hh"

namespace eqx {

/** A full assignment: CB index -> its EIR tiles. */
using EirSelection = std::vector<std::vector<Coord>>;

/** Relative-direction octant of @p to as seen from @p from (0..7). */
int directionOctant(const Coord &from, const Coord &to);

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

    /** All individually legal EIR tiles for CB @p cb_idx. */
    const std::vector<Coord> &candidates(int cb_idx) const;

    /**
     * Enumerate legal groups for CB @p cb_idx, excluding tiles already
     * taken by other groups. Groups satisfy the octant and size rules;
     * the empty group is included last as a fallback (a CB may end up
     * with no EIR near a crowded boundary).
     */
    std::vector<std::vector<Coord>>
    groupsFor(int cb_idx, const TileMask &taken) const;

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
};

} // namespace eqx

#endif // EQX_CORE_EIR_PROBLEM_HH
