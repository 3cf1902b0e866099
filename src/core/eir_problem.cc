#include "core/eir_problem.hh"

#include <algorithm>
#include <array>
#include <set>
#include <string>

#include "common/logging.hh"
#include "core/hotzone.hh"

namespace eqx {

int
directionOctant(const Coord &from, const Coord &to)
{
    int dx = to.x - from.x;
    int dy = to.y - from.y;
    eqx_assert(dx != 0 || dy != 0, "octant of identical tiles undefined");
    // E=0, NE=1, N=2, NW=3, W=4, SW=5, S=6, SE=7 (y grows south).
    if (dy == 0)
        return dx > 0 ? 0 : 4;
    if (dx == 0)
        return dy < 0 ? 2 : 6;
    if (dx > 0)
        return dy < 0 ? 1 : 7;
    return dy < 0 ? 3 : 5;
}

EirProblem::EirProblem(int width, int height, std::vector<Coord> cbs,
                       int max_hops, int max_per_group,
                       const TopoSpec &topo)
    : w_(width), h_(height), topo_(makeTopology(width, height, topo)),
      cbs_(std::move(cbs)), maxHops_(max_hops),
      maxPerGroup_(max_per_group)
{
    eqx_assert(maxHops_ >= 2, "EIRs must bypass the hot zone (>= 2 hops)");
    eqx_assert(maxPerGroup_ >= 1 && maxPerGroup_ <= 8,
               "group size must be within 1..8");
    candidates_.resize(cbs_.size());
    byOctant_.resize(cbs_.size());
    for (int i = 0; i < numCbs(); ++i) {
        auto idx = static_cast<std::size_t>(i);
        for (int y = 0; y < h_; ++y) {
            for (int x = 0; x < w_; ++x) {
                Coord c{x, y};
                if (!legalEir(i, c))
                    continue;
                candidates_[idx].push_back(c);
                byOctant_[idx][static_cast<std::size_t>(
                                   directionOctant(cbs_[idx], c))]
                    .push_back(c);
            }
        }
    }
}

bool
EirProblem::legalEir(int cb_idx, const Coord &c) const
{
    const Coord &cb = cbs_[static_cast<std::size_t>(cb_idx)];
    int d = distance(cb, c);
    if (d < 2 || d > maxHops_)
        return false;
    // Never on a CB tile; never inside the *own* CB's DAZ/CAZ hot zone
    // (the EIR must bypass it). Sitting in another CB's hot zone is
    // legal but discouraged by the evaluation's contention-aware load
    // metric (paper Section 3.2.4 lists it as a soft consideration).
    if (chebyshev(cb, c) <= 1)
        return false;
    for (const auto &other : cbs_)
        if (other == c)
            return false;
    return true;
}

const std::vector<Coord> &
EirProblem::candidates(int cb_idx) const
{
    return candidates_[static_cast<std::size_t>(cb_idx)];
}

GroupList
EirProblem::groupsFor(int cb_idx, const TileMask &taken) const
{
    // The free candidates by direction octant; axes first so that
    // enumeration favours the axis placements the paper's design
    // converges to.
    std::array<std::vector<Coord>, 8> byOctant;
    for (int oct = 0; oct < 8; ++oct)
        for (const auto &c : candidatesIn(cb_idx, oct))
            if (!taken.test(c))
                byOctant[static_cast<std::size_t>(oct)].push_back(c);
    const std::array<int, 8> octant_order{{0, 2, 4, 6, 1, 3, 5, 7}};

    GroupList out;
    constexpr std::size_t kMaxGroups = 8192;
    std::size_t num_groups = 0;
    std::array<Coord, 8> cur;
    std::size_t cur_size = 0;
    out.start_.push_back(0);

    // Depth-first over octants in preference order; at each octant
    // either skip it or take one of its candidates.
    auto rec = [&](auto &&self, int oi) -> void {
        if (num_groups >= kMaxGroups)
            return;
        if (oi == 8) {
            if (cur_size > 0) {
                out.tiles_.insert(out.tiles_.end(), cur.begin(),
                                  cur.begin() +
                                      static_cast<std::ptrdiff_t>(cur_size));
                out.start_.push_back(
                    static_cast<std::uint32_t>(out.tiles_.size()));
                ++num_groups;
            }
            return;
        }
        int oct = octant_order[static_cast<std::size_t>(oi)];
        if (static_cast<int>(cur_size) < maxPerGroup_) {
            for (const auto &c :
                 byOctant[static_cast<std::size_t>(oct)]) {
                cur[cur_size++] = c;
                self(self, oi + 1);
                --cur_size;
                if (num_groups >= kMaxGroups)
                    return;
            }
        }
        self(self, oi + 1); // skip this octant
    };
    rec(rec, 0);

    // Larger groups first, enumeration order within a size (a stable
    // sort by size): more injection equivalents is the point.
    out.order_.reserve(num_groups + 1);
    for (int size = maxPerGroup_; size >= 1; --size)
        for (std::uint32_t g = 0; g < num_groups; ++g)
            if (out.start_[g + 1] - out.start_[g] ==
                static_cast<std::uint32_t>(size))
                out.order_.push_back(g);
    // The empty fallback group.
    out.start_.push_back(static_cast<std::uint32_t>(out.tiles_.size()));
    out.order_.push_back(static_cast<std::uint32_t>(num_groups));
    return out;
}

bool
EirProblem::valid(const EirSelection &sel, std::string *why) const
{
    auto fail = [&](const std::string &msg) {
        if (why)
            *why = msg;
        return false;
    };
    if (static_cast<int>(sel.size()) != numCbs())
        return fail("selection size != number of CBs");
    std::set<Coord> seen;
    for (int i = 0; i < numCbs(); ++i) {
        const auto &group = sel[static_cast<std::size_t>(i)];
        if (static_cast<int>(group.size()) > maxPerGroup_)
            return fail("group too large");
        std::set<int> octs;
        for (const auto &e : group) {
            if (!legalEir(i, e))
                return fail("illegal EIR tile");
            if (!seen.insert(e).second)
                return fail("EIR shared between CBs");
            int oct = directionOctant(cbs_[static_cast<std::size_t>(i)],
                                      e);
            if (!octs.insert(oct).second)
                return fail("two EIRs in the same direction octant");
        }
    }
    return true;
}

LinkPlan
EirProblem::linkPlan(const EirSelection &sel, int width_bits) const
{
    LinkPlan plan(/*one_cycle_reach_hops=*/2);
    for (int i = 0;
         i < std::min(numCbs(), static_cast<int>(sel.size())); ++i) {
        for (const auto &e : sel[static_cast<std::size_t>(i)]) {
            InterposerLink link;
            link.src = cbs_[static_cast<std::size_t>(i)];
            link.dst = e;
            link.widthBits = width_bits;
            link.bidirectional = false;
            plan.add(link);
        }
    }
    return plan;
}

} // namespace eqx
