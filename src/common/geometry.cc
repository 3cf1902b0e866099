#include "common/geometry.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace eqx {

std::int64_t
orient(const Coord &a, const Coord &b, const Coord &c)
{
    std::int64_t abx = b.x - a.x;
    std::int64_t aby = b.y - a.y;
    std::int64_t acx = c.x - a.x;
    std::int64_t acy = c.y - a.y;
    return abx * acy - aby * acx;
}

bool
onSegment(const Coord &a, const Coord &b, const Coord &c)
{
    return std::min(a.x, b.x) <= c.x && c.x <= std::max(a.x, b.x) &&
           std::min(a.y, b.y) <= c.y && c.y <= std::max(a.y, b.y);
}

bool
segmentsIntersect(const Segment &s, const Segment &t)
{
    std::int64_t d1 = orient(s.a, s.b, t.a);
    std::int64_t d2 = orient(s.a, s.b, t.b);
    std::int64_t d3 = orient(t.a, t.b, s.a);
    std::int64_t d4 = orient(t.a, t.b, s.b);

    if (((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) &&
        ((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0)))
        return true;

    if (d1 == 0 && onSegment(s.a, s.b, t.a))
        return true;
    if (d2 == 0 && onSegment(s.a, s.b, t.b))
        return true;
    if (d3 == 0 && onSegment(t.a, t.b, s.a))
        return true;
    if (d4 == 0 && onSegment(t.a, t.b, s.b))
        return true;
    return false;
}

namespace {

bool
sharedEndpointOnly(const Segment &s, const Segment &t)
{
    // Count distinct shared endpoints.
    bool aa = s.a == t.a, ab = s.a == t.b, ba = s.b == t.a, bb = s.b == t.b;
    if (!(aa || ab || ba || bb))
        return false;
    // They share an endpoint; the intersection is *only* that endpoint
    // if neither of the other endpoints lies on the opposite segment.
    Coord shared = aa || ab ? s.a : s.b;
    Coord sOther = aa || ab ? s.b : s.a;
    Coord tOther = aa || ba ? t.b : t.a;
    if (orient(s.a, s.b, tOther) == 0 && onSegment(s.a, s.b, tOther) &&
        tOther != shared)
        return false;
    if (orient(t.a, t.b, sOther) == 0 && onSegment(t.a, t.b, sOther) &&
        sOther != shared)
        return false;
    return true;
}

} // namespace

bool
segmentsCross(const Segment &s, const Segment &t)
{
    if (!segmentsIntersect(s, t))
        return false;
    return !sharedEndpointOnly(s, t);
}

int
countCrossings(const std::vector<Segment> &segs)
{
    int crossings = 0;
    for (std::size_t i = 0; i < segs.size(); ++i)
        for (std::size_t j = i + 1; j < segs.size(); ++j)
            if (segmentsCross(segs[i], segs[j]))
                ++crossings;
    return crossings;
}

int
rdlLayersNeeded(const std::vector<Segment> &segs)
{
    if (segs.empty())
        return 0;
    std::size_t n = segs.size();
    std::vector<int> layer(n, -1);
    int layers = 1;
    for (std::size_t i = 0; i < n; ++i) {
        // Greedy: lowest layer with no crossing against already-placed
        // wires in that layer.
        for (int l = 0;; ++l) {
            bool ok = true;
            for (std::size_t j = 0; j < i && ok; ++j) {
                if (layer[j] == l && segmentsCross(segs[i], segs[j]))
                    ok = false;
            }
            if (ok) {
                layer[i] = l;
                layers = std::max(layers, l + 1);
                break;
            }
        }
    }
    return layers;
}

double
segmentLength(const Segment &s)
{
    double dx = s.b.x - s.a.x;
    double dy = s.b.y - s.a.y;
    return std::sqrt(dx * dx + dy * dy);
}

CrossingLedger::Box
CrossingLedger::boxOf(const Segment &s)
{
    return {std::min(s.a.x, s.b.x), std::min(s.a.y, s.b.y),
            std::max(s.a.x, s.b.x), std::max(s.a.y, s.b.y)};
}

CrossingLedger::Box
CrossingLedger::boxOf(const std::vector<Segment> &segs)
{
    Box u = boxOf(segs.front());
    for (const auto &s : segs) {
        Box b = boxOf(s);
        u = {std::min(u.x0, b.x0), std::min(u.y0, b.y0),
             std::max(u.x1, b.x1), std::max(u.y1, b.y1)};
    }
    return u;
}

bool
CrossingLedger::meet(const Box &a, const Box &b)
{
    return a.x0 <= b.x1 && b.x0 <= a.x1 && a.y0 <= b.y1 && b.y0 <= a.y1;
}

int
CrossingLedger::against(int slot, const std::vector<Segment> &segs) const
{
    // Two segments that cross share a point, and it lies in both of
    // their bounding boxes (and so in both slots' boxes): a pair or a
    // slot with disjoint boxes is skipped without changing the count.
    if (segs.empty())
        return 0;
    const Box query = boxOf(segs);
    int n = 0;
    for (std::size_t o = 0; o < slots_.size(); ++o) {
        const Slot &other = slots_[o];
        if (static_cast<int>(o) == slot || other.segs.empty() ||
            !meet(query, other.box))
            continue;
        for (const auto &t : other.segs)
            for (const auto &s : segs)
                if (meet(boxOf(s), boxOf(t)) && segmentsCross(s, t))
                    ++n;
    }
    return n;
}

void
CrossingLedger::add(int slot, const std::vector<Segment> &segs)
{
    eqx_assert(slot >= 0, "ledger slot must be non-negative");
    if (static_cast<std::size_t>(slot) >= slots_.size())
        slots_.resize(static_cast<std::size_t>(slot) + 1);
    auto &dst = slots_[static_cast<std::size_t>(slot)];
    eqx_assert(dst.segs.empty(), "ledger slot already occupied");
    count_ += against(slot, segs);
    for (std::size_t i = 0; i < segs.size(); ++i)
        for (std::size_t j = i + 1; j < segs.size(); ++j)
            if (segmentsCross(segs[i], segs[j]))
                ++count_;
    total_ += segs.size();
    dst.segs.assign(segs.begin(), segs.end()); // reuses the capacity
    if (!segs.empty())
        dst.box = boxOf(segs);
}

void
CrossingLedger::remove(int slot)
{
    eqx_assert(slot >= 0 &&
                   static_cast<std::size_t>(slot) < slots_.size(),
               "removing an unknown ledger slot");
    auto &segs = slots_[static_cast<std::size_t>(slot)].segs;
    count_ -= against(slot, segs);
    for (std::size_t i = 0; i < segs.size(); ++i)
        for (std::size_t j = i + 1; j < segs.size(); ++j)
            if (segmentsCross(segs[i], segs[j]))
                --count_;
    total_ -= segs.size();
    segs.clear();
    eqx_assert(count_ >= 0, "ledger crossing count went negative");
}

bool
CrossingLedger::occupied(int slot) const
{
    return slot >= 0 && static_cast<std::size_t>(slot) < slots_.size() &&
           !slots_[static_cast<std::size_t>(slot)].segs.empty();
}

void
CrossingLedger::clear()
{
    slots_.clear();
    total_ = 0;
    count_ = 0;
}

} // namespace eqx
