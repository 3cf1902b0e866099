/**
 * @file
 * 2D geometry on the tile grid: exact integer segment-intersection
 * predicates used to count RDL wire crossings in the interposer.
 */

#ifndef EQX_COMMON_GEOMETRY_HH
#define EQX_COMMON_GEOMETRY_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace eqx {

/** A straight wire segment between two tile centres. */
struct Segment
{
    Coord a;
    Coord b;
};

/** Signed orientation of (a, b, c): >0 counter-clockwise, 0 collinear. */
std::int64_t orient(const Coord &a, const Coord &b, const Coord &c);

/** True if c lies on the closed segment [a, b] (assumes collinear). */
bool onSegment(const Coord &a, const Coord &b, const Coord &c);

/**
 * True if the two closed segments intersect at any point, including
 * endpoints and collinear overlap.
 */
bool segmentsIntersect(const Segment &s, const Segment &t);

/**
 * True if the segments *cross* in the RDL sense: they share at least
 * one point that is not a shared endpoint. Two wires fanning out from
 * the same ubump do not need an extra metal layer; wires that touch or
 * overlap anywhere else do.
 */
bool segmentsCross(const Segment &s, const Segment &t);

/** Number of crossing pairs among a set of segments (RDL cross-points). */
int countCrossings(const std::vector<Segment> &segs);

/**
 * Minimum number of RDL metal layers needed so no two wires in the
 * same layer cross: a greedy colouring of the crossing graph.
 * Returns at least 1 for a non-empty set.
 */
int rdlLayersNeeded(const std::vector<Segment> &segs);

/** Euclidean length of a segment in tile pitches. */
double segmentLength(const Segment &s);

/**
 * Incrementally maintained pairwise crossing count over slot-grouped
 * segments. Adding a slot's segments costs O(new x existing) cross
 * tests instead of recounting all pairs; removing a slot subtracts
 * exactly what its addition contributed, so the running count always
 * equals countCrossings() over the union of the present segments
 * (same segmentsCross predicate, integer arithmetic, no drift).
 */
class CrossingLedger
{
  public:
    /**
     * Install @p segs as slot @p slot (which must currently be empty)
     * and add their crossings with every present segment — including
     * the pairs internal to @p segs — to the running count. Slots
     * and segment pairs whose bounding boxes are disjoint cannot
     * cross and are skipped before the exact predicate runs.
     */
    void add(int slot, const std::vector<Segment> &segs);

    /** Remove slot @p slot's segments and their crossings. */
    void remove(int slot);

    /** True if the slot currently holds segments. */
    bool occupied(int slot) const;

    /** Current pairwise crossing count over all present segments. */
    int crossings() const { return count_; }

    /** Total number of present segments. */
    std::size_t size() const { return total_; }

    /** Drop every slot. */
    void clear();

  private:
    /** A closed axis-aligned bounding box. */
    struct Box
    {
        int x0, y0, x1, y1;
    };
    struct Slot
    {
        std::vector<Segment> segs;
        Box box{}; ///< bounds every segment in segs
    };

    static Box boxOf(const Segment &s);
    static Box boxOf(const std::vector<Segment> &segs);
    static bool meet(const Box &a, const Box &b);

    /** Crossings between @p segs and every *other* slot's segments. */
    int against(int slot, const std::vector<Segment> &segs) const;

    std::vector<Slot> slots_;
    std::size_t total_ = 0;
    int count_ = 0;
};

} // namespace eqx

#endif // EQX_COMMON_GEOMETRY_HH
