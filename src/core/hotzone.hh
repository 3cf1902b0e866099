/**
 * @file
 * Hot zones and the N-Queen scoring policy (paper Section 4.2).
 * Each CB's hot zone is the 8 surrounding tiles: the 4 directly
 * connected Direct Access Zones (DAZ) and the 4 Corner Access Zones
 * (CAZ). Tiles covered by the hot zones of two or more CBs are
 * "hot-zone overlaps"; a placement's penalty sums, per tile, the
 * compounded cost 1+2+..+m over its m overlapping direct neighbours.
 */

#ifndef EQX_CORE_HOTZONE_HH
#define EQX_CORE_HOTZONE_HH

#include <vector>

#include "common/types.hh"

namespace eqx {

/** The (up to) 4 DAZ tiles of a CB, clipped to the mesh. */
std::vector<Coord> dazTiles(const Coord &cb, int width, int height);

/** The (up to) 4 CAZ tiles of a CB, clipped to the mesh. */
std::vector<Coord> cazTiles(const Coord &cb, int width, int height);

/** DAZ union CAZ. */
std::vector<Coord> hotZoneTiles(const Coord &cb, int width, int height);

/** Per-tile map of how many distinct CBs cover the tile in a hot zone. */
class HotZoneMap
{
  public:
    HotZoneMap(const std::vector<Coord> &cbs, int width, int height);

    /** Add (@p delta = 1) or remove (-1) one CB's hot zone. */
    void addZone(const Coord &cb, int delta);

    /** Number of CB hot zones covering this tile (0 off the mesh). */
    int
    coverage(const Coord &c) const
    {
        if (c.x < 0 || c.x >= w_ || c.y < 0 || c.y >= h_)
            return 0;
        return cover_[static_cast<std::size_t>(c.y * w_ + c.x)];
    }

    /** A tile covered by >= 2 distinct CB hot zones. */
    bool isOverlap(const Coord &c) const { return coverage(c) >= 2; }

    /** True if the tile is in any CB's hot zone. */
    bool inAnyHotZone(const Coord &c) const { return coverage(c) >= 1; }

    int width() const { return w_; }
    int height() const { return h_; }

  private:
    int w_;
    int h_;
    std::vector<int> cover_;
};

/**
 * Penalty of one tile: with m of its direct neighbours being hot-zone
 * overlaps, the score is sum(1..m) = m(m+1)/2 to reflect compounded
 * delay (paper's example: two overlap neighbours -> 1+2 = 3).
 */
inline int
tilePenalty(const HotZoneMap &map, const Coord &c)
{
    int m = map.isOverlap({c.x, c.y - 1}) + map.isOverlap({c.x + 1, c.y}) +
            map.isOverlap({c.x, c.y + 1}) + map.isOverlap({c.x - 1, c.y});
    return m * (m + 1) / 2;
}

/** Total penalty of a placement: the sum of all tile penalties. */
int placementPenalty(const std::vector<Coord> &cbs, int width, int height);

} // namespace eqx

#endif // EQX_CORE_HOTZONE_HH
