#include "core/hotzone.hh"

#include "common/logging.hh"

namespace eqx {

namespace {

bool
inBounds(const Coord &c, int w, int h)
{
    return c.x >= 0 && c.x < w && c.y >= 0 && c.y < h;
}

} // namespace

std::vector<Coord>
dazTiles(const Coord &cb, int width, int height)
{
    std::vector<Coord> out;
    for (Dir d : {Dir::North, Dir::East, Dir::South, Dir::West}) {
        Coord s = dirStep(d);
        Coord c{cb.x + s.x, cb.y + s.y};
        if (inBounds(c, width, height))
            out.push_back(c);
    }
    return out;
}

std::vector<Coord>
cazTiles(const Coord &cb, int width, int height)
{
    std::vector<Coord> out;
    for (int dx : {-1, 1}) {
        for (int dy : {-1, 1}) {
            Coord c{cb.x + dx, cb.y + dy};
            if (inBounds(c, width, height))
                out.push_back(c);
        }
    }
    return out;
}

std::vector<Coord>
hotZoneTiles(const Coord &cb, int width, int height)
{
    auto out = dazTiles(cb, width, height);
    auto caz = cazTiles(cb, width, height);
    out.insert(out.end(), caz.begin(), caz.end());
    return out;
}

HotZoneMap::HotZoneMap(const std::vector<Coord> &cbs, int width, int height)
    : w_(width), h_(height),
      cover_(static_cast<std::size_t>(width * height), 0)
{
    for (const auto &cb : cbs)
        addZone(cb, 1);
}

void
HotZoneMap::addZone(const Coord &cb, int delta)
{
    eqx_assert(inBounds(cb, w_, h_), "CB out of bounds");
    // The hot zone is the 8-neighbourhood: DAZ union CAZ.
    for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
            Coord t{cb.x + dx, cb.y + dy};
            if ((dx != 0 || dy != 0) && inBounds(t, w_, h_))
                cover_[static_cast<std::size_t>(t.y * w_ + t.x)] += delta;
        }
    }
}

int
placementPenalty(const std::vector<Coord> &cbs, int width, int height)
{
    HotZoneMap map(cbs, width, height);
    int total = 0;
    for (int y = 0; y < height; ++y)
        for (int x = 0; x < width; ++x)
            total += tilePenalty(map, Coord{x, y});
    return total;
}

} // namespace eqx
