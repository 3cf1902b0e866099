/**
 * @file
 * Set-associative tag array with true-LRU replacement, shared by the
 * PE L1 caches and the L2 cache banks.
 */

#ifndef EQX_GPU_TAG_ARRAY_HH
#define EQX_GPU_TAG_ARRAY_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace eqx {

/** Geometry of one cache structure. */
struct CacheGeometry
{
    std::int64_t sizeBytes = 16 * 1024;
    int lineBytes = 64;
    int ways = 4;

    int numSets() const
    {
        return static_cast<int>(sizeBytes / (lineBytes * ways));
    }
};

/** Tag store with LRU; operates on line addresses (addr / lineBytes). */
class TagArray
{
  public:
    explicit TagArray(const CacheGeometry &geom);

    /** Result of an insertion: the evicted victim, if any. */
    struct Victim
    {
        bool valid = false;
        Addr line = 0;
        bool dirty = false;
    };

    /** True if the line is present (no LRU update). */
    bool contains(Addr line) const;

    /** Present + LRU touch. */
    bool probe(Addr line);

    /** Account @p n missing probes at once: a parked PE's skipped
     *  retries of a read that keeps missing. */
    void
    replayMisses(std::uint64_t n)
    {
        clock_ += n;
        misses_ += n;
    }

    /** Insert a line (must not be present); returns the victim. */
    Victim insert(Addr line, bool dirty);

    /** Mark an existing line dirty; false if absent. */
    bool markDirty(Addr line);

    /** Invalidate a line if present; returns whether it was dirty. */
    bool invalidate(Addr line, bool *was_dirty = nullptr);

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    const CacheGeometry &geometry() const { return geom_; }

  private:
    struct Entry
    {
        Addr line = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t lru = 0;
    };

    int setOf(Addr line) const
    {
        return static_cast<int>(line % static_cast<Addr>(sets_));
    }
    Entry *find(Addr line);
    const Entry *find(Addr line) const;

    CacheGeometry geom_;
    int sets_;
    std::vector<Entry> entries_; ///< sets_ x ways, row-major
    std::uint64_t clock_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace eqx

#endif // EQX_GPU_TAG_ARRAY_HH
