/**
 * @file
 * Fundamental value types shared by every EquiNox module: cycles,
 * node/tile coordinates, mesh directions and message classes.
 */

#ifndef EQX_COMMON_TYPES_HH
#define EQX_COMMON_TYPES_HH

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace eqx {

/** Simulation time in core clock cycles. */
using Cycle = std::uint64_t;

/**
 * "Never" sentinel cycle: the parkedAt_ mark of a router or NI that is
 * not parked (DESIGN.md §10).
 */
constexpr Cycle kNeverCycle = ~static_cast<Cycle>(0);

/**
 * One bit of an owner's active-set bitmask: the wake-on-event hook of
 * DESIGN.md §10. A component that left its owner's active set is put
 * back by firing this from the event that can unblock it. A default
 * WakeBit is unwired and never fires.
 *
 * The OR is a relaxed atomic: System ticks its request and reply
 * networks on two threads, and both wake PEs in the same words
 * (DESIGN.md §10). OR commutes, and no one reads the words until the
 * network phase ends, when the PEs tick on the caller and nothing
 * fires a wake (DESIGN.md §8), so the result is the serial one.
 */
struct WakeBit
{
    std::uint64_t *word = nullptr;
    std::uint64_t mask = 0;

    void
    fire() const
    {
        if (word)
            std::atomic_ref<std::uint64_t>(*word).fetch_or(
                mask, std::memory_order_relaxed);
    }
};

/**
 * A set of component indices, one bit each: the active sets of
 * DESIGN.md §10. Sized once, so the words never move and wake bits
 * stay valid. set() and clear() are plain stores; only WakeBit::fire
 * is atomic.
 */
class ActiveSet
{
  public:
    explicit ActiveSet(std::size_t n = 0) : words_((n + 63) / 64) {}

    void set(std::size_t i) { words_[i >> 6] |= bit(i); }
    void clear(std::size_t i) { words_[i >> 6] &= ~bit(i); }
    bool test(std::size_t i) const { return (words_[i >> 6] & bit(i)) != 0; }
    bool
    any() const
    {
        return std::any_of(words_.begin(), words_.end(),
                           [](std::uint64_t w) { return w != 0; });
    }
    WakeBit wakeBit(std::size_t i) { return {&words_[i >> 6], bit(i)}; }

    /**
     * Visit the set indices in ascending order, re-reading each word
     * live: an index set during the walk ahead of the cursor is
     * visited in this walk, one set behind it waits for the next.
     */
    template <typename F>
    void
    forEach(F &&f)
    {
        for (std::size_t w = 0; w < words_.size(); ++w) {
            std::uint64_t ahead = ~std::uint64_t{0};
            while (std::uint64_t m = words_[w] & ahead) {
                int b = std::countr_zero(m);
                ahead = ~std::uint64_t{0} << b << 1;
                f((w << 6) + static_cast<std::size_t>(b));
            }
        }
    }

  private:
    static std::uint64_t
    bit(std::size_t i)
    {
        return std::uint64_t{1} << (i & 63);
    }

    std::vector<std::uint64_t> words_;
};

/** Flat node (tile) identifier inside one mesh. */
using NodeId = std::int32_t;

/** Sentinel for "no node". */
constexpr NodeId kInvalidNode = -1;

/** Byte address in the simulated physical address space. */
using Addr = std::uint64_t;

/**
 * Integer tile coordinate on the processor die grid. x grows east,
 * y grows south (row-major, matching the paper's figures).
 */
struct Coord
{
    int x = 0;
    int y = 0;

    bool operator==(const Coord &o) const { return x == o.x && y == o.y; }
    bool operator!=(const Coord &o) const { return !(*this == o); }
    bool
    operator<(const Coord &o) const
    {
        return y != o.y ? y < o.y : x < o.x;
    }
};

/** Manhattan distance between two tiles. */
inline int
manhattan(const Coord &a, const Coord &b)
{
    int dx = a.x - b.x;
    int dy = a.y - b.y;
    return (dx < 0 ? -dx : dx) + (dy < 0 ? -dy : dy);
}

/** Chebyshev (king-move) distance between two tiles. */
inline int
chebyshev(const Coord &a, const Coord &b)
{
    int dx = a.x - b.x;
    int dy = a.y - b.y;
    dx = dx < 0 ? -dx : dx;
    dy = dy < 0 ? -dy : dy;
    return dx > dy ? dx : dy;
}

/**
 * Mesh port directions. Local is the NI injection/ejection port;
 * router port vectors may append extra injection ports after these.
 */
enum class Dir : std::uint8_t { North = 0, East, South, West, Local };

/** Number of geographic directions (excluding Local). */
constexpr int kNumGeoDirs = 4;

/** Unit step for a geographic direction. */
inline Coord
dirStep(Dir d)
{
    switch (d) {
      case Dir::North: return {0, -1};
      case Dir::East:  return {1, 0};
      case Dir::South: return {0, 1};
      case Dir::West:  return {-1, 0};
      default:         return {0, 0};
    }
}

/** Opposite geographic direction. */
inline Dir
opposite(Dir d)
{
    switch (d) {
      case Dir::North: return Dir::South;
      case Dir::East:  return Dir::West;
      case Dir::South: return Dir::North;
      case Dir::West:  return Dir::East;
      default:         return Dir::Local;
    }
}

/** Human-readable direction name. */
const char *dirName(Dir d);

/**
 * Message classes carried by the NoC. Read/write requests travel
 * PE -> CB on the request network; replies travel CB -> PE on the
 * reply network (or on dedicated VC classes in single-network schemes).
 */
enum class PacketType : std::uint8_t
{
    ReadRequest = 0,
    WriteRequest,
    ReadReply,
    WriteReply,
    Invalidate, ///< CB -> sharer PE (coherence traffic, reply-class)
    InvAck,     ///< sharer PE -> CB (coherence traffic, request-class)
};

/** True for the types that travel PE -> CB (request direction). */
inline bool
isRequest(PacketType t)
{
    return t == PacketType::ReadRequest || t == PacketType::WriteRequest ||
           t == PacketType::InvAck;
}

/** True for the types that travel CB -> PE (reply direction). */
inline bool
isReply(PacketType t)
{
    return !isRequest(t);
}

/** True for the coherence multicast classes (Invalidate / InvAck). */
inline bool
isCoherence(PacketType t)
{
    return t == PacketType::Invalidate || t == PacketType::InvAck;
}

/** Human-readable packet type name. */
const char *packetTypeName(PacketType t);

} // namespace eqx

namespace std {

template <>
struct hash<eqx::Coord>
{
    size_t
    operator()(const eqx::Coord &c) const noexcept
    {
        return (static_cast<size_t>(c.y) << 20) ^ static_cast<size_t>(c.x);
    }
};

} // namespace std

#endif // EQX_COMMON_TYPES_HH
