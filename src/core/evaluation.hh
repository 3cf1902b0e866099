/**
 * @file
 * The MCTS evaluation function (paper Section 4.3): four normalized
 * metrics — max injection-point traffic load, average hop count, RDL
 * intersection count and total interposer link length — summed into a
 * single score (lower is better). The load/hop estimates follow the
 * Buffer Selection policy exactly, assuming uniform per-PE demand.
 *
 * The evaluator holds the selection-independent state and serves
 * memoized per-(CB, group) contributions; `EvalAccumulator`
 * (eval_accumulator.hh) is the one scorer, combining those
 * contributions in O(changed CBs) and ending in finish() (DESIGN.md
 * §15). Every partial quantity is an exactly-representable multiple
 * of 0.5, so the totals are exact and order-independent.
 */

#ifndef EQX_CORE_EVALUATION_HH
#define EQX_CORE_EVALUATION_HH

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/geometry.hh"
#include "common/types.hh"
#include "core/eir_problem.hh"

namespace eqx {

/** Relative weights of the four evaluation metrics. */
struct EvalWeights
{
    double load = 1.0;
    double hops = 1.0;
    double crossings = 4.0; ///< weighted up: intersections cost RDLs
    double length = 0.2;
    /**
     * Penalty on the fraction of links longer than the 1-cycle
     * interposer reach (they would need repeaters and an active
     * interposer, paper Section 3.2.3). Together with `length` this
     * refines the paper's fourth "link length" metric.
     */
    double repeaters = 3.0;
};

/** The four raw metrics plus the combined score. */
struct EvalBreakdown
{
    double maxLoad = 0.0;   ///< heaviest injection point (PE-equivalents)
    double avgHops = 0.0;   ///< policy-weighted mean hops CB->PE
    int crossings = 0;      ///< RDL wire cross-points
    double totalLength = 0; ///< sum of link Manhattan spans
    double repeaterFrac = 0; ///< links longer than the 1-cycle reach
    double score = 0.0;     ///< weighted normalized sum (lower = better)
};

/**
 * One CB's complete, selection-independent effect on the evaluation:
 * injection-point load deltas (at most the group tiles plus the CB
 * itself), hop partial sums, and the group's interposer link segments
 * with their length/reach facts. Contributions are independent per CB
 * and every double in them is an exact multiple of 0.5, so they can
 * be added to and removed from a running total without drift.
 */
struct EvalContribution
{
    struct TileLoad
    {
        Coord tile;
        double load = 0.0; ///< injected PE-equivalents at this tile
        int count = 0;     ///< number of flows contributing (>= 1)
    };

    std::vector<TileLoad> loads; ///< only tiles with count > 0
    double hopSum = 0.0;
    double hopWeight = 0.0;
    std::vector<Segment> links;  ///< CB -> EIR wire segments
    double lengthHops = 0.0;     ///< sum of link Manhattan spans
    int overReach = 0;           ///< links beyond the 1-cycle reach
};

/**
 * Scoring context for one problem: what every EvalAccumulator over it
 * shares.
 *
 * All selection-independent state — the CB occupancy bitmap, the
 * hot-zone contention factors, per-CB tile bitsets and the
 * normalizers — is built once in the constructor. Per-(CB, canonical
 * group) contributions are served from a content-addressed memo, so
 * repeated rollouts of the same group cost a hash lookup; a miss
 * counts tiles 64 at a time through per-(CB, group tile) shortcut
 * bitsets built on first use (DESIGN.md §15.5).
 *
 * Not thread-safe: the memo and the shortcut rows mutate under const
 * calls. Give each worker its own evaluator (as the design flow
 * already does).
 */
class EirEvaluator
{
  public:
    /** Longest link span that fits one interposer cycle (paper: 2). */
    static constexpr int kReachHops = 2;

    explicit EirEvaluator(const EirProblem *problem,
                          EvalWeights weights = {});

    /**
     * CB @p cb_idx's contribution when assigned @p group (group order
     * is significant: the Buffer Selection policy prefers earlier
     * listed EIRs on ties). Memoized; the returned reference is valid
     * until the next contribution() call (the memo may decline to
     * retain an entry once kMemoCap entries are cached).
     */
    const EvalContribution &
    contribution(int cb_idx, const std::vector<Coord> &group) const;

    const EvalWeights &weights() const { return weights_; }
    const EirProblem *problem() const { return prob_; }

    /** Hot-zone contention factor of a tile (1.0 for CB tiles). */
    double
    loadFactor(const Coord &c) const
    {
        return loadFactor_[static_cast<std::size_t>(c.y * w_ + c.x)];
    }

    /** True if the tile holds a CB. */
    bool
    isCb(const Coord &c) const
    {
        return cbMask_[static_cast<std::size_t>(c.y * w_ + c.x)] != 0;
    }

    /** Memo observability (for the bench and the equivalence tests). */
    std::uint64_t memoHits() const { return memoHits_; }
    std::uint64_t memoMisses() const { return memoMisses_; }
    std::size_t memoEntries() const { return memo_.size(); }

    /**
     * The final reduction: per-tile loads (in Coord order, only
     * actually-loaded tiles) through the contention factors into
     * maxLoad / mean load, plus the normalized score. The accumulator
     * and the test-side from-scratch oracle both end here, so a
     * bit-identical input yields a bit-identical EvalBreakdown.
     */
    EvalBreakdown
    finish(const std::vector<std::pair<Coord, double>> &loads,
           double hop_sum, double hop_weight, int crossings,
           double total_length, std::size_t num_links,
           int over_reach) const;

  private:
    /** Contribution cache cap; beyond it, misses compute into scratch. */
    static constexpr std::size_t kMemoCap = 1u << 18;

    /**
     * Memo keys own their group; lookups borrow the caller's through
     * a MemoProbe, so only an insert copies the group.
     */
    struct MemoKey
    {
        int cb;
        std::vector<Coord> group;
    };
    struct MemoProbe
    {
        int cb;
        const std::vector<Coord> &group;
    };
    struct MemoKeyHash
    {
        using is_transparent = void;

        static std::size_t
        hash(int cb, const std::vector<Coord> &group)
        {
            // FNV-1a over the CB index and the ordered tile sequence.
            std::uint64_t h = 1469598103934665603ULL;
            auto mix = [&h](std::uint64_t v) {
                h ^= v;
                h *= 1099511628211ULL;
            };
            mix(static_cast<std::uint64_t>(cb));
            for (const auto &c : group)
                mix((static_cast<std::uint64_t>(
                         static_cast<std::uint32_t>(c.y))
                     << 32) |
                    static_cast<std::uint32_t>(c.x));
            return static_cast<std::size_t>(h);
        }
        std::size_t
        operator()(const MemoKey &k) const
        {
            return hash(k.cb, k.group);
        }
        std::size_t
        operator()(const MemoProbe &k) const
        {
            return hash(k.cb, k.group);
        }
    };
    struct MemoKeyEq
    {
        using is_transparent = void;

        template <typename A, typename B>
        bool
        operator()(const A &a, const B &b) const
        {
            return a.cb == b.cb && a.group == b.group;
        }
    };

    /** Compute a contribution without touching the memo. */
    void computeContribution(int cb_idx, const std::vector<Coord> &group,
                             EvalContribution &out) const;

    /**
     * Offset in shortcutRows_ of the bitset of tiles p with @p g on a
     * shortest path from CB @p cb_idx to p (dist(cb, g) + dist(g, p)
     * == dist(cb, p)); built on first use.
     */
    std::size_t shortcutRow(int cb_idx, const Coord &g) const;

    const EirProblem *prob_;
    EvalWeights weights_;
    int w_;
    int h_;
    double hopRef_;   ///< baseline mean CB->PE distance (no EIRs)
    double loadRef_;  ///< PEs per CB if all traffic used one point
    std::vector<std::uint8_t> cbMask_;  ///< CB occupancy, row-major
    std::vector<double> loadFactor_;    ///< 1 + 0.3 x hot coverage
    // Tile bitsets over the row-major grid, words_ 64-bit words each.
    std::size_t words_ = 0;
    std::vector<std::uint64_t> nonCb_;  ///< tiles that send flow
    std::vector<std::uint64_t> onAxis_; ///< per CB: senders on its row/col
    std::vector<std::int64_t> localHops_; ///< per CB: sum of dist(cb, p)
    int numSenders_ = 0;                ///< non-CB tiles
    /** Per (CB, tile): shortcut row index, -1 until first use. */
    mutable std::vector<std::int32_t> shortcutIdx_;
    mutable std::vector<std::uint64_t> shortcutRows_;
    mutable std::unordered_map<MemoKey, EvalContribution, MemoKeyHash,
                               MemoKeyEq>
        memo_;
    mutable EvalContribution scratch_; ///< overflow result past the cap
    mutable std::uint64_t memoHits_ = 0;
    mutable std::uint64_t memoMisses_ = 0;
};

} // namespace eqx

#endif // EQX_CORE_EVALUATION_HH
