/**
 * @file
 * Incremental evaluation of EIR selections (DESIGN.md §15), the one
 * scorer every search uses. A search move changes exactly one CB
 * group at a time, so the accumulator keeps the running totals —
 * per-tile injection loads, hop partial sums, the pairwise crossing
 * count and the link length/reach facts — and updates them in
 * O(changed CB) per push, pop or replace, serving the per-(CB, group)
 * deltas from the evaluator's contribution memo.
 *
 * Exactness contract: every accumulated double is a multiple of 0.5
 * far below 2^52, so IEEE addition and subtraction are exact and the
 * totals after any push/pop/setGroup sequence equal a from-scratch
 * sum over the same selection bit for bit. The final reduction
 * (hot-zone factors, divisions, the weighted score) is
 * EirEvaluator::finish over tiles in Coord order, so the test suite's
 * from-scratch oracle (tests/core/eval_reference.hh) reproduces every
 * EvalBreakdown — scores included — as bit-identical doubles.
 */

#ifndef EQX_CORE_EVAL_ACCUMULATOR_HH
#define EQX_CORE_EVAL_ACCUMULATOR_HH

#include <utility>
#include <vector>

#include "common/geometry.hh"
#include "common/tile_mask.hh"
#include "core/evaluation.hh"

namespace eqx {

/**
 * Running evaluation state over a prefix of decided CBs.
 *
 * Decided CBs always form the prefix 0..depth()-1: push() adds
 * a group for the next undecided CB, pop() retracts the most recent
 * one (tree-search descend/backtrack), and setGroup() replaces a
 * decided CB's group in place (annealing / polish moves).
 *
 * Undecided CBs carry their empty-group (all-local) contribution:
 * push() swaps a CB's empty contribution for its group contribution,
 * pop() swaps it back. evaluate() at any depth therefore scores the
 * prefix padded with empty groups, and an untouched accumulator
 * reports the all-local design.
 */
class EvalAccumulator
{
  public:
    explicit EvalAccumulator(const EirEvaluator *eval);

    /** Decide the next CB (cb_idx must equal depth()). */
    void push(int cb_idx, std::vector<Coord> group);

    /** Undo the most recent push (or the most recent commit level). */
    void pop();

    /** Replace decided CB @p cb_idx's group in place. */
    void setGroup(int cb_idx, std::vector<Coord> group);

    /** Retract every decision. */
    void reset();

    /** Number of decided CBs (always a prefix of the CB order). */
    std::size_t depth() const { return groups_.size(); }

    /** Decided CB @p cb_idx's current group. */
    const std::vector<Coord> &
    group(int cb_idx) const
    {
        return groups_[static_cast<std::size_t>(cb_idx)];
    }

    /** The decided prefix as a selection (copies the groups). */
    EirSelection selection() const { return groups_; }

    /**
     * Tiles taken by the decided groups (not the CBs themselves) —
     * the incremental replacement for flattening a partial selection
     * with takenOf() on every rollout step.
     */
    const TileMask &takenMask() const { return taken_; }

    /**
     * The breakdown of the current prefix (undecided CBs all-local).
     * O(loaded tiles + links), independent of W x H.
     */
    EvalBreakdown evaluate() const;

    /** Score only. */
    double score() const { return evaluate().score; }

  private:
    void apply(int cb_idx, const EvalContribution &c);
    void unapply(int cb_idx, const EvalContribution &c);

    const EirEvaluator *eval_;
    int w_;
    int h_;

    EirSelection groups_; ///< decided prefix
    /** Each CB's all-local contribution, read on every push and pop. */
    std::vector<EvalContribution> empty_;

    // Per-tile injection loads, grid-indexed, plus the row-major
    // sorted index list of loaded tiles. Row-major order is exactly
    // Coord's (y, x) ordering, the order finish() expects.
    std::vector<double> load_;
    std::vector<int> loadCount_;
    std::vector<int> active_;

    double hopSum_ = 0.0;
    double hopWeight_ = 0.0;
    CrossingLedger ledger_;
    double lengthHops_ = 0.0;
    std::size_t numLinks_ = 0;
    int overReach_ = 0;
    TileMask taken_;

    mutable std::vector<std::pair<Coord, double>> loadScratch_;
};

} // namespace eqx

#endif // EQX_CORE_EVAL_ACCUMULATOR_HH
