#include "core/eval_accumulator.hh"

#include <algorithm>

#include "common/logging.hh"

namespace eqx {

namespace {
const std::vector<Coord> kEmptyGroup;
} // namespace

EvalAccumulator::EvalAccumulator(const EirEvaluator *eval)
    : eval_(eval), w_(eval->problem()->width()),
      h_(eval->problem()->height()),
      load_(static_cast<std::size_t>(w_ * h_), 0.0),
      loadCount_(static_cast<std::size_t>(w_ * h_), 0), taken_(w_, h_)
{
    eqx_assert(eval_, "accumulator needs an evaluator");
    int num_cbs = eval_->problem()->numCbs();
    groups_.reserve(static_cast<std::size_t>(num_cbs));
    // Baseline: every CB undecided, carrying its all-local (empty
    // group) contribution.
    empty_.reserve(static_cast<std::size_t>(num_cbs));
    for (int cb = 0; cb < num_cbs; ++cb) {
        empty_.push_back(eval_->contribution(cb, kEmptyGroup));
        apply(cb, empty_.back());
    }
}

void
EvalAccumulator::apply(int cb_idx, const EvalContribution &c)
{
    for (const auto &tl : c.loads) {
        std::size_t i = static_cast<std::size_t>(tl.tile.y * w_ +
                                                 tl.tile.x);
        if (loadCount_[i] == 0) {
            auto pos = std::lower_bound(active_.begin(), active_.end(),
                                        static_cast<int>(i));
            active_.insert(pos, static_cast<int>(i));
        }
        load_[i] += tl.load;
        loadCount_[i] += tl.count;
    }
    hopSum_ += c.hopSum;
    hopWeight_ += c.hopWeight;
    ledger_.add(cb_idx, c.links);
    lengthHops_ += c.lengthHops;
    numLinks_ += c.links.size();
    overReach_ += c.overReach;
}

void
EvalAccumulator::unapply(int cb_idx, const EvalContribution &c)
{
    for (const auto &tl : c.loads) {
        std::size_t i = static_cast<std::size_t>(tl.tile.y * w_ +
                                                 tl.tile.x);
        load_[i] -= tl.load;
        loadCount_[i] -= tl.count;
        eqx_assert(loadCount_[i] >= 0, "tile load count underflow");
        if (loadCount_[i] == 0) {
            // Exact arithmetic: the removals must cancel bit-exactly.
            eqx_assert(load_[i] == 0.0, "tile load drifted");
            load_[i] = 0.0;
            auto pos = std::lower_bound(active_.begin(), active_.end(),
                                        static_cast<int>(i));
            eqx_assert(pos != active_.end() &&
                           *pos == static_cast<int>(i),
                       "active tile list out of sync");
            active_.erase(pos);
        }
    }
    hopSum_ -= c.hopSum;
    hopWeight_ -= c.hopWeight;
    ledger_.remove(cb_idx);
    lengthHops_ -= c.lengthHops;
    numLinks_ -= c.links.size();
    overReach_ -= c.overReach;
}

void
EvalAccumulator::push(int cb_idx, std::vector<Coord> group)
{
    eqx_assert(cb_idx == static_cast<int>(groups_.size()),
               "push must decide the next CB in order");
    eqx_assert(cb_idx < eval_->problem()->numCbs(),
               "push past the last CB");
    unapply(cb_idx, empty_[static_cast<std::size_t>(cb_idx)]);
    apply(cb_idx, eval_->contribution(cb_idx, group));
    for (const auto &t : group)
        taken_.add(t);
    groups_.push_back(std::move(group));
}

void
EvalAccumulator::pop()
{
    eqx_assert(!groups_.empty(), "pop on an empty accumulator");
    int cb_idx = static_cast<int>(groups_.size()) - 1;
    const auto &group = groups_.back();
    unapply(cb_idx, eval_->contribution(cb_idx, group));
    apply(cb_idx, empty_[static_cast<std::size_t>(cb_idx)]);
    for (const auto &t : group)
        taken_.remove(t);
    groups_.pop_back();
}

void
EvalAccumulator::setGroup(int cb_idx, std::vector<Coord> group)
{
    eqx_assert(cb_idx >= 0 &&
                   cb_idx < static_cast<int>(groups_.size()),
               "setGroup on an undecided CB");
    auto &cur = groups_[static_cast<std::size_t>(cb_idx)];
    if (cur == group)
        return;
    unapply(cb_idx, eval_->contribution(cb_idx, cur));
    for (const auto &t : cur)
        taken_.remove(t);
    apply(cb_idx, eval_->contribution(cb_idx, group));
    for (const auto &t : group)
        taken_.add(t);
    cur = std::move(group);
}

void
EvalAccumulator::reset()
{
    while (!groups_.empty())
        pop();
}

EvalBreakdown
EvalAccumulator::evaluate() const
{
    loadScratch_.clear();
    loadScratch_.reserve(active_.size());
    for (int i : active_) {
        Coord tile{i % w_, i / w_};
        loadScratch_.emplace_back(tile, load_[static_cast<std::size_t>(
                                            i)]);
    }
    return eval_->finish(loadScratch_, hopSum_, hopWeight_,
                         ledger_.crossings(), lengthHops_, numLinks_,
                         overReach_);
}

} // namespace eqx
