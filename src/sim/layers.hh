/**
 * @file
 * The clocked layers of a System (DESIGN.md §8), in serial tick order:
 * the networks, the cache banks, the PEs and the storm endpoints; and
 * the StepRunner that ticks them, on one thread or on two.
 */

#ifndef EQX_SIM_LAYERS_HH
#define EQX_SIM_LAYERS_HH

#include <algorithm>
#include <cstddef>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "gpu/cache_bank.hh"
#include "gpu/pe.hh"
#include "noc/network.hh"
#include "traffic/storm.hh"

namespace eqx {

/** Something one lane of a step ticks (DESIGN.md §8). */
class Tickable
{
  public:
    virtual void tick(Cycle cycle) = 0;

  protected:
    ~Tickable() = default; ///< never deleted through this type
};

/** What System asks of each layer, in one walk of its list. */
class ClockedLayer : public Tickable
{
  public:
    virtual bool drained() const = 0;
    virtual void resetStats() {}
    /** Replay parked components' skipped ticks into counters (§10). */
    virtual void settleParkedStats() {}

  protected:
    ~ClockedLayer() = default; ///< never deleted through this type
};

/** Components of one kind, owned and visited in index order. */
template <typename T, void (T::*Tick)(Cycle), bool (T::*Drained)() const>
class LayerOf : public ClockedLayer
{
  public:
    const std::vector<std::unique_ptr<T>> &all() const { return all_; }

    T &
    add(std::unique_ptr<T> c)
    {
        all_.push_back(std::move(c));
        return *all_.back();
    }

    void tick(Cycle cycle) override { each(Tick, cycle); }

    bool
    drained() const override
    {
        return std::all_of(all_.begin(), all_.end(),
                           [](const auto &c) { return ((*c).*Drained)(); });
    }

  protected:
    /** Call @p f on every component, in index order. */
    template <typename F, typename... Args>
    void
    each(F f, Args... args)
    {
        for (auto &c : all_)
            ((*c).*f)(args...);
    }

    std::vector<std::unique_ptr<T>> all_;
};

using CacheBankLayer =
    LayerOf<CacheBank, &CacheBank::tick, &CacheBank::drained>;
using StormLayer =
    LayerOf<StormEndpoint, &StormEndpoint::tick, &StormEndpoint::done>;

/** The networks: all()[0] is the single or request network; the rest
 *  are the reply network, DA2Mesh's subnets or the CMesh overlay. */
class NetworkGroup final
    : public LayerOf<Network, &Network::coreTick, &Network::drained>
{
  public:
    /** all()[0], and the rest: the two lanes of the network phase. */
    Tickable &requestLane() { return request_; }
    Tickable &replyLane() { return replies_; }

    void resetStats() override { each(&Network::resetStats); }
    void settleParkedStats() override { each(&Network::settleParkedStats); }

  private:
    /** Ticks all()[first, last), last clamped to all().size(). */
    class Slice final : public Tickable
    {
      public:
        Slice(const NetworkGroup &group, std::size_t first, std::size_t last)
            : group_(group), first_(first), last_(last)
        {}

        void
        tick(Cycle cycle) override
        {
            const auto &nets = group_.all();
            for (std::size_t i = first_; i < std::min(last_, nets.size());
                 ++i)
                nets[i]->coreTick(cycle);
        }

      private:
        const NetworkGroup &group_;
        std::size_t first_, last_;
    };

    Slice request_{*this, 0, 1};
    Slice replies_{*this, 1, std::numeric_limits<std::size_t>::max()};
};

/** The PEs and their active set (DESIGN.md §10): a PE whose tick
 *  changed nothing parks until a reply or a freed NI slot fires its
 *  wake bit, then repeats that idle tick once per step it missed. */
class PeLayer final
    : public LayerOf<ProcessingElement, &ProcessingElement::tick,
                     &ProcessingElement::done>
{
  public:
    /** Activate every PE and hand it its wake bit; after all add()s. */
    void wire();
    void tick(Cycle cycle) override;
    void settleParkedStats() override;

  private:
    ActiveSet active_;
    /** steps_ at the tick that parked each PE; 0 while active. */
    std::vector<std::uint64_t> parkedAt_;
    /** Ticks so far, one per core cycle. */
    std::uint64_t steps_ = 0;
};

/**
 * The schedule of one core cycle (DESIGN.md §8): phases in order, each
 * with two lanes. Serially, each phase ticks the lane that comes first
 * in the serial order, then the other. Overlapped, a helper thread
 * ticks one lane of each phase while the caller ticks the other, and
 * the two threads meet at the end of every phase; a phase whose
 * helper lane is empty runs on the caller alone. Whatever a lane
 * throws is rethrown on the caller once both lanes of its phase are
 * done; of two throws in one phase, the serially first lane's wins, as
 * the serial step would have thrown it alone.
 */
class StepRunner
{
  public:
    struct Phase
    {
        std::vector<Tickable *> helper; ///< the helper's lane
        std::vector<Tickable *> caller; ///< the caller's lane
        bool helperFirst;               ///< serial order: helper lane first
    };

    StepRunner();
    /** Stops the helper thread. Its packet arena dies with it, so
     *  whoever owns the runner destroys every packet holder first. */
    ~StepRunner();
    StepRunner(const StepRunner &) = delete;
    StepRunner &operator=(const StepRunner &) = delete;

    /** Tick @p phases each step; call once, before overlap(). */
    void schedule(std::vector<Phase> phases) { phases_ = std::move(phases); }

    /** From now on tick the lanes of each phase at the same time, if
     *  this process may use a second CPU and is not a worker of a
     *  multi-worker JobPool. The caller has checked that the lanes of
     *  every phase touch disjoint state. */
    void overlap();
    bool overlaps() const { return helper_ != nullptr; }

    void tick(Cycle cycle);

  private:
    class Helper;
    std::vector<Phase> phases_;
    std::unique_ptr<Helper> helper_;
};

} // namespace eqx

#endif // EQX_SIM_LAYERS_HH
