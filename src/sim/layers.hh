/**
 * @file
 * The clocked layers of a System (DESIGN.md §8), in tick order: the
 * networks, the cache banks, the PEs and the storm endpoints.
 */

#ifndef EQX_SIM_LAYERS_HH
#define EQX_SIM_LAYERS_HH

#include <algorithm>
#include <memory>
#include <vector>

#include "gpu/cache_bank.hh"
#include "gpu/pe.hh"
#include "noc/network.hh"
#include "traffic/storm.hh"

namespace eqx {

/** What System asks of each layer, in one walk of its list. */
class ClockedLayer
{
  public:
    virtual void tick(Cycle cycle) = 0;
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
    NetworkGroup() = default;
    /** Drops the networks first: they hold packets from the helper's
     *  arena, which dies with its thread. */
    ~NetworkGroup();
    NetworkGroup(const NetworkGroup &) = delete;
    NetworkGroup &operator=(const NetworkGroup &) = delete;

    /** From now on tick all()[0] on a helper thread while the caller
     *  ticks the rest, if this process may use a second CPU and is
     *  not a worker of a multi-worker JobPool. The caller has checked
     *  that the two groups meet only at endpoints. */
    void overlap();
    bool overlaps() const { return helper_ != nullptr; }

    void tick(Cycle cycle) override;
    void resetStats() override { each(&Network::resetStats); }
    void settleParkedStats() override { each(&Network::settleParkedStats); }

  private:
    class NetHelper;
    std::unique_ptr<NetHelper> helper_;
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

} // namespace eqx

#endif // EQX_SIM_LAYERS_HH
