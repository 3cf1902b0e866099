/**
 * @file
 * Injectors shared by several scheme models. Scheme-private injectors
 * (the CMesh overlay chooser, say) live in their scheme's TU instead.
 */

#ifndef EQX_SCHEMES_INJECTORS_HH
#define EQX_SCHEMES_INJECTORS_HH

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "gpu/endpoint.hh"
#include "noc/network.hh"

namespace eqx {

/** Injects at a fixed node of a fixed network. */
class DirectInjector : public PacketInjector
{
  public:
    DirectInjector(Network *net, NodeId node) : net_(net), node_(node) {}

    bool canInject(NodeId) const override { return net_->canInject(node_); }

    bool
    tryInject(const PacketPtr &pkt) override
    {
        return net_->inject(node_, pkt);
    }

    void
    watchSlots(const WakeBit &w) override
    {
        net_->watchCoreSlots(node_, w);
    }

    bool reaches(const Network &net) const override { return &net == net_; }

  private:
    Network *net_;
    NodeId node_;
};

/** Stripes reply packets across the DA2Mesh subnets by destination. */
class SubnetInjector : public PacketInjector
{
  public:
    SubnetInjector(std::vector<Network *> subnets, NodeId node)
        : subnets_(std::move(subnets)), node_(node)
    {}

    bool
    canInject(NodeId dst) const override
    {
        return subnetOf(dst)->canInject(node_);
    }

    bool
    tryInject(const PacketPtr &pkt) override
    {
        return subnetOf(pkt->dst)->inject(node_, pkt);
    }

    void
    watchSlots(const WakeBit &w) override
    {
        for (Network *net : subnets_)
            net->watchCoreSlots(node_, w);
    }

    bool
    reaches(const Network &net) const override
    {
        return std::find(subnets_.begin(), subnets_.end(), &net) !=
               subnets_.end();
    }

  private:
    Network *
    subnetOf(NodeId dst) const
    {
        return subnets_[static_cast<std::size_t>(dst) % subnets_.size()];
    }

    std::vector<Network *> subnets_;
    NodeId node_;
};

} // namespace eqx

#endif // EQX_SCHEMES_INJECTORS_HH
