/**
 * @file
 * DA2Mesh: the reply network split into 8 narrow 2.5x-clocked XY
 * subnets; replies stripe across them by destination.
 */

#include <algorithm>
#include <string>

#include "schemes/injectors.hh"
#include "schemes/registration.hh"
#include "schemes/scheme_registry.hh"

namespace eqx {

namespace {

class Da2MeshModel final : public SplitSchemeModel
{
  public:
    const char *name() const override { return "DA2Mesh"; }

    std::vector<std::string>
    aliases() const override
    {
        return {"da2"};
    }

    const char *
    summary() const override
    {
        return "reply net split into 8 narrow 2.5x subnets";
    }

    std::optional<Scheme>
    legacyEnum() const override
    {
        return Scheme::Da2Mesh;
    }

    const char *replyNetName() const override { return "reply-sub0"; }

    std::vector<NetworkSpec>
    networkSpecs(const SchemeBuild &b) const override
    {
        const SystemConfig &cfg = b.cfg;
        std::vector<NetworkSpec> out;
        out.push_back(requestSpec(b));

        for (int s = 0; s < kDa2Subnets; ++s) {
            NetworkSpec sub;
            sub.params =
                baseParams(cfg, "reply-sub" + std::to_string(s));
            sub.params.classes = {false, true};
            sub.params.flitBits =
                std::max(1, cfg.flitBits / kDa2Subnets);
            sub.params.routing = RoutingMode::XY;
            // Narrow wormhole buffers: packets span several
            // routers rather than fitting one VC, which is how the
            // original DA2Mesh keeps its subnets cheap.
            sub.params.vcDepthFlits = 8;
            // 2.5x clock: 3 ticks on even core cycles, 2 on odd.
            sub.params.ticksEvenCycle = 3;
            sub.params.ticksOddCycle = 2;
            out.push_back(std::move(sub));
        }
        return out;
    }

    std::unique_ptr<PacketInjector>
    makeInjector(const SchemeBuild &,
                 const std::vector<std::unique_ptr<Network>> &nets,
                 NodeId node, bool for_reply) const override
    {
        if (!for_reply)
            return std::make_unique<DirectInjector>(nets[0].get(),
                                                    node);
        std::vector<Network *> subs;
        for (std::size_t i = 1; i < nets.size(); ++i)
            subs.push_back(nets[i].get());
        return std::make_unique<SubnetInjector>(std::move(subs), node);
    }
};

} // namespace

void
registerDa2MeshSchemes(SchemeRegistry &r)
{
    r.add(std::make_unique<Da2MeshModel>());
}

} // namespace eqx
