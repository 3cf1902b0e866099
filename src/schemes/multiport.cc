/**
 * @file
 * MultiPort [Bakhoda et al.]: split networks where the CB routers gain
 * extra ejection ports on the request side and a multi-ported
 * injection NI on the reply side, instead of replicating the NI.
 */

#include "schemes/registration.hh"
#include "schemes/scheme_registry.hh"

namespace eqx {

namespace {

class MultiPortModel final : public SplitSchemeModel
{
  public:
    const char *name() const override { return "MultiPort"; }

    const char *
    summary() const override
    {
        return "multi-ported CB routers [Bakhoda et al.]";
    }

    std::optional<Scheme>
    legacyEnum() const override
    {
        return Scheme::MultiPort;
    }

  protected:
    void
    modRequestSpec(const SchemeBuild &b,
                   NetworkSpec &req) const override
    {
        for (NodeId n : b.cbNodes) {
            NodeMods m;
            m.localEjPorts = kMultiPortEjPorts;
            req.mods[n] = m;
        }
    }

    void
    modReplySpec(const SchemeBuild &b, NetworkSpec &rep) const override
    {
        for (NodeId n : b.cbNodes) {
            NodeMods m;
            m.kind = NiKind::MultiPort;
            m.localInjPorts = b.cfg.multiPortInjPorts;
            rep.mods[n] = m;
        }
    }
};

} // namespace

void
registerMultiPortSchemes(SchemeRegistry &r)
{
    r.add(std::make_unique<MultiPortModel>());
}

} // namespace eqx
