#include "schemes/scheme_model.hh"

#include "common/logging.hh"
#include "core/placement.hh"
#include "schemes/injectors.hh"

namespace eqx {

NocParams
SchemeModel::baseParams(const SystemConfig &cfg, const std::string &name)
{
    NocParams p;
    p.name = name;
    p.width = cfg.width;
    p.height = cfg.height;
    p.vcsPerPort = cfg.vcsPerPort;
    p.vcDepthFlits = cfg.vcDepthFlits;
    p.flitBits = cfg.flitBits;
    return p;
}

void
SchemeModel::checkConfig(const SystemConfig &cfg) const
{
    int most = cfg.vcsPerPort - 2;
    if (singleNetwork() && cfg.traffic.coherenceVcs > most)
        eqx_fatal("knob coh_vcs=", cfg.traffic.coherenceVcs,
                  " is out of range for ", name(), " (want <= ", most,
                  ", its vcsPerPort - 2)");
}

const EquiNoxDesign *
SchemeModel::placeCbs(const SystemConfig &cfg, EquiNoxDesign &,
                      std::vector<Coord> &cbs) const
{
    cbs = makePlacement(PlacementKind::Diamond, cfg.width, cfg.height,
                        cfg.numCbs);
    return nullptr;
}

void
SchemeModel::wireSinks(const SchemeBuild &b,
                       const std::vector<std::unique_ptr<Network>> &nets,
                       const std::vector<PacketSink *> &tile_sinks,
                       std::vector<std::unique_ptr<PacketSink>> &) const
{
    int num_nodes = b.cfg.width * b.cfg.height;
    std::vector<bool> is_cb(static_cast<std::size_t>(num_nodes), false);
    for (NodeId n : b.cbNodes)
        is_cb[static_cast<std::size_t>(n)] = true;

    for (NodeId n = 0; n < num_nodes; ++n) {
        PacketSink *s = tile_sinks[static_cast<std::size_t>(n)];
        if (singleNetwork()) {
            nets[0]->setSink(n, s);
        } else {
            // Requests eject at CBs; replies eject at PEs.
            if (is_cb[static_cast<std::size_t>(n)]) {
                nets[0]->setSink(n, s);
            } else {
                for (std::size_t i = 1; i < nets.size(); ++i)
                    nets[i]->setSink(n, s);
            }
        }
    }
}

void
SchemeModel::collectSchemeStats(
    const SchemeBuild &, const std::vector<std::unique_ptr<Network>> &,
    RunResult &) const
{}

NetworkSpec
SplitSchemeModel::requestSpec(const SchemeBuild &b) const
{
    NetworkSpec req;
    req.params = baseParams(b.cfg, "request");
    req.params.classes = {true, false};
    req.params.routing = RoutingMode::MinimalAdaptive;
    modRequestSpec(b, req);
    return req;
}

std::vector<NetworkSpec>
SplitSchemeModel::networkSpecs(const SchemeBuild &b) const
{
    std::vector<NetworkSpec> out;
    out.push_back(requestSpec(b));

    NetworkSpec rep;
    rep.params = baseParams(b.cfg, "reply");
    rep.params.classes = {false, true};
    rep.params.routing = replyRouting();
    rep.params.topo = replyTopo(b.cfg);
    if (rep.params.topo.kind == TopologyKind::Torus) {
        // Dateline discipline floor (DESIGN.md §17): the base VC count
        // keeps the paper's value on the mesh schemes, so lift only
        // the wrapped reply fabric to its deadlock-freedom minimum.
        int need = replyRouting() == RoutingMode::XY ? 2 : 3;
        if (rep.params.vcsPerPort < need)
            rep.params.vcsPerPort = need;
    }
    modReplySpec(b, rep);
    out.push_back(std::move(rep));
    return out;
}

std::unique_ptr<PacketInjector>
SplitSchemeModel::makeInjector(
    const SchemeBuild &, const std::vector<std::unique_ptr<Network>> &nets,
    NodeId node, bool for_reply) const
{
    return std::make_unique<DirectInjector>(
        nets[for_reply ? 1 : 0].get(), node);
}

} // namespace eqx
