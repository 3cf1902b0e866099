/**
 * @file
 * Interposer-CMesh [Jerger et al.]: the shared mesh plus a 2x2
 * concentrated overlay on the interposer with wide flits. Distant
 * traffic rides the overlay (entering and leaving through 4-ported
 * concentration NIs); near traffic, or traffic that finds the overlay
 * entry full, takes the mesh.
 */

#include "common/logging.hh"
#include "schemes/registration.hh"
#include "schemes/scheme_registry.hh"

namespace eqx {

namespace {

/** CMesh tile -> overlay node mapping (2x2 concentration). */
struct CmeshMap
{
    int tileW;
    int cmW;

    NodeId
    overlayNode(NodeId tile) const
    {
        int x = static_cast<int>(tile) % tileW;
        int y = static_cast<int>(tile) / tileW;
        return static_cast<NodeId>((y / 2) * cmW + x / 2);
    }
};

/**
 * Interposer-CMesh injection: distant destinations ride the overlay,
 * near ones (or an overlay-full fallback) take the mesh.
 */
class OverlayInjector : public PacketInjector
{
  public:
    OverlayInjector(Network *mesh, Network *overlay, NodeId node,
                    CmeshMap map, int min_hops)
        : mesh_(mesh), overlay_(overlay), node_(node), map_(map),
          minHops_(min_hops), entry_(map.overlayNode(node))
    {}

    bool
    canInject(NodeId dst) const override
    {
        if (ridesOverlay(dst) && overlay_->canInject(entry_))
            return true;
        return mesh_->canInject(node_);
    }

    bool
    tryInject(const PacketPtr &pkt) override
    {
        if (ridesOverlay(pkt->dst)) {
            NodeId tile_dst = pkt->dst;
            pkt->finalDst = tile_dst;
            pkt->dst = map_.overlayNode(tile_dst);
            if (overlay_->inject(entry_, pkt))
                return true;
            pkt->dst = tile_dst; // fall back to the mesh
            pkt->finalDst = kInvalidNode;
        }
        return mesh_->inject(node_, pkt);
    }

    void
    watchSlots(const WakeBit &w) override
    {
        overlay_->watchCoreSlots(entry_, w);
        mesh_->watchCoreSlots(node_, w);
    }

    bool
    reaches(const Network &net) const override
    {
        return &net == mesh_ || &net == overlay_;
    }

  private:
    /** Distant enough, and leaving the entry's concentration group. */
    bool
    ridesOverlay(NodeId dst) const
    {
        const Topology &t = mesh_->topology();
        return t.distance(t.coord(node_), t.coord(dst)) >= minHops_ &&
               map_.overlayNode(dst) != entry_;
    }

    Network *mesh_;
    Network *overlay_;
    NodeId node_;
    CmeshMap map_;
    int minHops_;
    NodeId entry_; ///< overlay node of this tile
};

/** Overlay exit: hands packets to the endpoint of their finalDst tile. */
class CmeshExitSink : public PacketSink
{
  public:
    explicit CmeshExitSink(const std::vector<PacketSink *> *tile_sinks)
        : tileSinks_(tile_sinks)
    {}

    bool
    canAccept(const PacketPtr &pkt) override
    {
        return sinkOf(pkt)->canAccept(pkt);
    }

    void
    accept(const PacketPtr &pkt, Cycle core_now) override
    {
        PacketSink *s = sinkOf(pkt);
        // Restore the tile-namespace destination for the endpoint.
        pkt->dst = pkt->finalDst;
        s->accept(pkt, core_now);
    }

  private:
    PacketSink *
    sinkOf(const PacketPtr &pkt) const
    {
        eqx_assert(pkt->finalDst != kInvalidNode,
                   "overlay packet without finalDst");
        PacketSink *s =
            (*tileSinks_)[static_cast<std::size_t>(pkt->finalDst)];
        eqx_assert(s, "overlay packet for a tile without an endpoint");
        return s;
    }

    const std::vector<PacketSink *> *tileSinks_;
};

class InterposerCMeshModel final : public SchemeModel
{
  public:
    const char *name() const override { return "Interposer-CMesh"; }

    std::vector<std::string>
    aliases() const override
    {
        return {"cmesh"};
    }

    const char *
    summary() const override
    {
        return "mesh + concentrated interposer overlay [Jerger et al.]";
    }

    std::optional<Scheme>
    legacyEnum() const override
    {
        return Scheme::InterposerCMesh;
    }

    bool singleNetwork() const override { return true; }
    const char *replyNetName() const override { return "single"; }

    std::vector<NetworkSpec>
    networkSpecs(const SchemeBuild &b) const override
    {
        const SystemConfig &cfg = b.cfg;
        std::vector<NetworkSpec> out;

        NetworkSpec mesh;
        mesh.params = baseParams(cfg, "single");
        mesh.params.classVcs = true;
        mesh.params.coherenceVcs = cfg.traffic.coherenceVcs;
        mesh.params.routing = RoutingMode::XY;
        out.push_back(std::move(mesh));

        NetworkSpec overlay;
        overlay.params = baseParams(cfg, "cmesh");
        overlay.params.width = (cfg.width + 1) / 2;
        overlay.params.height = (cfg.height + 1) / 2;
        overlay.params.flitBits = kCmeshFlitBits;
        overlay.params.classVcs = true;
        overlay.params.coherenceVcs = cfg.traffic.coherenceVcs;
        overlay.params.routing = RoutingMode::XY;
        overlay.params.geoLinksInterposer = true;
        for (NodeId n = 0; n < overlay.params.numNodes(); ++n) {
            NodeMods m;
            m.kind = NiKind::MultiPort;
            m.localInjPorts = 4; // one per concentrated tile
            m.localEjPorts = 4;
            overlay.mods[n] = m;
        }
        out.push_back(std::move(overlay));
        return out;
    }

    std::unique_ptr<PacketInjector>
    makeInjector(const SchemeBuild &b,
                 const std::vector<std::unique_ptr<Network>> &nets,
                 NodeId node, bool) const override
    {
        CmeshMap cmap{b.cfg.width, (b.cfg.width + 1) / 2};
        return std::make_unique<OverlayInjector>(
            nets[0].get(), nets[1].get(), node, cmap, kCmeshMinHops);
    }

    void
    wireSinks(const SchemeBuild &b,
              const std::vector<std::unique_ptr<Network>> &nets,
              const std::vector<PacketSink *> &tile_sinks,
              std::vector<std::unique_ptr<PacketSink>> &owned_sinks)
        const override
    {
        SchemeModel::wireSinks(b, nets, tile_sinks, owned_sinks);
        auto sink = std::make_unique<CmeshExitSink>(&tile_sinks);
        for (NodeId n = 0; n < nets[1]->topology().numNodes(); ++n)
            nets[1]->setSink(n, sink.get());
        owned_sinks.push_back(std::move(sink));
    }
};

} // namespace

void
registerCmeshSchemes(SchemeRegistry &r)
{
    r.add(std::make_unique<InterposerCMeshModel>());
}

} // namespace eqx
