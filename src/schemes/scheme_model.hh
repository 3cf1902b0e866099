/**
 * @file
 * The pluggable scheme layer. A SchemeModel owns every per-scheme fact
 * the simulator needs: how to place the cache banks, which physical
 * networks to build, how endpoints inject into them, where packets
 * eject, and which scheme-specific results to report. System drives
 * exactly one model; new schemes are one translation unit that
 * registers a model with the SchemeRegistry — no simulator-core edits.
 */

#ifndef EQX_SCHEMES_SCHEME_MODEL_HH
#define EQX_SCHEMES_SCHEME_MODEL_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "gpu/endpoint.hh"
#include "noc/network.hh"
#include "sim/scheme.hh"

namespace eqx {

struct RunResult;

/**
 * Everything a SchemeModel may consult while building or inspecting a
 * system: the configuration, the CB placement (computed once, shared
 * by every hook), and the EquiNox design when the scheme uses one.
 */
struct SchemeBuild
{
    const SystemConfig &cfg;
    const std::vector<Coord> &cbCoords; ///< CB placement (tile coords)
    const std::vector<NodeId> &cbNodes; ///< same CBs, as tile node ids
    const EquiNoxDesign *design; ///< non-null iff usesEquiNoxDesign()
};

/**
 * One compared NoC scheme. The identity block answers static questions
 * (registry keys, display name, topology facts); the build hooks are
 * invoked by System in declaration order: placeCbs, networkSpecs,
 * makeInjector (once per endpoint), wireSinks, collectSchemeStats.
 */
class SchemeModel
{
  public:
    virtual ~SchemeModel() = default;

    // ---- identity and facts ----

    /** Canonical registry key; doubles as the display name. */
    virtual const char *name() const = 0;

    /** Extra lookup keys (matched case-insensitively, like name()). */
    virtual std::vector<std::string> aliases() const { return {}; }

    /** One-line description for registry listings. */
    virtual const char *summary() const = 0;

    /** The legacy Scheme enum value, when the scheme has one. */
    virtual std::optional<Scheme> legacyEnum() const
    {
        return std::nullopt;
    }

    /** True when one shared physical network carries both classes. */
    virtual bool singleNetwork() const = 0;

    /** True when the scheme deploys an EquiNox design-flow result. */
    virtual bool usesEquiNoxDesign() const { return false; }

    /** Name of the network that carries replies (fault targeting). */
    virtual const char *replyNetName() const = 0;

    /**
     * Reject, with eqx_fatal, a configuration this scheme's networks
     * cannot be built from. ExperimentRunner asks for every scheme
     * before any cell runs, so a bad knob exits 2 instead of failing
     * every cell. Default: a single network splits each port's VCs
     * into requests, replies and coh_vcs coherence VCs, so coh_vcs
     * must leave one VC to each class.
     */
    virtual void checkConfig(const SystemConfig &cfg) const;

    // ---- build hooks ----

    /**
     * Choose the CB placement. Returns the EquiNox design the scheme
     * deployed (storing a freshly built one in @p owned) or null for
     * schemes without one. Default: Diamond placement, null design.
     */
    virtual const EquiNoxDesign *placeCbs(const SystemConfig &cfg,
                                          EquiNoxDesign &owned,
                                          std::vector<Coord> &cbs) const;

    /** The physical networks to construct, in nets_[] order. */
    virtual std::vector<NetworkSpec>
    networkSpecs(const SchemeBuild &b) const = 0;

    /** Injector for the endpoint at @p node (CBs inject replies). */
    virtual std::unique_ptr<PacketInjector>
    makeInjector(const SchemeBuild &b,
                 const std::vector<std::unique_ptr<Network>> &nets,
                 NodeId node, bool for_reply) const = 0;

    /**
     * Attach the tile endpoints as network sinks. The default wires a
     * single network to every tile, or requests to CBs on nets[0] and
     * replies to PEs on nets[1..]. Overrides may allocate extra sinks
     * into @p owned_sinks (they must outlive the networks);
     * @p tile_sinks is the System-owned tile-id -> endpoint table.
     */
    virtual void
    wireSinks(const SchemeBuild &b,
              const std::vector<std::unique_ptr<Network>> &nets,
              const std::vector<PacketSink *> &tile_sinks,
              std::vector<std::unique_ptr<PacketSink>> &owned_sinks)
        const;

    /** Contribute scheme-specific RunResult fields. Default: none. */
    virtual void
    collectSchemeStats(const SchemeBuild &b,
                       const std::vector<std::unique_ptr<Network>> &nets,
                       RunResult &out) const;

  protected:
    /** The base NocParams every scheme starts a network spec from. */
    static NocParams baseParams(const SystemConfig &cfg,
                                const std::string &name);
};

/**
 * Common base of the separate request/reply schemes (SeparateBase,
 * DA2Mesh, MultiPort, the EquiNox family): nets[0] is the "request"
 * network under minimal-adaptive routing, nets[1..] carry replies.
 * Subclasses tune the specs via the mod hooks or replace the reply
 * side wholesale (DA2Mesh) by overriding networkSpecs.
 */
class SplitSchemeModel : public SchemeModel
{
  public:
    bool singleNetwork() const override { return false; }
    const char *replyNetName() const override { return "reply"; }

    std::vector<NetworkSpec>
    networkSpecs(const SchemeBuild &b) const override;

    std::unique_ptr<PacketInjector>
    makeInjector(const SchemeBuild &b,
                 const std::vector<std::unique_ptr<Network>> &nets,
                 NodeId node, bool for_reply) const override;

  protected:
    /** The shared request-network spec (before modRequestSpec). */
    NetworkSpec requestSpec(const SchemeBuild &b) const;

    /** Routing of the reply network (EquiNox-XY swaps this out). */
    virtual RoutingMode replyRouting() const
    {
        return RoutingMode::MinimalAdaptive;
    }

    /**
     * Topology of the reply network(s). The default honors the
     * cfg.replyTopo knob; the "-Torus"/"-CMesh" registry variants
     * force a kind so the variant name alone selects the fabric
     * (DESIGN.md §17).
     */
    virtual TopoSpec
    replyTopo(const SystemConfig &cfg) const
    {
        return cfg.replyTopo;
    }

    virtual void modRequestSpec(const SchemeBuild &, NetworkSpec &) const
    {}
    virtual void modReplySpec(const SchemeBuild &, NetworkSpec &) const
    {}
};

} // namespace eqx

#endif // EQX_SCHEMES_SCHEME_MODEL_HH
