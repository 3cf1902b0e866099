/**
 * @file
 * Pluggable traffic models (DESIGN.md §16). A TrafficModel is a
 * stateless factory registered once with the TrafficRegistry; building
 * it against one run's configuration yields a TrafficInstance, which
 * hands the System either per-PE closed-loop sources (makeSource) or
 * rate-driven open-loop storm endpoints (makeEndpoint) that replace
 * the PEs at non-CB tiles.
 */

#ifndef EQX_TRAFFIC_TRAFFIC_MODEL_HH
#define EQX_TRAFFIC_TRAFFIC_MODEL_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "gpu/endpoint.hh"
#include "noc/params.hh"
#include "traffic/source.hh"
#include "traffic/traffic_config.hh"
#include "workloads/profiles.hh"

namespace eqx {

class StormEndpoint;

/** Everything a model sees when instantiated for one run. */
struct TrafficBuild
{
    const TrafficConfig &traffic;
    const WorkloadProfile &profile;
    std::uint64_t seed = 1;
    int numPes = 0; ///< non-CB tiles (injector endpoints)
    int numCbs = 0;
};

/** One run's worth of traffic state. */
class TrafficInstance
{
  public:
    virtual ~TrafficInstance() = default;

    /** Open-loop models build storm endpoints instead of PE sources. */
    virtual bool openLoop() const { return false; }

    /** Coherence-style models arm the CB sharer directory. */
    virtual bool wantsCoherence() const { return false; }

    /** Per-PE op stream (closed-loop models; panics when open-loop). */
    virtual std::unique_ptr<TrafficSource> makeSource(int pe_index);

    /** Per-tile storm endpoint (open-loop models only). */
    virtual std::unique_ptr<StormEndpoint>
    makeEndpoint(int pe_index, NodeId node, PacketInjector *inj,
                 const AddressMap *amap, const PacketSizes *sizes);
};

/** A registered traffic model (stateless factory). */
class TrafficModel
{
  public:
    virtual ~TrafficModel() = default;

    /** Canonical name, e.g. "storm-flash". */
    virtual std::string name() const = 0;

    /** Extra lookup keys (case-insensitive, like the name). */
    virtual std::vector<std::string> aliases() const { return {}; }

    /** Instantiate for one run. */
    virtual std::unique_ptr<TrafficInstance>
    build(const TrafficBuild &b) const = 0;
};

} // namespace eqx

#endif // EQX_TRAFFIC_TRAFFIC_MODEL_HH
