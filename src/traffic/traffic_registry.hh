/**
 * @file
 * Process-wide registry of TrafficModels: the shared name/alias
 * registry (common/named_registry.hh), populated in registration.hh
 * order. A default-constructed registry is empty, for tests.
 */

#ifndef EQX_TRAFFIC_TRAFFIC_REGISTRY_HH
#define EQX_TRAFFIC_TRAFFIC_REGISTRY_HH

#include <string>
#include <vector>

#include "common/named_registry.hh"
#include "traffic/traffic_model.hh"

namespace eqx {

class TrafficRegistry : public NamedRegistry<TrafficModel>
{
  public:
    /** The global registry, populated with every built-in model. */
    static TrafficRegistry &instance();

    /** An empty registry (tests build private ones). */
    TrafficRegistry() : NamedRegistry("traffic model", "models") {}
};

/** Canonical names of every registered traffic model. */
std::vector<std::string> allTrafficModelNames();

} // namespace eqx

#endif // EQX_TRAFFIC_TRAFFIC_REGISTRY_HH
