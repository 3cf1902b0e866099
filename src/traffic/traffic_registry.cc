#include "traffic/traffic_registry.hh"

#include "traffic/registration.hh"

namespace eqx {

TrafficRegistry &
TrafficRegistry::instance()
{
    static TrafficRegistry reg = [] {
        TrafficRegistry r;
        registerSyntheticTraffic(r);
        registerStormTraffic(r);
        registerCoherenceTraffic(r);
        return r;
    }();
    return reg;
}

std::vector<std::string>
allTrafficModelNames()
{
    return TrafficRegistry::instance().names();
}

} // namespace eqx
