/**
 * @file
 * Registration hooks of the built-in traffic models (the
 * SchemeRegistry pattern): the registry calls these explicitly
 * instead of relying on static-initializer order.
 */

#ifndef EQX_TRAFFIC_REGISTRATION_HH
#define EQX_TRAFFIC_REGISTRATION_HH

namespace eqx {

class TrafficRegistry;

void registerSyntheticTraffic(TrafficRegistry &r); // synthetic.cc
/** storm-diurnal, storm-flash, storm-hotspot, in that order. */
void registerStormTraffic(TrafficRegistry &r);     // storm.cc
void registerCoherenceTraffic(TrafficRegistry &r); // coherence.cc

} // namespace eqx

#endif // EQX_TRAFFIC_REGISTRATION_HH
