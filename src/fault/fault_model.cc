#include "fault/fault_model.hh"

#include <algorithm>
#include <cmath>

#include "common/config.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "interposer/ubump.hh"

namespace eqx {

const char *
faultKindName(FaultKind k)
{
    switch (k) {
      case FaultKind::TransientStall:
        return "stall";
      case FaultKind::TransientCorrupt:
        return "corrupt";
      case FaultKind::PermanentLinkKill:
        return "link_kill";
      case FaultKind::PermanentRouterInjKill:
        return "router_kill";
    }
    return "?";
}

bool
parseFaultKinds(const std::string &spec, std::uint32_t &kinds_out)
{
    std::uint32_t kinds = 0;
    for (const std::string &tok : splitList(spec)) {
        if (tok == "stall")
            kinds |= faultBit(FaultKind::TransientStall);
        else if (tok == "corrupt")
            kinds |= faultBit(FaultKind::TransientCorrupt);
        else if (tok == "link_kill")
            kinds |= faultBit(FaultKind::PermanentLinkKill);
        else if (tok == "router_kill")
            kinds |= faultBit(FaultKind::PermanentRouterInjKill);
        else if (tok == "transient")
            kinds |= kTransientFaultKinds;
        else if (tok == "permanent")
            kinds |= kPermanentFaultKinds;
        else if (tok == "all")
            kinds |= kAllFaultKinds;
        else
            return false;
    }
    kinds_out = kinds;
    return true;
}

std::vector<FaultEvent>
generateFaultSchedule(const FaultConfig &cfg,
                      const std::vector<FaultWireDesc> &wires,
                      std::uint64_t seed)
{
    std::vector<FaultEvent> out;
    if (cfg.ratePerKTick <= 0 || wires.empty() || cfg.kinds == 0 ||
        cfg.horizonTicks == 0)
        return out;

    // Domain-separated streams: count, times, kinds and wire picks
    // each consume their own fork, so e.g. adding a kind to the mask
    // does not shift every event time.
    Rng base(seed);
    Rng countRng = base.fork();
    Rng timeRng = base.fork();
    Rng kindRng = base.fork();
    Rng wireRng = base.fork();

    double expected = cfg.ratePerKTick *
                      static_cast<double>(cfg.horizonTicks) / 1000.0;
    auto n = static_cast<std::uint64_t>(std::floor(expected));
    if (countRng.nextDouble() < expected - std::floor(expected))
        ++n;

    std::vector<FaultKind> kinds;
    for (int k = 0; k < 4; ++k)
        if (cfg.kinds & (std::uint32_t{1} << k))
            kinds.push_back(static_cast<FaultKind>(k));

    // Physical-exposure weights: an interposer wire's fault likelihood
    // scales with its ubump count and RDL span; on-die feeds weigh 1.
    UbumpModel ub;
    std::vector<double> weight(wires.size());
    bool any_interposer = false;
    for (std::size_t i = 0; i < wires.size(); ++i) {
        weight[i] = ub.faultExposureWeight(wires[i].interposer,
                                           wires[i].spanHops);
        any_interposer |= wires[i].interposer;
    }

    auto pickWire = [&](bool interposer_only) {
        double total = 0;
        for (std::size_t i = 0; i < wires.size(); ++i)
            if (!interposer_only || wires[i].interposer)
                total += weight[i];
        double r = wireRng.nextDouble() * total;
        for (std::size_t i = 0; i < wires.size(); ++i) {
            if (interposer_only && !wires[i].interposer)
                continue;
            r -= weight[i];
            if (r <= 0)
                return static_cast<int>(i);
        }
        // Floating-point slack: fall back to the last eligible wire.
        for (std::size_t i = wires.size(); i-- > 0;)
            if (!interposer_only || wires[i].interposer)
                return static_cast<int>(i);
        return 0;
    };

    out.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) {
        FaultEvent e;
        e.tick = 1 + timeRng.next() % cfg.horizonTicks;
        e.kind = kinds[static_cast<std::size_t>(kindRng.next() %
                                                kinds.size())];
        bool permanent = faultBit(e.kind) & kPermanentFaultKinds;
        e.wire = pickWire(permanent && cfg.killOnlyInterposer &&
                          any_interposer);
        e.ni = wires[static_cast<std::size_t>(e.wire)].ni;
        e.buf = wires[static_cast<std::size_t>(e.wire)].buf;
        e.duration = cfg.stallTicks;
        e.worms = 1;
        out.push_back(std::move(e));
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const FaultEvent &a, const FaultEvent &b) {
                         return a.tick < b.tick;
                     });
    return out;
}

} // namespace eqx
