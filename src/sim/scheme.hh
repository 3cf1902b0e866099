/**
 * @file
 * The seven compared NoC schemes (paper Section 5) and the full-system
 * configuration that instantiates them.
 */

#ifndef EQX_SIM_SCHEME_HH
#define EQX_SIM_SCHEME_HH

#include <cstdint>
#include <string>

#include "common/cancel.hh"
#include "core/design_flow.hh"
#include "fault/fault_model.hh"
#include "gpu/cache_bank.hh"
#include "gpu/pe.hh"
#include "noc/params.hh"
#include "traffic/traffic_config.hh"

namespace eqx {

/** The compared schemes, in the paper's order. */
enum class Scheme : std::uint8_t
{
    SingleBase = 0,  ///< one shared physical network, Diamond placement
    VcMono,          ///< + VC monopolization [Jang et al.]
    InterposerCMesh, ///< + concentrated interposer overlay [Jerger et al.]
    SeparateBase,    ///< split request/reply physical networks
    Da2Mesh,         ///< reply net split into 8 narrow 2.5x subnets [5]
    MultiPort,       ///< multi-ported CB routers [Bakhoda et al.]
    EquiNox,         ///< the paper's proposal
};

// Legacy scheme query, answered by the SchemeRegistry
// (src/schemes): every enum value maps to a registered SchemeModel.
const char *schemeName(Scheme s);

// Fixed per-scheme parameters of the paper's configuration.
constexpr int kMultiPortEjPorts = 2; ///< MultiPort CB ejection ports
constexpr int kDa2Subnets = 8;       ///< DA2Mesh reply subnets, 1/8 flit
constexpr int kCmeshMinHops = 3;     ///< mesh hops that take the overlay
constexpr int kCmeshFlitBits = 256;  ///< CMesh overlay flit width

/** Full-system configuration. */
struct SystemConfig
{
    int width = 8;
    int height = 8;
    int numCbs = 8;
    Scheme scheme = Scheme::SeparateBase;

    /**
     * Registry key of the scheme to build (SchemeRegistry name or
     * alias, matched case-insensitively). When non-empty it overrides
     * `scheme`, which lets registry-only variants like "EquiNox-XY" —
     * schemes with no legacy enum value — run through the stock
     * System/ExperimentRunner stack.
     */
    std::string schemeKey;

    std::uint64_t seed = 1;

    PeParams pe;
    CbParams cb;
    PacketSizes sizes;

    // Base NoC parameters applied to every network the scheme builds.
    int vcsPerPort = 2;
    int vcDepthFlits = 5;
    int flitBits = 128;

    // MultiPort doubles the CB router's injection and ejection ports
    // (Bakhoda et al. add ports rather than replicate the NI
    // fourfold); the abl_eir_count bench sweeps higher injection port
    // counts.
    int multiPortInjPorts = 2;

    /**
     * Reply-fabric topology (DESIGN.md §17): the geometry of every
     * reply network the scheme builds. Mesh (the default) reproduces
     * the paper byte-identically; torus and cmesh are the wrap/
     * concentrated variants the "-Torus"/"-CMesh" registry schemes
     * force. Request fabrics stay mesh — the paper's request-side
     * results are the control group every comparison shares.
     */
    TopoSpec replyTopo;

    /**
     * EquiNox design to deploy. When null and scheme == EquiNox, the
     * system runs the full design flow itself (seeded by `seed`).
     * Benches reuse one design across all benchmarks via this pointer.
     */
    const EquiNoxDesign *preDesign = nullptr;
    DesignParams design; ///< used when preDesign is null

    Cycle maxCycles = 2'000'000; ///< runaway guard

    /**
     * Measurement warmup: when > 0, every NoC statistic (latency,
     * activity, per-router/per-NI counters) is reset at this core
     * cycle, so reported numbers exclude the cold-start transient.
     * Packets in flight at the boundary are measured from their
     * original timestamps; 0 keeps the legacy measure-from-cycle-0
     * behaviour. Simulation behaviour is unaffected either way.
     */
    Cycle warmupCycles = 0;

    /**
     * Collect the full per-router / per-port / per-NI observability
     * snapshot into RunResult::metrics (DESIGN.md §9). Off by default:
     * the snapshot is a few thousand keys per run.
     */
    bool collectMetrics = false;

    /**
     * Optional cooperative cancellation (JobPool timeout watchdog).
     * Polled once per core cycle in System::step; a cancelled run
     * winds down at the next cycle boundary with completed == false.
     */
    const CancelToken *cancel = nullptr;

    /**
     * Fault injection and recovery (DESIGN.md §11). Disabled by
     * default; when enabled, every network the scheme builds is armed
     * with this config under a per-network stream seed derived from
     * (fault.seed ? fault.seed : seed, "fault", network name), so
     * sweeps stay decorrelated and reproducible regardless of worker
     * count.
     */
    FaultConfig fault;

    /**
     * Traffic model selection and knobs (DESIGN.md §16). The default
     * is the legacy closed-loop synthetic path, byte-identical to
     * pre-traffic builds; storm models replace the PEs with open-loop
     * rate-driven endpoints, the coherence model arms the CB sharer
     * directories, and trace= captures or replays the op streams.
     */
    TrafficConfig traffic;
};

} // namespace eqx

#endif // EQX_SIM_SCHEME_HH
