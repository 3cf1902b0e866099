#include "sim/system.hh"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <set>
#include <thread>
#include <utility>

#include "common/logging.hh"
#include "runner/job_pool.hh"
#include "runner/stream_seed.hh"
#include "schemes/scheme_registry.hh"
#include "traffic/traffic_registry.hh"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace eqx {

namespace {

const SchemeModel &
resolveModel(const SystemConfig &cfg)
{
    if (!cfg.schemeKey.empty())
        return SchemeRegistry::instance().byName(cfg.schemeKey);
    return SchemeRegistry::instance().byEnum(cfg.scheme);
}

/** May this system tick on a second thread? Not when sibling cells
 *  already run on the other pool workers, nor on one allowed CPU. */
bool
mayUseSecondThread()
{
    if (JobPool::currentWorkers() > 1)
        return false;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return false;
    return CPU_COUNT(&set) >= 2;
}

/** The lanes of the endpoint phase, as System::injectors_ indexes
 *  them. */
constexpr std::size_t kHelperLane = 0;
constexpr std::size_t kCallerLane = 1;

/** Tick every member of one lane, in order. */
void
tickLane(const std::vector<Tickable *> &lane, Cycle cycle)
{
    for (Tickable *t : lane)
        t->tick(cycle);
}

void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    _mm_pause();
#endif
}

} // namespace

/**
 * The thread that ticks the helper's lane of each phase while the
 * calling thread ticks the other (DESIGN.md §8). start() offers it one
 * phase of one core cycle; join() returns once that lane is done, with
 * what it threw. Each side publishes with a release and waits with an
 * acquire, so each sees everything the other wrote before. A waiting
 * side spins, as its partner is microseconds away while the System
 * steps, and blocks in atomic::wait once kSpin has passed: a System
 * that stopped stepping burns no CPU. The thread allocates packets
 * from its own arena, which dies with it, so it must outlive every
 * packet holder: System declares its runner before its layers.
 */
class StepRunner::Helper
{
  public:
    explicit Helper(const std::vector<Phase> &phases)
        : phases_(phases), thread_([this] { loop(); })
    {}

    ~Helper()
    {
        publish(offered_, kStop, helperSleeping_);
        thread_.join();
    }

    Helper(const Helper &) = delete;
    Helper &operator=(const Helper &) = delete;

    void
    start(std::size_t phase, Cycle cycle)
    {
        phase_ = phase;
        cycle_ = cycle;
        publish(offered_, ++lastOffer_, helperSleeping_);
    }

    std::exception_ptr
    join()
    {
        await(done_, lastOffer_ - 1, callerSleeping_);
        return std::exchange(error_, nullptr);
    }

  private:
    static constexpr std::uint64_t kStop = ~std::uint64_t{0};
    static constexpr auto kSpin = std::chrono::microseconds(200);

    using Flag = std::atomic<std::uint64_t>;

    /** Set @p flag and wake its waiter if it went to sleep. seq_cst
     *  here and in await(): either the waiter sees the value before
     *  it sleeps or this side sees it sleeping. */
    static void
    publish(Flag &flag, std::uint64_t value, std::atomic<bool> &sleeping)
    {
        flag.store(value, std::memory_order_seq_cst);
        if (sleeping.load(std::memory_order_seq_cst))
            flag.notify_one();
    }

    /** Wait until @p flag moves off @p old; returns the new value. */
    static std::uint64_t
    await(Flag &flag, std::uint64_t old, std::atomic<bool> &sleeping)
    {
        auto deadline = std::chrono::steady_clock::now() + kSpin;
        for (unsigned spins = 1;; ++spins) {
            std::uint64_t v = flag.load(std::memory_order_acquire);
            if (v != old)
                return v;
            cpuRelax();
            if (spins % 64 == 0 &&
                std::chrono::steady_clock::now() > deadline)
                break;
        }
        sleeping.store(true, std::memory_order_seq_cst);
        std::uint64_t v;
        while ((v = flag.load(std::memory_order_seq_cst)) == old)
            flag.wait(old, std::memory_order_seq_cst);
        sleeping.store(false, std::memory_order_relaxed);
        return v;
    }

    void
    loop()
    {
        for (std::uint64_t seen = 0;;) {
            seen = await(offered_, seen, helperSleeping_);
            if (seen == kStop)
                return;
            try {
                tickLane(phases_[phase_].helper, cycle_);
            } catch (...) {
                error_ = std::current_exception();
            }
            publish(done_, seen, callerSleeping_);
        }
    }

    const std::vector<Phase> &phases_;
    std::size_t phase_ = 0;       ///< the handed-off phase
    Cycle cycle_ = 0;             ///< and its core cycle
    std::uint64_t lastOffer_ = 0; ///< offers so far (caller only)
    std::exception_ptr error_;    ///< thrown by the helper's last lane
    Flag offered_{0};             ///< last offer, or kStop
    Flag done_{0};                ///< last offer ticked
    std::atomic<bool> helperSleeping_{false};
    std::atomic<bool> callerSleeping_{false};
    std::thread thread_; ///< last: starts once the rest exists
};

StepRunner::StepRunner() = default;
StepRunner::~StepRunner() = default;

void
StepRunner::overlap()
{
    if (mayUseSecondThread())
        helper_ = std::make_unique<Helper>(phases_);
}

void
StepRunner::tick(Cycle cycle)
{
    for (std::size_t i = 0; i < phases_.size(); ++i) {
        const Phase &p = phases_[i];
        if (!helper_ || p.helper.empty()) {
            tickLane(p.helperFirst ? p.helper : p.caller, cycle);
            tickLane(p.helperFirst ? p.caller : p.helper, cycle);
            continue;
        }
        // Each lane keeps its own tick order and touches only its own
        // state, so the outcome is the serial one.
        helper_->start(i, cycle);
        try {
            tickLane(p.caller, cycle);
        } catch (...) {
            // Unwind only once the helper is done with its lane.
            std::exception_ptr helper_error = helper_->join();
            if (helper_error && p.helperFirst)
                std::rethrow_exception(helper_error);
            throw;
        }
        if (std::exception_ptr e = helper_->join())
            std::rethrow_exception(e);
    }
}

void
PeLayer::wire()
{
    active_ = ActiveSet(all_.size());
    parkedAt_.assign(all_.size(), 0);
    for (std::size_t i = 0; i < all_.size(); ++i) {
        active_.set(i);
        all_[i]->wire(active_.wakeBit(i));
    }
}

void
PeLayer::tick(Cycle cycle)
{
    // Every wake (a reply, a freed NI slot) lands during the network
    // phase, which ends before this walk starts, so no bit changes
    // under it.
    ++steps_;
    active_.forEach([&](std::size_t i) {
        ProcessingElement &pe = *all_[i];
        if (parkedAt_[i] != 0) {
            pe.replayIdle(steps_ - 1 - parkedAt_[i]);
            parkedAt_[i] = 0;
        }
        pe.tick(cycle);
        if (pe.idleLastTick()) {
            active_.clear(i);
            parkedAt_[i] = steps_;
        }
    });
}

void
PeLayer::settleParkedStats()
{
    for (std::size_t i = 0; i < all_.size(); ++i) {
        if (parkedAt_[i] == 0)
            continue;
        all_[i]->replayIdle(steps_ - parkedAt_[i]);
        parkedAt_[i] = steps_;
    }
}

System::System(const SystemConfig &config, const WorkloadProfile &profile)
    : cfg_(config), model_(&resolveModel(cfg_))
{
    eqx_assert(cfg_.numCbs >= 1, "need at least one cache bank");
    buildPlacement();
    buildNetworks();
    buildEndpoints(profile);
    // Storm endpoints inject only into the request network and keep
    // little state that replies touch, so they tick on the request
    // network's thread. CBs, the longer lane, and PEs, whose state the
    // reply group's PE::accept has just written, tick on the caller.
    // buildEndpoints files each injector under the same lane.
    std::vector<Tickable *> helper_endpoints;
    if (!storms_.all().empty())
        helper_endpoints.push_back(&storms_);
    runner_.schedule({
        {{&nets_.requestLane()}, {&nets_.replyLane()}, true},
        {std::move(helper_endpoints), {&cbs_, &pes_}, false},
    });
    if (networkGroupsDisjoint() && endpointLanesDisjoint())
        runner_.overlap();
}

System::~System() = default;

void
System::buildPlacement()
{
    designUsed_ = model_->placeCbs(cfg_, ownedDesign_, cbCoords_);
    // The CB-node table every later build step (and the model) shares.
    cbNodes_.clear();
    for (const auto &c : cbCoords_)
        cbNodes_.push_back(static_cast<NodeId>(c.y * cfg_.width + c.x));
}

void
System::buildNetworks()
{
    SchemeBuild build{cfg_, cbCoords_, cbNodes_, designUsed_};
    for (auto &spec : model_->networkSpecs(build))
        nets_.add(std::make_unique<Network>(spec));

    if (cfg_.fault.enabled()) {
        std::uint64_t base = cfg_.fault.seed ? cfg_.fault.seed
                                             : cfg_.seed;
        for (auto &net : nets_.all())
            net->armFaults(cfg_.fault, net->params().name,
                           deriveStreamSeed(base, "fault",
                                            net->params().name));
    }
}

void
System::buildEndpoints(const WorkloadProfile &profile)
{
    int num_nodes = cfg_.width * cfg_.height;
    std::vector<bool> is_cb(static_cast<std::size_t>(num_nodes), false);
    amap_.lineBytes = 64;
    amap_.cbNodes = cbNodes_;
    for (NodeId n : cbNodes_)
        is_cb[static_cast<std::size_t>(n)] = true;

    // Tile-indexed sink table (used by overlay exit sinks too).
    tileSinks_.assign(static_cast<std::size_t>(num_nodes), nullptr);

    SchemeBuild build{cfg_, cbCoords_, cbNodes_, designUsed_};
    auto make_injector = [&](NodeId node, bool for_reply,
                             std::size_t lane) -> PacketInjector * {
        injectors_[lane].push_back(
            model_->makeInjector(build, nets_.all(), node, for_reply));
        return injectors_[lane].back().get();
    };

    // Traffic model resolution (DESIGN.md §16): empty means the legacy
    // closed-loop synthetic path, byte-identical to the pre-registry
    // wiring.
    int num_cbs = static_cast<int>(cbNodes_.size());
    const TrafficModel &tm = TrafficRegistry::instance().byName(
        cfg_.traffic.model.empty() ? "synthetic" : cfg_.traffic.model);
    TrafficBuild tb{cfg_.traffic, profile, cfg_.seed,
                    num_nodes - num_cbs, num_cbs};
    traffic_ = tm.build(tb);

    // Trace capture/replay composes with closed-loop models only: the
    // wire format records PE op streams, which storms do not have.
    TraceSpec trace;
    if (!cfg_.traffic.trace.empty()) {
        trace = parseTraceSpec(cfg_.traffic.trace);
        if (traffic_->openLoop())
            eqx_fatal("trace= requires a closed-loop traffic model, "
                      "not '", tm.name(), "'");
    }
    if (!trace.replayPath.empty()) {
        replay_ = std::make_unique<TraceData>();
        std::string err;
        if (!readTraceFile(trace.replayPath, *replay_, err))
            eqx_fatal("trace replay: ", err);
        if (static_cast<int>(replay_->pes.size()) != tb.numPes)
            eqx_fatal("trace replay: '", trace.replayPath, "' holds ",
                      replay_->pes.size(), " PE streams but this system "
                      "has ", tb.numPes, " PEs");
    }
    if (!trace.capturePath.empty()) {
        capturePath_ = trace.capturePath;
        capture_ = std::make_unique<TraceCapture>(
            tb.numPes, replay_ ? replay_->workload : profile.name);
    }

    // Endpoints.
    int pe_index = 0;
    bool open_loop = traffic_->openLoop();
    for (NodeId n = 0; n < num_nodes; ++n) {
        if (is_cb[static_cast<std::size_t>(n)]) {
            auto *inj = make_injector(n, /*for_reply=*/true, kCallerLane);
            CacheBank &cb = cbs_.add(std::make_unique<CacheBank>(
                n, cfg_.cb, inj, &cfg_.sizes));
            if (traffic_->wantsCoherence())
                cb.enableCoherence({cfg_.traffic.cohRegionLines});
            tileSinks_[static_cast<std::size_t>(n)] = &cb;
        } else if (open_loop) {
            auto *inj = make_injector(n, /*for_reply=*/false, kHelperLane);
            tileSinks_[static_cast<std::size_t>(n)] =
                &storms_.add(traffic_->makeEndpoint(pe_index, n, inj,
                                                    &amap_, &cfg_.sizes));
            ++pe_index;
        } else {
            auto *inj = make_injector(n, /*for_reply=*/false, kCallerLane);
            std::unique_ptr<TrafficSource> src =
                replay_
                    ? std::make_unique<ReplaySource>(
                          &replay_->pes[static_cast<std::size_t>(pe_index)])
                    : traffic_->makeSource(pe_index);
            if (capture_)
                src = std::make_unique<CaptureSource>(
                    std::move(src), capture_.get(), pe_index);
            tileSinks_[static_cast<std::size_t>(n)] =
                &pes_.add(std::make_unique<ProcessingElement>(
                    n, cfg_.pe, std::move(src), &amap_, inj, &cfg_.sizes));
            ++pe_index;
        }
    }

    model_->wireSinks(build, nets_.all(), tileSinks_, overlaySinks_);
    pes_.wire();
}

void
System::step()
{
    // Cooperative cancellation: one relaxed load per core cycle is
    // noise next to ticking every router, and lets the JobPool
    // watchdog stop a runaway job at a cycle boundary.
    if (cfg_.cancel && cfg_.cancel->cancelled())
        cancelled_ = true;
    ++cycle_;
    runner_.tick(cycle_);
    // Warmup/measurement boundary: discard the cold-start transient.
    if (cfg_.warmupCycles > 0 && cycle_ == cfg_.warmupCycles)
        resetStats();
}

bool
System::networkGroupsDisjoint() const
{
    const auto &nets = nets_.all();
    if (nets.size() < 2)
        return false;
    // Every PE, CB and storm endpoint, by tile.
    std::set<const PacketSink *> plain(tileSinks_.begin(), tileSinks_.end());
    std::set<const PacketSink *> request;
    for (std::size_t i = 0; i < nets.size(); ++i) {
        const Network &net = *nets[i];
        for (NodeId n = 0; n < net.topology().numNodes(); ++n) {
            const PacketSink *s = net.sink(n);
            if (!s)
                continue;
            if (!plain.count(s))
                return false; // may forward into any network
            if (i == 0)
                request.insert(s);
            else if (request.count(s))
                return false; // one endpoint, two threads
        }
    }
    return true;
}

bool
System::endpointLanesDisjoint() const
{
    for (const auto &net : nets_.all()) {
        bool reached[2] = {false, false};
        for (std::size_t lane = 0; lane < injectors_.size(); ++lane)
            for (const auto &inj : injectors_[lane])
                reached[lane] = reached[lane] || inj->reaches(*net);
        if (reached[kHelperLane] && reached[kCallerLane])
            return false; // one network, two threads
    }
    return true;
}

void
System::resetStats()
{
    for (ClockedLayer *layer : layers_)
        layer->resetStats();
}

bool
System::finished() const
{
    // Back to front, as a PE or storm endpoint still running answers
    // before a network scans its routers.
    return std::all_of(layers_.rbegin(), layers_.rend(),
                       [](const ClockedLayer *l) { return l->drained(); });
}

double
System::areaMm2() const
{
    double area = 0;
    for (const auto &net : nets_.all())
        area += power_.networkAreaMm2(*net);
    return area;
}

void
System::collect(RunResult &out) const
{
    out.cycles = cycle_;
    out.execNs = power_.cyclesToNs(cycle_);
    out.totalInsts = 0;
    for (const auto &pe : pes_.all())
        out.totalInsts += pe->instsIssued();
    out.ipc = cycle_ ? static_cast<double>(out.totalInsts) / cycle_ : 0;

    out.energy = EnergyBreakdown{};
    for (const auto &net : nets_.all()) {
        EnergyBreakdown e = power_.networkEnergyPj(*net, cycle_);
        out.energy.buffer += e.buffer;
        out.energy.crossbar += e.crossbar;
        out.energy.allocators += e.allocators;
        out.energy.links += e.links;
        out.energy.interposerLinks += e.interposerLinks;
        out.energy.leakage += e.leakage;
    }
    out.energyPj = out.energy.total();
    out.edp = PowerModel::edp(out.energyPj, out.execNs);
    out.areaMm2 = areaMm2();

    // Latency, converted to ns per network clock and packet-weighted.
    double freq = power_.params().freqGhz;
    double rq = 0, rn = 0, pq = 0, pn = 0;
    std::uint64_t rpk = 0, ppk = 0;
    for (const auto &net : nets_.all()) {
        double tick_ns = 1.0 / (freq * net->params().clockRatio());
        const LatencyStats &ls = net->latency();
        rq += ls.queueLat[0].sum() * tick_ns;
        rn += ls.netLat[0].sum() * tick_ns;
        pq += ls.queueLat[1].sum() * tick_ns;
        pn += ls.netLat[1].sum() * tick_ns;
        rpk += ls.packets[0];
        ppk += ls.packets[1];
        out.requestBits += net->activity().requestBits;
        out.replyBits += net->activity().replyBits;
    }
    out.reqPackets = rpk;
    out.repPackets = ppk;
    out.reqQueueNs = rpk ? rq / rpk : 0;
    out.reqNetNs = rpk ? rn / rpk : 0;
    out.repQueueNs = ppk ? pq / ppk : 0;
    out.repNetNs = ppk ? pn / ppk : 0;

    // Total-latency percentiles: merge the per-network tick histograms
    // per class. Every network carrying a given class runs at the same
    // clock ratio in all seven schemes (DA2Mesh subnets are uniformly
    // 2.5x), so one tick->ns factor per class is exact.
    for (int c = 0; c < 2; ++c) {
        Histogram merged(LatencyStats::kHistBucketTicks,
                         LatencyStats::kHistBuckets);
        double tick_ns = 0;
        for (const auto &net : nets_.all()) {
            if (net->latency().packets[c] == 0)
                continue;
            merged.merge(net->latency().totalHist[c]);
            if (tick_ns == 0)
                tick_ns = 1.0 / (freq * net->params().clockRatio());
        }
        double p50 = merged.percentile(0.50) * tick_ns;
        double p95 = merged.percentile(0.95) * tick_ns;
        double p99 = merged.percentile(0.99) * tick_ns;
        if (c == 0) {
            out.reqP50Ns = p50;
            out.reqP95Ns = p95;
            out.reqP99Ns = p99;
        } else {
            out.repP50Ns = p50;
            out.repP95Ns = p95;
            out.repP99Ns = p99;
        }
    }

    // Scheme-specific result fields (EquiNox's max-EIR load, say).
    SchemeBuild build{cfg_, cbCoords_, cbNodes_, designUsed_};
    model_->collectSchemeStats(build, nets_.all(), out);

    for (const auto &net : nets_.all()) {
        if (!net->faultArmed())
            continue;
        out.faultArmed = true;
        const FaultStats &fs = net->faultPlane()->stats();
        out.faultSeqPackets += fs.seqPackets;
        out.faultDelivered += fs.delivered;
        out.faultDuplicates += fs.duplicates;
        out.faultRetx += fs.retransmissions;
        out.faultLost += fs.lost;
        out.faultWormsDropped += fs.wormsDropped;
        out.faultFlitsDropped += fs.flitsDropped;
        out.faultCreditsReconciled += fs.creditsReconciled;
        out.faultMaskedPorts += net->maskedInjBuffers();
    }
    out.degraded = out.faultMaskedPorts > 0;

    if (!storms_.all().empty()) {
        out.stormArmed = true;
        for (const auto &s : storms_.all()) {
            out.stormOffered += s->offered();
            out.stormInjected += s->injected();
            out.stormDelivered += s->delivered();
            out.stormDropped += s->dropped();
        }
    }
    if (traffic_ && traffic_->wantsCoherence()) {
        out.cohArmed = true;
        for (const auto &cb : cbs_.all()) {
            out.cohInvalidations += cb->invalidationsSent();
            out.cohInvAcks += cb->invAcksReceived();
        }
    }

    if (cfg_.collectMetrics) {
        out.metrics.reset();
        for (const auto &net : nets_.all())
            net->exportStats(out.metrics, net->params().name);
    }
}

void
System::settleParkedStats()
{
    for (ClockedLayer *layer : layers_)
        layer->settleParkedStats();
}

RunResult
System::run()
{
    while (!finished() && !cancelled_ && cycle_ < cfg_.maxCycles)
        step();
    settleParkedStats();
    RunResult out;
    out.completed = finished();
    collect(out);
    // Trace capture finalization: the file is a pure function of the
    // op streams, so it is written whole at run end.
    if (capture_) {
        std::string err;
        if (!capture_->writeFile(capturePath_, err))
            eqx_fatal("trace capture: ", err);
    }
    if (cancelled_)
        eqx_warn("system run cancelled at cycle ", cycle_, " (",
                 model_->name(), ")");
    else if (!out.completed)
        eqx_warn("system run hit maxCycles=", cfg_.maxCycles,
                 " before draining (", model_->name(), ")");
    return out;
}

} // namespace eqx
