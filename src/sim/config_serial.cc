#include "sim/config_serial.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "common/logging.hh"

namespace eqx {

void
KvBlob::add(const std::string &key, const std::string &v)
{
    kv_.emplace_back(key, v);
}

void
KvBlob::add(const std::string &key, const char *v)
{
    kv_.emplace_back(key, std::string(v));
}

void
KvBlob::add(const std::string &key, double v)
{
    char buf[40];
    if (std::isfinite(v)) {
        // to_chars(general, 17) emits exactly the C-locale %.17g bytes
        // but ignores LC_NUMERIC, so digests cannot drift under a
        // comma-decimal locale.
        auto r = std::to_chars(buf, buf + sizeof(buf), v,
                               std::chars_format::general, 17);
        *r.ptr = '\0';
    } else {
        std::snprintf(buf, sizeof(buf), "%s",
                      std::isnan(v) ? "nan" : (v > 0 ? "inf" : "-inf"));
    }
    kv_.emplace_back(key, buf);
}

void
KvBlob::add(const std::string &key, std::uint64_t v)
{
    kv_.emplace_back(key, std::to_string(v));
}

void
KvBlob::add(const std::string &key, std::int64_t v)
{
    kv_.emplace_back(key, std::to_string(v));
}

void
KvBlob::add(const std::string &key, int v)
{
    kv_.emplace_back(key, std::to_string(v));
}

void
KvBlob::add(const std::string &key, bool v)
{
    kv_.emplace_back(key, v ? "1" : "0");
}

std::string
KvBlob::canonical() const
{
    auto sorted = kv_;
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t i = 1; i < sorted.size(); ++i)
        eqx_assert(sorted[i - 1].first != sorted[i].first,
                   "duplicate serialization key: ", sorted[i].first);
    std::string out;
    for (const auto &[k, v] : sorted) {
        out += k;
        out += '=';
        out += v;
        out += '\n';
    }
    return out;
}

namespace {

void
addCoordList(KvBlob &out, const std::string &key,
             const std::vector<Coord> &cs)
{
    std::string s;
    for (const Coord &c : cs) {
        s += std::to_string(c.x);
        s += ',';
        s += std::to_string(c.y);
        s += ';';
    }
    out.add(key, s);
}

void
serializeDesignParams(const DesignParams &dp, const std::string &p,
                      KvBlob &out)
{
    out.add(p + "width", dp.width);
    out.add(p + "height", dp.height);
    out.add(p + "num_cbs", dp.numCbs);
    out.add(p + "max_hops", dp.maxHops);
    out.add(p + "max_per_group", dp.maxPerGroup);
    out.add(p + "topo.kind", topologyKindName(dp.topo.kind));
    out.add(p + "topo.conc", dp.topo.concentration);
    out.add(p + "method", static_cast<int>(dp.method));
    out.add(p + "seed", dp.seed);
    out.add(p + "mcts.iters", dp.mcts.iterationsPerLevel);
    out.add(p + "mcts.ucb_c", dp.mcts.ucbC);
    out.add(p + "mcts.max_children", dp.mcts.maxChildrenPerNode);
    out.add(p + "mcts.seed", dp.mcts.seed);
    out.add(p + "w.load", dp.weights.load);
    out.add(p + "w.hops", dp.weights.hops);
    out.add(p + "w.crossings", dp.weights.crossings);
    out.add(p + "w.length", dp.weights.length);
    out.add(p + "w.repeaters", dp.weights.repeaters);
    out.add(p + "polish", dp.polishPasses);
    addCoordList(out, p + "fixed_placement", dp.fixedPlacement);
}

} // namespace

void
serializeDesign(const EquiNoxDesign &d, KvBlob &out)
{
    out.add("pre.width", d.width);
    out.add("pre.height", d.height);
    addCoordList(out, "pre.cbs", d.cbs);
    std::string groups;
    for (const auto &[cb, eirs] : d.eirGroupsByNode()) {
        groups += std::to_string(cb);
        groups += ':';
        for (NodeId e : eirs) {
            groups += std::to_string(e);
            groups += ',';
        }
        groups += ';';
    }
    out.add("pre.eir_groups", groups);
}

namespace {

void
serializeFaultConfig(const FaultConfig &fc, KvBlob &out)
{
    out.add("fault.rate_per_ktick", fc.ratePerKTick);
    out.add("fault.kinds", static_cast<std::uint64_t>(fc.kinds));
    out.add("fault.horizon", static_cast<std::uint64_t>(fc.horizonTicks));
    out.add("fault.seed", fc.seed);
    out.add("fault.kill_only_interposer", fc.killOnlyInterposer);
    out.add("fault.stall_ticks", static_cast<std::uint64_t>(fc.stallTicks));
    out.add("fault.retx_timeout",
            static_cast<std::uint64_t>(fc.retxTimeout));
    out.add("fault.retx_timeout_cap",
            static_cast<std::uint64_t>(fc.retxTimeoutCap));
    out.add("fault.retx_max", fc.retxMax);
    out.add("fault.ack_latency", static_cast<std::uint64_t>(fc.ackLatency));
    out.add("fault.detect_latency",
            static_cast<std::uint64_t>(fc.detectLatency));
    out.add("fault.force_protocol", fc.forceProtocol);
    std::string evs;
    for (const FaultEvent &e : fc.events) {
        evs += std::to_string(e.tick);
        evs += ',';
        evs += std::to_string(static_cast<int>(e.kind));
        evs += ',';
        evs += std::to_string(e.wire);
        evs += ',';
        evs += std::to_string(e.ni);
        evs += ',';
        evs += std::to_string(e.buf);
        evs += ',';
        evs += std::to_string(e.duration);
        evs += ',';
        evs += std::to_string(e.worms);
        evs += ',';
        evs += e.net;
        evs += ';';
    }
    out.add("fault.events", evs);
}

/**
 * Every traffic/storm/trace knob is hashed so sweep-cache cells from
 * different traffic models can never collide. The trace strings hash
 * by their spec text: a replay cell is keyed by the trace *path*, so
 * rewriting a trace file in place invalidates nothing — use fresh
 * paths for fresh captures (DESIGN.md §16).
 */
void
serializeTrafficConfig(const TrafficConfig &tc, KvBlob &out)
{
    out.add("traffic.model",
            tc.model.empty() ? std::string("synthetic") : tc.model);
    out.add("traffic.trace", tc.trace);
    out.add("traffic.storm_rate_per_k", tc.stormRatePerK);
    out.add("traffic.storm_horizon", tc.stormHorizon);
    out.add("traffic.storm_queue_cap", tc.stormQueueCap);
    out.add("traffic.storm_trough", tc.stormTrough);
    out.add("traffic.storm_write_frac", tc.stormWriteFrac);
    out.add("traffic.storm_hot_cbs", tc.stormHotCbs);
    out.add("traffic.storm_hot_frac", tc.stormHotFrac);
    out.add("traffic.coherence_vcs", tc.coherenceVcs);
    out.add("traffic.coh_region_lines", tc.cohRegionLines);
}

} // namespace

void
serializeSystemConfig(const SystemConfig &sc, KvBlob &out)
{
// Completeness guard: adding a SystemConfig field changes its size,
// which must be acknowledged here by serializing the new field (or
// documenting why it cannot affect results) and updating the
// expected size. Layout is checked only on the toolchain CI runs.
#if defined(__x86_64__) && defined(__GLIBCXX__) && !defined(_GLIBCXX_DEBUG)
    static_assert(sizeof(SystemConfig) == 648,
                  "SystemConfig changed: update serializeSystemConfig "
                  "and this size guard (see config_serial.hh)");
#endif

    out.add("sc.width", sc.width);
    out.add("sc.height", sc.height);
    out.add("sc.num_cbs", sc.numCbs);
    // The scheme identity: schemeKey when set, else the legacy enum's
    // canonical name — both spellings of one scheme hash identically.
    out.add("sc.scheme", !sc.schemeKey.empty() ? sc.schemeKey
                                               : schemeName(sc.scheme));
    out.add("sc.seed", sc.seed);

    out.add("sc.pe.l1_size", sc.pe.l1.sizeBytes);
    out.add("sc.pe.l1_line", sc.pe.l1.lineBytes);
    out.add("sc.pe.l1_ways", sc.pe.l1.ways);
    out.add("sc.pe.l1_mshrs", sc.pe.l1Mshrs);
    out.add("sc.pe.l1_targets", sc.pe.l1TargetsPerMshr);
    out.add("sc.pe.max_outstanding", sc.pe.maxOutstanding);
    out.add("sc.pe.issue_width", sc.pe.issueWidth);

    out.add("sc.cb.l2_size", sc.cb.l2.sizeBytes);
    out.add("sc.cb.l2_line", sc.cb.l2.lineBytes);
    out.add("sc.cb.l2_ways", sc.cb.l2.ways);
    out.add("sc.cb.mshrs", sc.cb.mshrs);
    out.add("sc.cb.targets", sc.cb.targetsPerMshr);
    out.add("sc.cb.input_queue", sc.cb.inputQueuePackets);
    out.add("sc.cb.reply_queue", sc.cb.replyQueuePackets);
    out.add("sc.cb.l2_hit_latency", sc.cb.l2HitLatency);
    out.add("sc.cb.requests_per_cycle", sc.cb.requestsPerCycle);
    out.add("sc.cb.hbm.channels", sc.cb.hbm.channels);
    out.add("sc.cb.hbm.banks", sc.cb.hbm.banksPerChannel);
    out.add("sc.cb.hbm.queue_depth", sc.cb.hbm.queueDepth);
    out.add("sc.cb.hbm.line", sc.cb.hbm.lineBytes);
    out.add("sc.cb.hbm.t_rcd", sc.cb.hbm.timing.tRCD);
    out.add("sc.cb.hbm.t_rp", sc.cb.hbm.timing.tRP);
    out.add("sc.cb.hbm.t_cl", sc.cb.hbm.timing.tCL);
    out.add("sc.cb.hbm.t_bl", sc.cb.hbm.timing.tBL);
    out.add("sc.cb.hbm.t_wr", sc.cb.hbm.timing.tWR);

    out.add("sc.sizes.read_req", sc.sizes.readRequestBits);
    out.add("sc.sizes.write_req", sc.sizes.writeRequestBits);
    out.add("sc.sizes.read_rep", sc.sizes.readReplyBits);
    out.add("sc.sizes.write_rep", sc.sizes.writeReplyBits);
    out.add("sc.sizes.inv", sc.sizes.invalidateBits);
    out.add("sc.sizes.inv_ack", sc.sizes.invAckBits);

    out.add("sc.vcs_per_port", sc.vcsPerPort);
    out.add("sc.vc_depth", sc.vcDepthFlits);
    out.add("sc.flit_bits", sc.flitBits);
    out.add("sc.mp_inj_ports", sc.multiPortInjPorts);
    // Constants, still hashed: dropping their keys would change every
    // cell digest.
    out.add("sc.mp_ej_ports", kMultiPortEjPorts);
    out.add("sc.da2_subnets", kDa2Subnets);
    out.add("sc.cmesh_min_hops", kCmeshMinHops);
    out.add("sc.cmesh_flit_bits", kCmeshFlitBits);
    out.add("sc.reply_topo.kind", topologyKindName(sc.replyTopo.kind));
    out.add("sc.reply_topo.conc", sc.replyTopo.concentration);

    out.add("sc.has_pre_design", sc.preDesign != nullptr);
    if (sc.preDesign)
        serializeDesign(*sc.preDesign, out);
    else
        serializeDesignParams(sc.design, "sc.design.", out);

    out.add("sc.max_cycles", static_cast<std::uint64_t>(sc.maxCycles));
    out.add("sc.warmup_cycles",
            static_cast<std::uint64_t>(sc.warmupCycles));
    out.add("sc.collect_metrics", sc.collectMetrics);

    serializeFaultConfig(sc.fault, out);
    serializeTrafficConfig(sc.traffic, out);
}

void
serializeWorkloadProfile(const WorkloadProfile &wp, KvBlob &out)
{
    out.add("wp.name", wp.name);
    out.add("wp.insts_per_pe", wp.instsPerPe);
    out.add("wp.mem_ratio", wp.memRatio);
    out.add("wp.read_frac", wp.readFrac);
    out.add("wp.private_lines", wp.privateLines);
    out.add("wp.shared_lines", wp.sharedLines);
    out.add("wp.shared_frac", wp.sharedFrac);
    out.add("wp.seq_prob", wp.seqProb);
}

} // namespace eqx
