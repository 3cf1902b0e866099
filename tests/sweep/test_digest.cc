/**
 * @file
 * Digest-layer tests (DESIGN.md §13): canonical-serialization
 * stability under field reordering, schema-salt invalidation, and —
 * the completeness contract — sensitivity of the digest to every
 * SystemConfig / WorkloadProfile / ExperimentConfig knob that can
 * change a result. A knob this suite misses is a knob that can alias
 * two different simulations onto one cache entry.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "sim/config_serial.hh"
#include "sweep/digest.hh"
#include "sweep/shard.hh"
#include "workloads/profiles.hh"

using namespace eqx;

namespace {

std::string
systemBlob(const SystemConfig &sc)
{
    KvBlob b;
    serializeSystemConfig(sc, b);
    return b.canonical();
}

ExperimentConfig
smallConfig()
{
    ExperimentConfig ec;
    ec.schemes = {"SingleBase"};
    ec.workloads = workloadSubset(1);
    ec.instScale = 0.02;
    return ec;
}

CellDigest
digestOf(const ExperimentConfig &ec)
{
    ExperimentRunner runner(ec);
    return cellDigest(runner, ec.schemes.front(), ec.workloads.front());
}

} // namespace

TEST(KvBlob, CanonicalIsInsertionOrderFree)
{
    KvBlob a;
    a.add("alpha", 1);
    a.add("beta", 2.5);
    a.add("gamma", std::string("x"));

    KvBlob b;
    b.add("gamma", std::string("x"));
    b.add("alpha", 1);
    b.add("beta", 2.5);

    EXPECT_EQ(a.canonical(), b.canonical());
    EXPECT_EQ(a.canonical(), "alpha=1\nbeta=2.5\ngamma=x\n");
}

TEST(KvBlob, RendersValueKindsDistinctly)
{
    KvBlob b;
    b.add("b_true", true);
    b.add("b_false", false);
    b.add("d", 0.1); // %.17g keeps the full round-trip form
    b.add("u", std::uint64_t(18446744073709551615ULL));
    EXPECT_EQ(b.canonical(), "b_false=0\nb_true=1\nd=0.10000000000000001\n"
                             "u=18446744073709551615\n");
}

TEST(Digest, HexRoundTrip)
{
    CellDigest d = digestBlob("some blob\n");
    EXPECT_EQ(d.hex().size(), 32u);
    CellDigest back;
    ASSERT_TRUE(CellDigest::fromHex(d.hex(), back));
    EXPECT_EQ(back, d);

    CellDigest junk;
    EXPECT_FALSE(CellDigest::fromHex("short", junk));
    EXPECT_FALSE(CellDigest::fromHex(std::string(32, 'g'), junk));
    EXPECT_FALSE(
        CellDigest::fromHex("ABCDEF0123456789ABCDEF0123456789", junk));
}

TEST(Digest, SchemaSaltBumpInvalidatesEveryDigest)
{
    std::string blob = systemBlob(SystemConfig{});
    EXPECT_EQ(digestBlob(blob, 1), digestBlob(blob, 1));
    EXPECT_NE(digestBlob(blob, 1), digestBlob(blob, 2));
}

TEST(Digest, SchemaVersionPinnedToCurrentBlobContract)
{
    // v3: the topology knobs (sc.reply_topo.*, dp.topo.*) entered the
    // serialized blob. Bump this pin ONLY together with a
    // kSweepSchemaVersion bump — a blob-content change without a salt
    // bump would let stale cache entries alias fresh configurations.
    EXPECT_EQ(kSweepSchemaVersion, 3);
    std::string blob = systemBlob(SystemConfig{});
    EXPECT_NE(blob.find("sc.reply_topo.kind=mesh"), std::string::npos);
    EXPECT_NE(blob.find("sc.reply_topo.conc=2"), std::string::npos);
    EXPECT_NE(blob.find("sc.design.topo.kind=mesh"), std::string::npos);
    EXPECT_NE(digestBlob(blob, kSweepSchemaVersion),
              digestBlob(blob, kSweepSchemaVersion - 1));
}

TEST(Digest, DefaultSystemConfigDigestPinned)
{
    // The bytes themselves, not just their sensitivity: a refactor of
    // SystemConfig or of its serialization that keeps the blob
    // distinct per knob but changes it at the defaults would silently
    // orphan every cached cell. Re-pin only with a schema bump.
    EXPECT_EQ(digestBlob(systemBlob(SystemConfig{})).hex(),
              "9a971b8cae30ebde879e5de087e2a0d6");

    // One EquiNox cell exactly as fig09_performance builds it at its
    // defaults (seed 1, scale 0.20, first benchmark of the suite).
    ExperimentConfig ec;
    ec.seed = 1;
    ec.instScale = 0.20;
    ec.workloads = workloadSubset(1);
    ExperimentRunner runner(ec);
    EXPECT_EQ(cellDigest(runner, "EquiNox", ec.workloads.front()).hex(),
              "4ecdecb90fd99975e98661e601594d43");
}

TEST(Digest, SensitiveToEverySystemConfigKnob)
{
    using Mut = void (*)(SystemConfig &);
    // One mutator per serialized SystemConfig knob. Adding a field to
    // SystemConfig trips the size guard in config_serial.cc; the new
    // field's mutator belongs here too.
    const std::vector<std::pair<const char *, Mut>> muts = {
        {"width", [](SystemConfig &s) { s.width = 12; }},
        {"height", [](SystemConfig &s) { s.height = 12; }},
        {"numCbs", [](SystemConfig &s) { s.numCbs = 4; }},
        {"schemeKey", [](SystemConfig &s) { s.schemeKey = "EquiNox-XY"; }},
        {"scheme", [](SystemConfig &s) { s.scheme = Scheme::SingleBase; }},
        {"seed", [](SystemConfig &s) { s.seed = 99; }},
        {"pe.l1.size", [](SystemConfig &s) { s.pe.l1.sizeBytes *= 2; }},
        {"pe.l1.line", [](SystemConfig &s) { s.pe.l1.lineBytes *= 2; }},
        {"pe.l1.ways", [](SystemConfig &s) { s.pe.l1.ways += 1; }},
        {"pe.l1Mshrs", [](SystemConfig &s) { s.pe.l1Mshrs += 1; }},
        {"pe.l1Targets",
         [](SystemConfig &s) { s.pe.l1TargetsPerMshr += 1; }},
        {"pe.maxOutstanding",
         [](SystemConfig &s) { s.pe.maxOutstanding += 1; }},
        {"pe.issueWidth", [](SystemConfig &s) { s.pe.issueWidth += 1; }},
        {"cb.l2.size", [](SystemConfig &s) { s.cb.l2.sizeBytes *= 2; }},
        {"cb.l2.line", [](SystemConfig &s) { s.cb.l2.lineBytes *= 2; }},
        {"cb.l2.ways", [](SystemConfig &s) { s.cb.l2.ways += 1; }},
        {"cb.mshrs", [](SystemConfig &s) { s.cb.mshrs += 1; }},
        {"cb.targets", [](SystemConfig &s) { s.cb.targetsPerMshr += 1; }},
        {"cb.inputQueue",
         [](SystemConfig &s) { s.cb.inputQueuePackets += 1; }},
        {"cb.replyQueue",
         [](SystemConfig &s) { s.cb.replyQueuePackets += 1; }},
        {"cb.l2HitLatency",
         [](SystemConfig &s) { s.cb.l2HitLatency += 1; }},
        {"cb.requestsPerCycle",
         [](SystemConfig &s) { s.cb.requestsPerCycle += 1; }},
        {"hbm.channels", [](SystemConfig &s) { s.cb.hbm.channels += 1; }},
        {"hbm.banks",
         [](SystemConfig &s) { s.cb.hbm.banksPerChannel += 1; }},
        {"hbm.queueDepth",
         [](SystemConfig &s) { s.cb.hbm.queueDepth += 1; }},
        {"hbm.line", [](SystemConfig &s) { s.cb.hbm.lineBytes *= 2; }},
        {"hbm.tRCD", [](SystemConfig &s) { s.cb.hbm.timing.tRCD += 1; }},
        {"hbm.tRP", [](SystemConfig &s) { s.cb.hbm.timing.tRP += 1; }},
        {"hbm.tCL", [](SystemConfig &s) { s.cb.hbm.timing.tCL += 1; }},
        {"hbm.tBL", [](SystemConfig &s) { s.cb.hbm.timing.tBL += 1; }},
        {"hbm.tWR", [](SystemConfig &s) { s.cb.hbm.timing.tWR += 1; }},
        {"sizes.readReq",
         [](SystemConfig &s) { s.sizes.readRequestBits += 8; }},
        {"sizes.writeReq",
         [](SystemConfig &s) { s.sizes.writeRequestBits += 8; }},
        {"sizes.readRep",
         [](SystemConfig &s) { s.sizes.readReplyBits += 8; }},
        {"sizes.writeRep",
         [](SystemConfig &s) { s.sizes.writeReplyBits += 8; }},
        {"vcsPerPort", [](SystemConfig &s) { s.vcsPerPort += 1; }},
        {"vcDepth", [](SystemConfig &s) { s.vcDepthFlits += 1; }},
        {"flitBits", [](SystemConfig &s) { s.flitBits *= 2; }},
        {"mpInjPorts", [](SystemConfig &s) { s.multiPortInjPorts += 1; }},
        {"design.maxHops", [](SystemConfig &s) { s.design.maxHops += 1; }},
        {"design.maxPerGroup",
         [](SystemConfig &s) { s.design.maxPerGroup += 1; }},
        {"design.method",
         [](SystemConfig &s) { s.design.method = SearchMethod::Greedy; }},
        {"design.seed", [](SystemConfig &s) { s.design.seed += 1; }},
        {"mcts.iters",
         [](SystemConfig &s) { s.design.mcts.iterationsPerLevel += 1; }},
        {"mcts.ucbC", [](SystemConfig &s) { s.design.mcts.ucbC += 0.25; }},
        {"mcts.maxChildren",
         [](SystemConfig &s) { s.design.mcts.maxChildrenPerNode += 1; }},
        {"mcts.seed", [](SystemConfig &s) { s.design.mcts.seed += 1; }},
        {"w.load", [](SystemConfig &s) { s.design.weights.load += 1; }},
        {"w.hops", [](SystemConfig &s) { s.design.weights.hops += 1; }},
        {"w.crossings",
         [](SystemConfig &s) { s.design.weights.crossings += 1; }},
        {"w.length", [](SystemConfig &s) { s.design.weights.length += 1; }},
        {"w.repeaters",
         [](SystemConfig &s) { s.design.weights.repeaters += 1; }},
        {"polish", [](SystemConfig &s) { s.design.polishPasses += 1; }},
        {"fixedPlacement",
         [](SystemConfig &s) { s.design.fixedPlacement = {{1, 2}}; }},
        {"maxCycles", [](SystemConfig &s) { s.maxCycles += 1; }},
        {"warmupCycles", [](SystemConfig &s) { s.warmupCycles = 500; }},
        {"collectMetrics",
         [](SystemConfig &s) { s.collectMetrics = true; }},
        {"fault.rate",
         [](SystemConfig &s) { s.fault.ratePerKTick = 1.5; }},
        {"fault.kinds", [](SystemConfig &s) { s.fault.kinds ^= 1; }},
        {"fault.horizon", [](SystemConfig &s) { s.fault.horizonTicks += 1; }},
        {"fault.seed", [](SystemConfig &s) { s.fault.seed = 7; }},
        {"fault.killOnlyInterposer",
         [](SystemConfig &s) {
             s.fault.killOnlyInterposer = !s.fault.killOnlyInterposer;
         }},
        {"fault.stallTicks",
         [](SystemConfig &s) { s.fault.stallTicks += 1; }},
        {"fault.retxTimeout",
         [](SystemConfig &s) { s.fault.retxTimeout += 1; }},
        {"fault.retxTimeoutCap",
         [](SystemConfig &s) { s.fault.retxTimeoutCap += 1; }},
        {"fault.retxMax", [](SystemConfig &s) { s.fault.retxMax += 1; }},
        {"fault.ackLatency",
         [](SystemConfig &s) { s.fault.ackLatency += 1; }},
        {"fault.detectLatency",
         [](SystemConfig &s) { s.fault.detectLatency += 1; }},
        {"fault.forceProtocol",
         [](SystemConfig &s) { s.fault.forceProtocol = true; }},
        {"fault.events",
         [](SystemConfig &s) {
             FaultEvent e;
             e.tick = 100;
             s.fault.events.push_back(e);
         }},
        {"sizes.inv",
         [](SystemConfig &s) { s.sizes.invalidateBits += 8; }},
        {"sizes.invAck", [](SystemConfig &s) { s.sizes.invAckBits += 8; }},
        {"traffic.model",
         [](SystemConfig &s) { s.traffic.model = "storm-flash"; }},
        {"traffic.trace",
         [](SystemConfig &s) { s.traffic.trace = "replay:/tmp/t.json"; }},
        {"traffic.stormRate",
         [](SystemConfig &s) { s.traffic.stormRatePerK += 1; }},
        {"traffic.stormHorizon",
         [](SystemConfig &s) { s.traffic.stormHorizon += 1; }},
        {"traffic.stormQueueCap",
         [](SystemConfig &s) { s.traffic.stormQueueCap += 1; }},
        {"traffic.stormTrough",
         [](SystemConfig &s) { s.traffic.stormTrough += 0.05; }},
        {"traffic.stormWriteFrac",
         [](SystemConfig &s) { s.traffic.stormWriteFrac += 0.05; }},
        {"traffic.stormHotCbs",
         [](SystemConfig &s) { s.traffic.stormHotCbs += 1; }},
        {"traffic.stormHotFrac",
         [](SystemConfig &s) { s.traffic.stormHotFrac += 0.05; }},
        {"traffic.coherenceVcs",
         [](SystemConfig &s) { s.traffic.coherenceVcs += 1; }},
        {"traffic.cohRegionLines",
         [](SystemConfig &s) { s.traffic.cohRegionLines += 1; }},
        {"replyTopo.kind",
         [](SystemConfig &s) { s.replyTopo.kind = TopologyKind::Torus; }},
        {"replyTopo.conc",
         [](SystemConfig &s) { s.replyTopo.concentration += 1; }},
        {"design.topo.kind",
         [](SystemConfig &s) {
             s.design.topo.kind = TopologyKind::Torus;
         }},
        {"design.topo.conc",
         [](SystemConfig &s) { s.design.topo.concentration += 1; }},
    };

    SystemConfig base;
    std::set<std::string> hexes;
    hexes.insert(digestBlob(systemBlob(base)).hex());
    for (const auto &[name, mut] : muts) {
        SystemConfig sc;
        mut(sc);
        std::string blob = systemBlob(sc);
        EXPECT_NE(blob, systemBlob(base)) << "knob not serialized: " << name;
        EXPECT_TRUE(hexes.insert(digestBlob(blob).hex()).second)
            << "digest collision via knob: " << name;
    }
    EXPECT_EQ(hexes.size(), muts.size() + 1);
}

TEST(Digest, SensitiveToEveryWorkloadKnob)
{
    using Mut = void (*)(WorkloadProfile &);
    const std::vector<std::pair<const char *, Mut>> muts = {
        {"name", [](WorkloadProfile &w) { w.name = "other"; }},
        {"instsPerPe", [](WorkloadProfile &w) { w.instsPerPe += 1; }},
        {"memRatio", [](WorkloadProfile &w) { w.memRatio += 0.01; }},
        {"readFrac", [](WorkloadProfile &w) { w.readFrac += 0.01; }},
        {"privateLines", [](WorkloadProfile &w) { w.privateLines += 1; }},
        {"sharedLines", [](WorkloadProfile &w) { w.sharedLines += 1; }},
        {"sharedFrac", [](WorkloadProfile &w) { w.sharedFrac += 0.01; }},
        {"seqProb", [](WorkloadProfile &w) { w.seqProb += 0.01; }},
    };

    auto blobOf = [](const WorkloadProfile &w) {
        KvBlob b;
        serializeWorkloadProfile(w, b);
        return b.canonical();
    };

    WorkloadProfile base;
    base.name = "base";
    std::set<std::string> blobs;
    blobs.insert(blobOf(base));
    for (const auto &[name, mut] : muts) {
        WorkloadProfile w = base;
        mut(w);
        EXPECT_TRUE(blobs.insert(blobOf(w)).second)
            << "workload knob not serialized: " << name;
    }
}

TEST(Digest, CellDigestTracksExperimentLevelKnobs)
{
    ExperimentConfig base = smallConfig();
    CellDigest d0 = digestOf(base);

    // Identical config -> identical digest, freshly derived.
    EXPECT_EQ(digestOf(smallConfig()), d0);

    {
        ExperimentConfig ec = smallConfig();
        ec.seed = 42;
        EXPECT_NE(digestOf(ec), d0);
    }
    {
        ExperimentConfig ec = smallConfig();
        ec.instScale = 0.5; // post-scale instsPerPe is what's hashed
        EXPECT_NE(digestOf(ec), d0);
    }
    {
        ExperimentConfig ec = smallConfig();
        ec.warmupCycles = 700;
        EXPECT_NE(digestOf(ec), d0);
    }
    {
        ExperimentConfig ec = smallConfig();
        ec.collectMetrics = true;
        EXPECT_NE(digestOf(ec), d0);
    }
    {
        ExperimentConfig ec = smallConfig();
        ec.decorrelateSeeds = true; // changes the effective seed
        EXPECT_NE(digestOf(ec), d0);
    }
    {
        ExperimentConfig ec = smallConfig();
        ec.fault.ratePerKTick = 2.0;
        EXPECT_NE(digestOf(ec), d0);
    }
    {
        // Traffic knobs flow through makeSystemConfig into the digest.
        ExperimentConfig ec = smallConfig();
        ec.traffic.model = "coherence";
        EXPECT_NE(digestOf(ec), d0);
    }
    {
        ExperimentConfig ec = smallConfig();
        ec.traffic.stormRatePerK += 1;
        EXPECT_NE(digestOf(ec), d0);
    }
    {
        // tweak hooks are hashed by *effect*: the digest covers the
        // post-tweak SystemConfig, no manual tagging needed.
        ExperimentConfig ec = smallConfig();
        ec.tweak = [](SystemConfig &sc) { sc.vcDepthFlits += 3; };
        EXPECT_NE(digestOf(ec), d0);
    }
    {
        // Engine knobs that cannot change results must NOT change
        // the digest.
        ExperimentConfig ec = smallConfig();
        ec.workers = 7;
        ec.progress = true;
        ec.jobRetries = 5;
        ec.verbose = true;
        EXPECT_EQ(digestOf(ec), d0);
    }
}

TEST(Shard, ParseSpec)
{
    int i = -1, n = -1;
    EXPECT_TRUE(parseShardSpec("0/1", i, n));
    EXPECT_EQ(i, 0);
    EXPECT_EQ(n, 1);
    EXPECT_TRUE(parseShardSpec("3/8", i, n));
    EXPECT_EQ(i, 3);
    EXPECT_EQ(n, 8);

    EXPECT_FALSE(parseShardSpec("", i, n));
    EXPECT_FALSE(parseShardSpec("3", i, n));
    EXPECT_FALSE(parseShardSpec("/4", i, n));
    EXPECT_FALSE(parseShardSpec("4/", i, n));
    EXPECT_FALSE(parseShardSpec("4/4", i, n));  // index out of range
    EXPECT_FALSE(parseShardSpec("1/0", i, n));
    EXPECT_FALSE(parseShardSpec("-1/4", i, n));
    EXPECT_FALSE(parseShardSpec("a/b", i, n));
    // Values past INT_MAX are refused, not narrowed: 2^32 would wrap
    // to a shard count of 0, 2^32+1 of 2^32+2 to shard 1 of 2.
    EXPECT_FALSE(parseShardSpec("0/4294967296", i, n));
    EXPECT_FALSE(parseShardSpec("4294967297/4294967298", i, n));
    EXPECT_FALSE(parseShardSpec("0/99999999999999999999", i, n));
    EXPECT_TRUE(parseShardSpec("2147483646/2147483647", i, n));
    EXPECT_EQ(i, 2147483646);
    EXPECT_EQ(n, 2147483647);
}

TEST(Shard, DeterministicDisjointPartition)
{
    const int n = 4;
    const std::uint64_t seed = 1;
    auto suite = workloadSubset(6);
    std::vector<std::string> schemes = {"SingleBase", "SeparateBase",
                                        "EquiNox"};
    std::size_t covered = 0;
    for (const auto &wp : suite)
        for (const auto &s : schemes) {
            int shard = cellShard(seed, s, wp.name, n);
            EXPECT_GE(shard, 0);
            EXPECT_LT(shard, n);
            // Pure function: same identity, same owner, every time.
            EXPECT_EQ(cellShard(seed, s, wp.name, n), shard);
            ++covered;
        }
    EXPECT_EQ(covered, suite.size() * schemes.size());
    // A different sweep seed redraws the partition.
    bool any_moved = false;
    for (const auto &wp : suite)
        if (cellShard(1, "EquiNox", wp.name, n) !=
            cellShard(2, "EquiNox", wp.name, n))
            any_moved = true;
    EXPECT_TRUE(any_moved);
    // shardCount 1 owns everything.
    EXPECT_EQ(cellShard(seed, "EquiNox", "bfs", 1), 0);
}
