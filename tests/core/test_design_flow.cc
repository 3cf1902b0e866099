/** @file End-to-end EquiNox design flow (paper Section 4 / Fig. 7). */

#include <gtest/gtest.h>

#include <set>

#include "core/design_flow.hh"
#include "core/placement.hh"
#include "golden.hh"
#include "sim/config_serial.hh"

namespace eqx {
namespace {

DesignParams
quickParams()
{
    DesignParams dp;
    dp.mcts.iterationsPerLevel = 150;
    dp.polishPasses = 2;
    return dp;
}

TEST(DesignFlow, ProducesPaperLikeDesignFor8x8)
{
    EquiNoxDesign d = buildEquiNoxDesign(quickParams());
    ASSERT_EQ(d.cbs.size(), 8u);
    EXPECT_TRUE(isDiagonalFree(d.cbs));
    EXPECT_TRUE(isPermutationPlacement(d.cbs));

    EirProblem prob(8, 8, d.cbs, 3, 4);
    EXPECT_TRUE(prob.valid(d.eirGroups));

    // Paper's headline attributes of the found design: a healthy EIR
    // population, no RDL crossings (one metal layer), and links within
    // the 1-cycle interposer reach.
    EXPECT_GE(d.numEirs(), 12);
    EXPECT_LE(d.rdl.crossings, 1);
    EXPECT_LE(d.rdl.layersNeeded, 2);
    EXPECT_FALSE(d.rdl.needsRepeaters);
    EXPECT_LE(d.rdl.maxHops, 3);
}

TEST(DesignFlow, MostEirsTwoHopsOut)
{
    EquiNoxDesign d = buildEquiNoxDesign(quickParams());
    int two = 0, total = 0;
    for (std::size_t i = 0; i < d.eirGroups.size(); ++i) {
        for (const auto &e : d.eirGroups[i]) {
            ++total;
            if (manhattan(d.cbs[i], e) == 2)
                ++two;
        }
    }
    ASSERT_GT(total, 0);
    EXPECT_GE(two * 2, total); // at least half strictly 2 hops
}

TEST(DesignFlow, DeterministicForSeed)
{
    DesignParams dp = quickParams();
    dp.seed = 9;
    EquiNoxDesign a = buildEquiNoxDesign(dp);
    EquiNoxDesign b = buildEquiNoxDesign(dp);
    EXPECT_EQ(a.cbs, b.cbs);
    EXPECT_EQ(a.eirGroups, b.eirGroups);
}

TEST(DesignFlow, FixedPlacementHonoured)
{
    DesignParams dp = quickParams();
    dp.fixedPlacement = makePlacement(PlacementKind::Diamond, 8, 8, 8);
    EquiNoxDesign d = buildEquiNoxDesign(dp);
    EXPECT_EQ(d.cbs, dp.fixedPlacement);
}

TEST(DesignFlow, NodeMappingRoundTrips)
{
    EquiNoxDesign d = buildEquiNoxDesign(quickParams());
    auto groups = d.eirGroupsByNode();
    EXPECT_EQ(groups.size(), 8u);
    std::set<NodeId> all_eirs;
    for (const auto &[cb, eirs] : groups) {
        EXPECT_GE(cb, 0);
        EXPECT_LT(cb, 64);
        for (NodeId e : eirs) {
            EXPECT_NE(e, cb);
            EXPECT_TRUE(all_eirs.insert(e).second); // no sharing
        }
    }
    EXPECT_EQ(static_cast<int>(all_eirs.size()), d.numEirs());
    EXPECT_EQ(d.cbNodes().size(), 8u);
}

TEST(DesignFlow, AsciiShowsGroups)
{
    EquiNoxDesign d = buildEquiNoxDesign(quickParams());
    std::string art = d.ascii();
    EXPECT_NE(art.find('A'), std::string::npos);
    EXPECT_NE(art.find('a'), std::string::npos);
}

TEST(DesignFlow, AlternativeSearchMethodsProduceValidDesigns)
{
    for (SearchMethod m :
         {SearchMethod::Greedy, SearchMethod::Random,
          SearchMethod::Anneal, SearchMethod::Genetic}) {
        DesignParams dp = quickParams();
        dp.method = m;
        EquiNoxDesign d = buildEquiNoxDesign(dp);
        EirProblem prob(8, 8, d.cbs, 3, 4);
        EXPECT_TRUE(prob.valid(d.eirGroups)) << searchMethodName(m);
    }
}

TEST(DesignFlow, ScalesTo12x12)
{
    DesignParams dp = quickParams();
    dp.width = dp.height = 12;
    dp.mcts.iterationsPerLevel = 60;
    dp.polishPasses = 1;
    EquiNoxDesign d = buildEquiNoxDesign(dp);
    EXPECT_EQ(d.cbs.size(), 8u); // still 8 HBM stacks
    EirProblem prob(12, 12, d.cbs, 3, 4);
    EXPECT_TRUE(prob.valid(d.eirGroups));
    EXPECT_GT(d.numEirs(), 8);
}

TEST(DesignFlow, KnightPathWhenMoreCbsThanN)
{
    DesignParams dp = quickParams();
    dp.numCbs = 10; // > N = 8 -> knight-move placement
    dp.mcts.iterationsPerLevel = 40;
    dp.polishPasses = 1;
    EquiNoxDesign d = buildEquiNoxDesign(dp);
    EXPECT_EQ(d.cbs.size(), 10u);
    EirProblem prob(8, 8, d.cbs, 3, 4);
    EXPECT_TRUE(prob.valid(d.eirGroups));
}

/**
 * FNV-1a over a design's serializeDesign blob (placement and EIR
 * groups, the bytes a cell digest hashes) plus its search cost,
 * placement penalty and score.
 */
std::uint64_t
designDigest(const EquiNoxDesign &d)
{
    KvBlob b;
    serializeDesign(d, b);
    b.add("evaluations", d.evaluations);
    b.add("penalty", d.placementPenalty);
    b.add("score", d.eval.score);
    return golden::fnv1a(b.canonical());
}

TEST(DesignFlow, DefaultDesignGoldens)
{
    // Default DesignParams (MCTS, 600 iterations per level, 4 polish
    // passes), the design every EquiNox cell at these sizes gets.
    // Pins the N-Queen sampling and trim (12x12, 16x16), the MCTS
    // and the polish byte for byte.
    struct Pin
    {
        int side;
        std::uint64_t seed;
        std::uint64_t digest;
        std::uint64_t evaluations;
    };
    static const Pin kPins[] = {
        {8, 1, 0xbb7219bf5434ac76ULL, 6729},
        {8, 2, 0x78757ffa34f0fdULL, 7412},
        {8, 3, 0xe2012a3e69b382bbULL, 7581},
        {8, 4, 0x78757ffa34f0fdULL, 7412},
        {12, 1, 0xdbe17a7031308d1ULL, 17844},
        {12, 2, 0xa65b7561069c7b21ULL, 21077},
        {12, 3, 0x8784f52250064563ULL, 27501},
        {12, 4, 0x53d4766976c9163dULL, 18374},
        {16, 1, 0x6842953173a14fbfULL, 26353},
        {16, 2, 0x37cb070f162550ceULL, 23452},
        {16, 3, 0xff2ebf6ee1250462ULL, 26713},
        {16, 4, 0x40da056cdae5ef6cULL, 26541},
    };
    for (const Pin &p : kPins) {
        DesignParams dp;
        dp.width = dp.height = p.side;
        dp.seed = p.seed;
        EquiNoxDesign d = buildEquiNoxDesign(dp);
        std::uint64_t digest = designDigest(d);
        EXPECT_EQ(digest, p.digest) << p.side << "x" << p.side
                                    << " seed " << p.seed;
        EXPECT_EQ(d.evaluations, p.evaluations)
            << p.side << "x" << p.side << " seed " << p.seed;
    }
}

} // namespace
} // namespace eqx
