/**
 * @file
 * The PacketInjector contract for every shipped injector kind, built
 * the way System builds them: canInject(dst) predicts exactly what
 * tryInject does with a packet bound for dst, while NI core queues
 * fill and (for the CMesh overlay) traffic spills onto the mesh.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/design_flow.hh"
#include "schemes/scheme_registry.hh"

namespace eqx {
namespace {

struct SchemeNets
{
    explicit SchemeNets(const std::string &key)
        : model(SchemeRegistry::instance().byName(key))
    {
        cfg.schemeKey = key;
        design = model.placeCbs(cfg, owned, cbCoords);
        for (const auto &c : cbCoords)
            cbNodes.push_back(static_cast<NodeId>(c.y * cfg.width + c.x));
        SchemeBuild b{cfg, cbCoords, cbNodes, design};
        for (auto &spec : model.networkSpecs(b))
            nets.push_back(std::make_unique<Network>(spec));
    }

    std::unique_ptr<PacketInjector>
    injector(NodeId node, bool for_reply) const
    {
        SchemeBuild b{cfg, cbCoords, cbNodes, design};
        return model.makeInjector(b, nets, node, for_reply);
    }

    SystemConfig cfg;
    const SchemeModel &model;
    EquiNoxDesign owned;
    const EquiNoxDesign *design = nullptr;
    std::vector<Coord> cbCoords;
    std::vector<NodeId> cbNodes;
    std::vector<std::unique_ptr<Network>> nets;
};

/**
 * Offer one packet to every destination per round until a whole round
 * is refused, checking each answer against canInject. Returns how
 * many packets were accepted.
 */
int
fillAndCompare(PacketInjector &inj, NodeId node, PacketType type,
               int num_nodes)
{
    int accepted = 0;
    for (int round = 0; round < 64; ++round) {
        int round_accepted = 0;
        for (NodeId dst = 0; dst < num_nodes; ++dst) {
            if (dst == node)
                continue;
            bool predicted = inj.canInject(dst);
            bool got = inj.tryInject(makePacket(type, node, dst, 128));
            EXPECT_EQ(predicted, got)
                << "node " << node << " dst " << dst << " round " << round;
            round_accepted += got ? 1 : 0;
        }
        accepted += round_accepted;
        if (round_accepted == 0)
            return accepted;
    }
    ADD_FAILURE() << "injector at node " << node << " never filled";
    return accepted;
}

TEST(Injectors, DirectCanInjectMatchesTryInject)
{
    SchemeNets s("SeparateBase");
    NodeId pe = 0;
    NodeId cb = s.cbNodes.front();
    ASSERT_NE(pe, cb);
    int n = s.cfg.width * s.cfg.height;
    EXPECT_GT(fillAndCompare(*s.injector(pe, false), pe,
                             PacketType::ReadRequest, n),
              0);
    EXPECT_GT(fillAndCompare(*s.injector(cb, true), cb,
                             PacketType::ReadReply, n),
              0);
}

TEST(Injectors, SubnetCanInjectMatchesTryInject)
{
    // DA2Mesh replies stripe over subnets by destination: one subnet's
    // full queue must refuse only the destinations it carries.
    SchemeNets s("DA2Mesh");
    ASSERT_GT(s.nets.size(), 2u);
    NodeId cb = s.cbNodes.front();
    int n = s.cfg.width * s.cfg.height;
    EXPECT_GT(fillAndCompare(*s.injector(cb, true), cb,
                             PacketType::ReadReply, n),
              0);
    for (std::size_t i = 1; i < s.nets.size(); ++i)
        EXPECT_FALSE(s.nets[i]->canInject(cb)) << "subnet " << i;
    EXPECT_GT(fillAndCompare(*s.injector(0, false), 0,
                             PacketType::ReadRequest, n),
              0);
}

TEST(Injectors, OverlayCanInjectMatchesTryInject)
{
    // Interposer-CMesh: distant destinations fill the overlay entry
    // first, then spill onto the mesh; near ones use the mesh only.
    SchemeNets s("Interposer-CMesh");
    ASSERT_EQ(s.nets.size(), 2u);
    int n = s.cfg.width * s.cfg.height;
    for (NodeId node : {NodeId{0}, s.cbNodes.front()}) {
        bool is_cb = node == s.cbNodes.front();
        EXPECT_GT(fillAndCompare(*s.injector(node, is_cb), node,
                                 is_cb ? PacketType::ReadReply
                                       : PacketType::ReadRequest,
                                 n),
                  0);
        // Both the overlay entry and the mesh NI ended up full.
        int x = static_cast<int>(node) % s.cfg.width;
        int y = static_cast<int>(node) / s.cfg.width;
        auto entry =
            static_cast<NodeId>((y / 2) * ((s.cfg.width + 1) / 2) + x / 2);
        EXPECT_FALSE(s.nets[1]->canInject(entry)) << "node " << node;
        EXPECT_FALSE(s.nets[0]->canInject(node)) << "node " << node;
    }
}

} // namespace
} // namespace eqx
