/**
 * @file
 * SchemeRegistry contract: every legacy enum resolves, string keys are
 * case-insensitive over names and aliases, duplicate registrations are
 * rejected atomically, and the name / single-network facts match the
 * table the pre-registry simulator hardcoded.
 */

#include <gtest/gtest.h>

#include <memory>

#include "schemes/scheme_registry.hh"

namespace eqx {
namespace {

TEST(SchemeRegistry, EveryLegacyEnumResolves)
{
    for (Scheme s :
         {Scheme::SingleBase, Scheme::VcMono, Scheme::InterposerCMesh,
          Scheme::SeparateBase, Scheme::Da2Mesh, Scheme::MultiPort,
          Scheme::EquiNox}) {
        const SchemeModel &m = SchemeRegistry::instance().byEnum(s);
        ASSERT_TRUE(m.legacyEnum().has_value());
        EXPECT_EQ(*m.legacyEnum(), s);
        // Round trip: the canonical name resolves back to the model.
        EXPECT_EQ(SchemeRegistry::instance().find(m.name()), &m);
    }
}

TEST(SchemeRegistry, NamesAndTopologyMatchPreRefactorTable)
{
    // The exact (schemeName, single-network) table the simulator
    // hardcoded in switch statements before the registry existed.
    struct Row
    {
        Scheme s;
        const char *name;
        bool single;
    };
    for (const Row &r :
         {Row{Scheme::SingleBase, "SingleBase", true},
          Row{Scheme::VcMono, "VC-Mono", true},
          Row{Scheme::InterposerCMesh, "Interposer-CMesh", true},
          Row{Scheme::SeparateBase, "SeparateBase", false},
          Row{Scheme::Da2Mesh, "DA2Mesh", false},
          Row{Scheme::MultiPort, "MultiPort", false},
          Row{Scheme::EquiNox, "EquiNox", false}}) {
        EXPECT_STREQ(schemeName(r.s), r.name);
        EXPECT_EQ(SchemeRegistry::instance().byEnum(r.s).singleNetwork(),
                  r.single)
            << r.name;
    }
}

TEST(SchemeRegistry, LookupIsCaseInsensitiveOverNamesAndAliases)
{
    auto &reg = SchemeRegistry::instance();
    const SchemeModel *eq = reg.find("EquiNox");
    ASSERT_NE(eq, nullptr);
    EXPECT_EQ(reg.find("equinox"), eq);
    EXPECT_EQ(reg.find("EQUINOX"), eq);

    // Aliases resolve to the same model as the canonical name.
    EXPECT_EQ(reg.find("single"), reg.find("SingleBase"));
    EXPECT_EQ(reg.find("vcmono"), reg.find("VC-Mono"));
    EXPECT_EQ(reg.find("cmesh"), reg.find("Interposer-CMesh"));
    EXPECT_EQ(reg.find("separate"), reg.find("SeparateBase"));
    EXPECT_EQ(reg.find("da2"), reg.find("DA2Mesh"));
    EXPECT_EQ(reg.find("equinoxxy"), reg.find("EquiNox-XY"));
}

TEST(SchemeRegistry, UnknownKeyFindsNullAndByNameIsFatal)
{
    EXPECT_EQ(SchemeRegistry::instance().find("no-such-scheme"),
              nullptr);
    EXPECT_THROW(SchemeRegistry::instance().byName("no-such-scheme"),
                 std::runtime_error);
}

TEST(SchemeRegistry, PaperListExcludesRegistryOnlyVariants)
{
    auto paper = paperSchemeNames();
    ASSERT_EQ(paper.size(), 7u);
    EXPECT_EQ(paper.front(), "SingleBase");
    EXPECT_EQ(paper.back(), "EquiNox");

    // Variant TUs (EquiNox-XY, the topology variants): present in the
    // full listing, absent from the paper's seven, no legacy enum.
    auto all = allSchemeNames();
    EXPECT_EQ(all.size(), 10u);
    for (const char *key :
         {"EquiNox-XY", "EquiNox-Torus", "SeparateBase-CMesh"}) {
        const SchemeModel *m = SchemeRegistry::instance().find(key);
        ASSERT_NE(m, nullptr) << key;
        EXPECT_FALSE(m->legacyEnum().has_value()) << key;
        EXPECT_FALSE(m->singleNetwork()) << key;
    }
}

/** Minimal model for exercising add() collisions on a private registry. */
class StubModel : public SchemeModel
{
  public:
    StubModel(const char *name, std::vector<std::string> aliases,
              std::optional<Scheme> e)
        : name_(name), aliases_(std::move(aliases)), enum_(e)
    {}

    const char *name() const override { return name_; }
    std::vector<std::string> aliases() const override { return aliases_; }
    const char *summary() const override { return "stub"; }
    std::optional<Scheme> legacyEnum() const override { return enum_; }
    bool singleNetwork() const override { return true; }
    const char *replyNetName() const override { return "single"; }
    std::vector<NetworkSpec>
    networkSpecs(const SchemeBuild &) const override
    {
        return {};
    }
    std::unique_ptr<PacketInjector>
    makeInjector(const SchemeBuild &,
                 const std::vector<std::unique_ptr<Network>> &, NodeId,
                 bool) const override
    {
        return nullptr;
    }

  private:
    const char *name_;
    std::vector<std::string> aliases_;
    std::optional<Scheme> enum_;
};

TEST(SchemeRegistry, DuplicateRegistrationRejected)
{
    SchemeRegistry reg; // private empty registry
    EXPECT_TRUE(reg.add(std::make_unique<StubModel>(
        "Alpha", std::vector<std::string>{"a"}, std::nullopt)));

    // Same name (any case) is rejected.
    EXPECT_FALSE(reg.add(std::make_unique<StubModel>(
        "alpha", std::vector<std::string>{}, std::nullopt)));
    // A colliding alias is rejected, and rejects atomically: the
    // model's fresh name must not have been registered either.
    EXPECT_FALSE(reg.add(std::make_unique<StubModel>(
        "Beta", std::vector<std::string>{"A"}, std::nullopt)));
    EXPECT_EQ(reg.find("Beta"), nullptr);
    // A colliding legacy enum value is rejected too.
    EXPECT_TRUE(reg.add(std::make_unique<StubModel>(
        "Gamma", std::vector<std::string>{}, Scheme::SingleBase)));
    EXPECT_FALSE(reg.add(std::make_unique<StubModel>(
        "Delta", std::vector<std::string>{}, Scheme::SingleBase)));
    EXPECT_EQ(reg.find("Delta"), nullptr);

    EXPECT_EQ(reg.models().size(), 2u);
}

} // namespace
} // namespace eqx
