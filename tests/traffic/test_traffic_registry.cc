/**
 * @file
 * TrafficRegistry contract (mirrors the SchemeRegistry tests): the
 * default instance registers the five models, string keys are
 * case-insensitive over names and aliases, unknown keys are null for
 * find() and fatal-with-key-list for byName(), and duplicate
 * registrations are rejected atomically.
 */

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>

#include "traffic/traffic_model.hh"
#include "traffic/traffic_registry.hh"

namespace eqx {
namespace {

TEST(TrafficRegistry, DefaultInstanceRegistersTheFiveModels)
{
    auto &reg = TrafficRegistry::instance();
    for (const char *name :
         {"synthetic", "storm-diurnal", "storm-flash", "storm-hotspot",
          "coherence"}) {
        const TrafficModel *m = reg.find(name);
        ASSERT_NE(m, nullptr) << name;
        EXPECT_EQ(m->name(), name);
    }
    EXPECT_EQ(allTrafficModelNames().size(), 5u);
}

TEST(TrafficRegistry, LookupIsCaseInsensitiveOverNamesAndAliases)
{
    auto &reg = TrafficRegistry::instance();
    const TrafficModel *syn = reg.find("synthetic");
    ASSERT_NE(syn, nullptr);
    EXPECT_EQ(reg.find("SYNTHETIC"), syn);
    EXPECT_EQ(reg.find("Default"), syn);

    EXPECT_EQ(reg.find("diurnal"), reg.find("storm-diurnal"));
    EXPECT_EQ(reg.find("flash"), reg.find("storm-flash"));
    EXPECT_EQ(reg.find("flash-crowd"), reg.find("storm-flash"));
    EXPECT_EQ(reg.find("hotspot"), reg.find("storm-hotspot"));
    EXPECT_EQ(reg.find("mesi"), reg.find("coherence"));
}

TEST(TrafficRegistry, UnknownKeyFindsNullAndByNameIsFatalWithKeyList)
{
    auto &reg = TrafficRegistry::instance();
    EXPECT_EQ(reg.find("no-such-model"), nullptr);
    try {
        reg.byName("no-such-model");
        FAIL() << "byName should be fatal on an unknown key";
    } catch (const std::runtime_error &e) {
        // The fatal message must name the fix: every registered key.
        std::string msg = e.what();
        EXPECT_NE(msg.find("no-such-model"), std::string::npos);
        EXPECT_NE(msg.find("synthetic"), std::string::npos);
        EXPECT_NE(msg.find("storm-flash"), std::string::npos);
        EXPECT_NE(msg.find("coherence"), std::string::npos);
    }
}

TEST(TrafficRegistry, DefaultConstructedRegistryIsEmpty)
{
    TrafficRegistry reg;
    EXPECT_TRUE(reg.names().empty());
    EXPECT_EQ(reg.find("synthetic"), nullptr);
}

class StubModel : public TrafficModel
{
  public:
    StubModel(std::string name, std::vector<std::string> aliases)
        : name_(std::move(name)), aliases_(std::move(aliases))
    {
    }
    std::string name() const override { return name_; }
    std::vector<std::string> aliases() const override { return aliases_; }
    std::unique_ptr<TrafficInstance>
    build(const TrafficBuild &) const override
    {
        return std::make_unique<TrafficInstance>();
    }

  private:
    std::string name_;
    std::vector<std::string> aliases_;
};

TEST(TrafficRegistry, DuplicateRegistrationIsRejectedAtomically)
{
    TrafficRegistry reg;
    reg.add(std::make_unique<StubModel>(
        "alpha", std::vector<std::string>{"a"}));
    // Key collision on the alias: the whole add must be rejected, so
    // neither "beta" nor its non-colliding alias appears afterwards.
    EXPECT_FALSE(reg.add(std::make_unique<StubModel>(
        "beta", std::vector<std::string>{"b", "A"})));
    EXPECT_EQ(reg.find("beta"), nullptr);
    EXPECT_EQ(reg.find("b"), nullptr);
    EXPECT_NE(reg.find("alpha"), nullptr);
}

} // namespace
} // namespace eqx
