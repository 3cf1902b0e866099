/** @file Config table parsing and typed access. */

#include <gtest/gtest.h>

#include "common/config.hh"

namespace eqx {
namespace {

TEST(Config, TypedRoundTrip)
{
    Config c;
    c.set("i", "42");
    c.set("d", "2.5");
    c.set("b", "true");
    c.set("s", "hello");
    EXPECT_EQ(c.getInt("i"), 42);
    EXPECT_DOUBLE_EQ(c.getDouble("d"), 2.5);
    EXPECT_TRUE(c.getBool("b"));
    EXPECT_EQ(c.getString("s"), "hello");
}

TEST(Config, Fallbacks)
{
    Config c;
    EXPECT_EQ(c.getInt("missing", 7), 7);
    EXPECT_DOUBLE_EQ(c.getDouble("missing", 1.5), 1.5);
    EXPECT_FALSE(c.getBool("missing", false));
    EXPECT_EQ(c.getString("missing", "x"), "x");
    EXPECT_FALSE(c.has("missing"));
}

TEST(Config, ParseArgs)
{
    Config c;
    c.parseArgs({"width=8", "rate=0.25", "name=test", "on=true"});
    EXPECT_EQ(c.getInt("width"), 8);
    EXPECT_DOUBLE_EQ(c.getDouble("rate"), 0.25);
    EXPECT_EQ(c.getString("name"), "test");
    EXPECT_TRUE(c.getBool("on"));
}

TEST(Config, BadTokenIsFatal)
{
    Config c;
    EXPECT_THROW(c.parseArgs({"no_equals"}), std::runtime_error);
    EXPECT_THROW(c.parseArgs({"=value"}), std::runtime_error);
}

TEST(Config, BadTypeIsFatal)
{
    Config c;
    c.set("s", std::string("abc"));
    EXPECT_THROW(c.getInt("s"), std::runtime_error);
    EXPECT_THROW(c.getDouble("s"), std::runtime_error);
    EXPECT_THROW(c.getBool("s"), std::runtime_error);

    // Out of long's range: strtol would clamp to LONG_MAX/LONG_MIN.
    c.parseArgs({"seed=99999999999999999999", "neg=-99999999999999999999"});
    EXPECT_THROW(c.getInt("seed"), std::runtime_error);
    EXPECT_THROW(c.getInt("neg"), std::runtime_error);
}

TEST(Config, BoolSpellings)
{
    Config c;
    c.parseArgs({"a=1", "b=yes", "d=0", "e=no"});
    EXPECT_TRUE(c.getBool("a"));
    EXPECT_TRUE(c.getBool("b"));
    EXPECT_FALSE(c.getBool("d"));
    EXPECT_FALSE(c.getBool("e"));
}

TEST(Config, OverrideKeepsLatest)
{
    Config c;
    c.parseArgs({"k=1", "k=2"});
    EXPECT_EQ(c.getInt("k"), 2);
}

} // namespace
} // namespace eqx
