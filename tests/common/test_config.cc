/** @file Config table parsing and typed access. */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <type_traits>

#include "common/config.hh"
#include "common/logging.hh"

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

TEST(Config, IntegersParseInBaseTen)
{
    // strtol base 0 read a leading zero as octal: benchmarks=08 was
    // "not an integer" and seed=010 silently meant 8.
    Config c;
    c.parseArgs({"benchmarks=08", "seed=010", "hex=0x10"});
    EXPECT_EQ(c.getInt("benchmarks"), 8);
    EXPECT_EQ(c.getInt("seed"), 10);
    EXPECT_THROW(c.getInt("hex"), std::runtime_error);
}

TEST(Config, FatalErrorIsARuntimeError)
{
    static_assert(std::is_base_of_v<std::runtime_error, FatalError>);
    Config c;
    c.set("s", "abc");
    EXPECT_THROW(c.getInt("s"), FatalError);
}

TEST(Config, RejectUnusedListsEveryUnreadKey)
{
    Config c;
    c.parseArgs({"workerz=1", "seed=2", "wrkrz=3", "zzz=4"});
    c.getInt("workers", 0);
    c.getInt("seed", 1);
    try {
        c.rejectUnused();
        FAIL() << "unread keys were accepted";
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        EXPECT_NE(
            msg.find("unknown knob 'workerz' (did you mean 'workers'?)"),
            std::string::npos)
            << msg;
        // Three edits from 'workers': listed, but no suggestion.
        EXPECT_NE(msg.find("unknown knob 'wrkrz'"), std::string::npos);
        EXPECT_EQ(msg.find("'wrkrz' (did"), std::string::npos) << msg;
        EXPECT_NE(msg.find("unknown knob 'zzz'"), std::string::npos);
        EXPECT_EQ(msg.find("'seed'"), std::string::npos) << msg;
    }
}

TEST(Config, HasCountsAsARead)
{
    Config c;
    c.parseArgs({"csv=out.csv"});
    EXPECT_TRUE(c.has("csv"));
    EXPECT_NO_THROW(c.rejectUnused());
}

TEST(Config, FirstReadAfterRejectUnusedPanics)
{
    Config c;
    c.parseArgs({"a=1"});
    EXPECT_EQ(c.getInt("a"), 1);
    EXPECT_FALSE(c.has("b"));
    c.rejectUnused();
    // Known keys, set or not, may be read again...
    EXPECT_EQ(c.getInt("a"), 1);
    EXPECT_FALSE(c.has("b"));
    // ...but a knob first read now escaped the check.
    EXPECT_THROW(c.getInt("late", 0), std::logic_error);
    EXPECT_THROW(c.has("later"), std::logic_error);
}

TEST(Config, SplitListDropsEmptyItems)
{
    EXPECT_EQ(splitList("a,b"), (std::vector<std::string>{"a", "b"}));
    EXPECT_EQ(splitList(",a,,b,"), (std::vector<std::string>{"a", "b"}));
    EXPECT_TRUE(splitList("").empty());
    EXPECT_TRUE(splitList(",,").empty());
}

TEST(Config, ParseCliArgsSkipsTheProgramName)
{
    char prog[] = "bench", kv[] = "seed=3";
    char *argv[] = {prog, kv};
    Config c = parseCliArgs(2, argv);
    EXPECT_EQ(c.all().size(), 1u);
    EXPECT_EQ(c.getInt("seed"), 3);
    EXPECT_TRUE(parseCliArgs(1, argv).all().empty());
}

} // namespace
} // namespace eqx
