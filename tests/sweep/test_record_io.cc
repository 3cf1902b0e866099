/**
 * @file
 * Record IO tests: the flat-JSON wire/record parser, and the exact
 * CellResult round trip the cache's byte-identity guarantee rests on
 * (parse(render(cell)) re-renders to the original bytes).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "sim/experiment.hh"
#include "sweep/digest.hh"
#include "sweep/record_io.hh"
#include "workloads/profiles.hh"

using namespace eqx;

namespace {

/** A realistic simulated cell: metrics snapshot on, fault model
 *  armed, so the record carries every optional field group. */
CellResult
simulatedCell()
{
    ExperimentConfig ec;
    ec.schemes = {"SingleBase"};
    ec.workloads = workloadSubset(1);
    ec.instScale = 0.02;
    ec.collectMetrics = true;
    ec.fault.ratePerKTick = 4.0;
    ec.fault.seed = 3;
    ExperimentRunner runner(ec);

    CellResult cell;
    cell.scheme = "SingleBase";
    cell.benchmark = ec.workloads[0].name;
    cell.result = runner.runOne(cell.scheme, ec.workloads[0]);
    cell.attempts = 2;
    cell.wallMs = 12.5;
    cell.index = 4;
    return cell;
}

} // namespace

TEST(ParseFlatJson, ValueKinds)
{
    JsonFields f;
    ASSERT_TRUE(parseFlatJson(
        R"({"s":"hi","n":-1.5e3,"u":18446744073709551615,"t":true,)"
        R"("f":false,"z":null})",
        f));
    ASSERT_EQ(f.size(), 6u);
    EXPECT_EQ(f["s"].kind, JsonValue::Kind::String);
    EXPECT_EQ(f["s"].text, "hi");
    EXPECT_EQ(f["n"].asDouble(), -1500.0);
    EXPECT_EQ(f["u"].asU64(), 18446744073709551615ULL);
    EXPECT_TRUE(f["t"].asBool());
    EXPECT_FALSE(f["f"].asBool());
    EXPECT_EQ(f["z"].kind, JsonValue::Kind::Null);
    EXPECT_TRUE(std::isnan(f["z"].asDouble()));
}

TEST(ParseFlatJson, StringEscapes)
{
    JsonFields f;
    ASSERT_TRUE(parseFlatJson(
        R"({"e":"a\"b\\c\/d\n\t\r\b\f","u":"Aé€"})", f));
    EXPECT_EQ(f["e"].text, "a\"b\\c/d\n\t\r\b\f");
    EXPECT_EQ(f["u"].text, "A\xc3\xa9\xe2\x82\xac"); // A é €
}

TEST(ParseFlatJson, Rejections)
{
    JsonFields f;
    EXPECT_FALSE(parseFlatJson("", f));
    EXPECT_FALSE(parseFlatJson("not json", f));
    EXPECT_FALSE(parseFlatJson(R"({"a":1)", f));        // unterminated
    EXPECT_FALSE(parseFlatJson(R"({"a":1} x)", f));     // trailing junk
    EXPECT_FALSE(parseFlatJson(R"({"a":{"b":1}})", f)); // nested object
    EXPECT_FALSE(parseFlatJson(R"({"a":[1,2]})", f));   // array
    EXPECT_FALSE(parseFlatJson(R"({"a":01})", f));      // bad number
    EXPECT_FALSE(parseFlatJson(R"({"a":tru})", f));     // bad literal
    EXPECT_FALSE(parseFlatJson(R"({"a":"\ud800"})", f)); // lone surrogate
    EXPECT_FALSE(parseFlatJson(R"({a:1})", f));          // unquoted key
}

TEST(ParseFlatJson, EmptyObjectAndDuplicateKeys)
{
    JsonFields f;
    EXPECT_TRUE(parseFlatJson("{}", f));
    EXPECT_TRUE(f.empty());
    ASSERT_TRUE(parseFlatJson(R"({"k":1,"k":2})", f));
    EXPECT_EQ(f["k"].asI64(), 2); // last occurrence wins
}

TEST(RecordIO, ExactRoundTrip)
{
    CellRecord rec;
    rec.cell = simulatedCell();
    rec.digest = digestBlob("round-trip-probe\n");

    std::string line = cellRecordLine(rec);

    CellRecord back;
    ASSERT_TRUE(parseCellRecord(line, back));
    EXPECT_EQ(back.digest, rec.digest);
    EXPECT_EQ(back.schema, kSweepSchemaVersion);
    EXPECT_EQ(back.cell.index, rec.cell.index);
    EXPECT_FALSE(back.cell.failed);

    // The guarantee itself: re-rendering the parsed record reproduces
    // the original bytes, and the embedded public JSONL record is
    // byte-identical to what a live run would stream.
    EXPECT_EQ(cellRecordLine(back), line);
    EXPECT_EQ(cellJsonRecord(back.cell), cellJsonRecord(rec.cell));

    // Metrics survived (collectMetrics was on).
    EXPECT_TRUE(rec.cell.result.metrics.all().size() > 0);
    EXPECT_EQ(back.cell.result.metrics.all().size(),
              rec.cell.result.metrics.all().size());
}

TEST(RecordIO, StormAndCoherenceGroupsRoundTrip)
{
    // The optional storm / coherence field groups, the failure fields
    // and the private energy parts restore losslessly — a cache hit
    // must reproduce a storm run's counters exactly.
    CellRecord rec;
    rec.cell = simulatedCell();
    rec.digest = digestBlob("storm-probe\n");
    rec.cell.failed = true;
    rec.cell.error = "timed out: \"quoted\" back\\slash\nsecond line";
    RunResult &r = rec.cell.result;
    r.energy = {1.5, 2.25, 3.125, 4.0625, 5.5, 6.75};
    r.stormArmed = true;
    r.stormOffered = 1000;
    r.stormInjected = 900;
    r.stormDelivered = 890;
    r.stormDropped = 100;
    r.cohArmed = true;
    r.cohInvalidations = 42;
    r.cohInvAcks = 42;

    std::string line = cellRecordLine(rec);
    CellRecord back;
    ASSERT_TRUE(parseCellRecord(line, back));
    const RunResult &b = back.cell.result;
    EXPECT_TRUE(b.stormArmed);
    EXPECT_EQ(b.stormOffered, 1000u);
    EXPECT_EQ(b.stormInjected, 900u);
    EXPECT_EQ(b.stormDelivered, 890u);
    EXPECT_EQ(b.stormDropped, 100u);
    EXPECT_TRUE(b.cohArmed);
    EXPECT_EQ(b.cohInvalidations, 42u);
    EXPECT_EQ(b.cohInvAcks, 42u);
    EXPECT_TRUE(back.cell.failed);
    EXPECT_EQ(back.cell.error, rec.cell.error);
    EXPECT_EQ(b.energy.buffer, 1.5);
    EXPECT_EQ(b.energy.crossbar, 2.25);
    EXPECT_EQ(b.energy.allocators, 3.125);
    EXPECT_EQ(b.energy.links, 4.0625);
    EXPECT_EQ(b.energy.interposerLinks, 5.5);
    EXPECT_EQ(b.energy.leakage, 6.75);
    EXPECT_EQ(cellRecordLine(back), line);
}

TEST(RecordIO, RejectsBadHeaders)
{
    CellRecord rec;
    rec.cell = simulatedCell();
    rec.digest = digestBlob("probe\n");
    std::string line = cellRecordLine(rec);

    CellRecord out;
    EXPECT_FALSE(parseCellRecord("garbage", out));
    EXPECT_FALSE(parseCellRecord("{}", out));

    // Wrong schema version: the record is from another era.
    EXPECT_FALSE(parseCellRecord(line, out, kSweepSchemaVersion + 1));

    // Mangle the digest hex.
    std::string bad = line;
    std::size_t pos = bad.find("\"_digest\":\"");
    ASSERT_NE(pos, std::string::npos);
    bad.replace(pos + 11, 4, "zzzz");
    EXPECT_FALSE(parseCellRecord(bad, out));

    // Integers that only match after truncation to int are rejected:
    // a schema of 2^32 + version, and int columns outside int range.
    auto replaced = [&](const std::string &from, const std::string &to) {
        std::string s = line;
        std::size_t at = s.find(from);
        EXPECT_NE(at, std::string::npos) << from;
        return at == std::string::npos ? s : s.replace(at, from.size(), to);
    };
    ASSERT_TRUE(parseCellRecord(line, out));
    std::string schema =
        "\"_schema\":" + std::to_string(kSweepSchemaVersion);
    EXPECT_FALSE(parseCellRecord(
        replaced(schema, "\"_schema\":" +
                             std::to_string((std::int64_t{1} << 32) +
                                            kSweepSchemaVersion)),
        out));
    EXPECT_FALSE(parseCellRecord(
        replaced("\"attempts\":2", "\"attempts\":4294967297"), out));
    EXPECT_FALSE(parseCellRecord(
        replaced("\"attempts\":2", "\"attempts\":-2147483649"), out));
    std::string masked =
        "\"fault_masked_ports\":" +
        std::to_string(rec.cell.result.faultMaskedPorts);
    EXPECT_FALSE(parseCellRecord(
        replaced(masked, "\"fault_masked_ports\":2147483648"), out));
}

namespace {

/** Parse `{"v":<token>}` and hand back the value — the only way a
 *  JsonValue reaches the accessors in production is via the parser,
 *  so the accessors may assume grammar-valid number text. */
JsonValue
numberToken(const std::string &token)
{
    JsonFields f;
    EXPECT_TRUE(parseFlatJson("{\"v\":" + token + "}", f));
    return f["v"];
}

} // namespace

TEST(JsonNumber, U64PlainIntegersAreExact)
{
    // Full 64-bit precision — a double round trip would lose the low
    // bits of anything above 2^53.
    EXPECT_EQ(numberToken("0").asU64(), 0u);
    EXPECT_EQ(numberToken("9007199254740993").asU64(), 9007199254740993ULL);
    EXPECT_EQ(numberToken("18446744073709551615").asU64(),
              18446744073709551615ULL);
}

TEST(JsonNumber, U64RejectsNegativesInsteadOfWrapping)
{
    // strtoull would wrap "-3" to 18446744073709551613.
    EXPECT_EQ(numberToken("-3").asU64(), 0u);
    EXPECT_EQ(numberToken("-18446744073709551615").asU64(), 0u);
    EXPECT_EQ(numberToken("-1.5e3").asU64(), 0u);
}

TEST(JsonNumber, U64ConvertsExponentAndFractionForms)
{
    // strtoull would stop at the '.' and return 1.
    EXPECT_EQ(numberToken("1.5e3").asU64(), 1500u);
    EXPECT_EQ(numberToken("2e4").asU64(), 20000u);
    EXPECT_EQ(numberToken("2.5").asU64(), 2u); // truncates toward zero
    EXPECT_EQ(numberToken("0.99").asU64(), 0u);
}

TEST(JsonNumber, U64SaturatesOnOverflow)
{
    EXPECT_EQ(numberToken("18446744073709551616").asU64(),
              18446744073709551615ULL);
    EXPECT_EQ(numberToken("1e30").asU64(), 18446744073709551615ULL);
}

TEST(JsonNumber, I64PlainIntegersAreExact)
{
    EXPECT_EQ(numberToken("-9223372036854775808").asI64(),
              std::numeric_limits<std::int64_t>::min());
    EXPECT_EQ(numberToken("9223372036854775807").asI64(),
              std::numeric_limits<std::int64_t>::max());
    EXPECT_EQ(numberToken("-9007199254740993").asI64(), -9007199254740993LL);
}

TEST(JsonNumber, I64ConvertsExponentFormsAndSaturates)
{
    EXPECT_EQ(numberToken("1.5e3").asI64(), 1500);
    EXPECT_EQ(numberToken("-2.5e2").asI64(), -250);
    EXPECT_EQ(numberToken("-0.5").asI64(), 0);
    EXPECT_EQ(numberToken("9223372036854775808").asI64(),
              std::numeric_limits<std::int64_t>::max());
    EXPECT_EQ(numberToken("-9223372036854775809").asI64(),
              std::numeric_limits<std::int64_t>::min());
    EXPECT_EQ(numberToken("1e25").asI64(),
              std::numeric_limits<std::int64_t>::max());
    EXPECT_EQ(numberToken("-1e25").asI64(),
              std::numeric_limits<std::int64_t>::min());
}

TEST(JsonNumber, NonNumbersReadAsZero)
{
    JsonFields f;
    ASSERT_TRUE(parseFlatJson(R"({"s":"12","z":null})", f));
    EXPECT_EQ(f["s"].asU64(), 0u);
    EXPECT_EQ(f["z"].asI64(), 0);
}
