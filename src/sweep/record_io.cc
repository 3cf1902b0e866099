#include "sweep/record_io.hh"

#include <utility>

namespace eqx {

namespace {

// Energy breakdown rides along under private keys: it is part of
// RunResult but not of the public sweep JSONL schema, and a cache hit
// must restore it for benches that read it.
constexpr std::pair<const char *, double EnergyBreakdown::*>
    kEnergyKeys[] = {
        {"_e_buffer", &EnergyBreakdown::buffer},
        {"_e_crossbar", &EnergyBreakdown::crossbar},
        {"_e_alloc", &EnergyBreakdown::allocators},
        {"_e_links", &EnergyBreakdown::links},
        {"_e_ilinks", &EnergyBreakdown::interposerLinks},
        {"_e_leak", &EnergyBreakdown::leakage},
};

} // namespace

std::string
cellRecordLine(const CellRecord &rec)
{
    JsonObject o;
    o.field("_digest", rec.digest.hex())
        .field("_schema", rec.schema)
        .field("_cell", static_cast<std::uint64_t>(rec.cell.index));
    for (const auto &[key, part] : kEnergyKeys)
        o.field(key, rec.cell.result.energy.*part);
    return o.merge(cellJsonObject(rec.cell)).str();
}

bool
parseCellRecord(const std::string &line, CellRecord &out,
                int expect_schema)
{
    JsonFields f;
    if (!parseFlatJson(line, f))
        return false;

    auto it = f.find("_digest");
    if (it == f.end() ||
        !CellDigest::fromHex(it->second.text, out.digest))
        return false;
    it = f.find("_schema");
    if (it == f.end() || it->second.kind != JsonValue::Kind::Number ||
        it->second.asI64() != expect_schema)
        return false;
    out.schema = expect_schema;
    auto cell = f.find("_cell");
    if (cell == f.end() || cell->second.kind != JsonValue::Kind::Number)
        return false;

    if (!parseCellJson(f, out.cell))
        return false;
    out.cell.index = static_cast<std::size_t>(cell->second.asU64());
    for (const auto &[key, part] : kEnergyKeys) {
        it = f.find(key);
        out.cell.result.energy.*part =
            it == f.end() ? 0.0 : it->second.asDouble();
    }
    return true;
}

} // namespace eqx
