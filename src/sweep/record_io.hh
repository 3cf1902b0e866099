/**
 * @file
 * Cache record IO: the on-disk record schema of the sweep
 * fabric and an exact round-trip between it and CellResult.
 *
 * A record is one flat JSON object: the sweep JSONL record
 * (cellJsonObject) prefixed with fabric metadata (`_digest`,
 * `_schema`, `_cell`) and the energy-breakdown extras (`_e_*`) the
 * public JSONL schema does not carry. The round trip is exact:
 * re-rendering a parsed record reproduces the original bytes
 * (doubles are written with to_chars(general, 17) — the C-locale
 * %.17g bytes, independent of LC_NUMERIC — and re-parsed with
 * from_chars), which is
 * what lets a fully cache-served sweep emit JSONL byte-identical —
 * modulo wall_ms — to the run that populated the cache.
 *
 * The flat-JSON value model and parser live in runner/flat_json.hh
 * (shared with the traffic trace wire format); this header pulls them
 * in so existing record_io users compile unchanged.
 */

#ifndef EQX_SWEEP_RECORD_IO_HH
#define EQX_SWEEP_RECORD_IO_HH

#include <cstdint>
#include <string>

#include "runner/flat_json.hh"
#include "sim/experiment.hh"
#include "sweep/digest.hh"

namespace eqx {

/** One cache record. */
struct CellRecord
{
    CellDigest digest;
    int schema = kSweepSchemaVersion;
    CellResult cell; ///< cell.index carries the canonical matrix index
};

/** Render a record (see file header for the schema). */
std::string cellRecordLine(const CellRecord &rec);

/**
 * Parse a record line. Returns false on malformed JSON, a missing or
 * malformed `_digest`/`_schema`/`_cell` header, a schema version
 * other than @p expect_schema, or columns parseCellJson rejects — all
 * of which the cache counts as corrupt entries.
 */
bool parseCellRecord(const std::string &line, CellRecord &out,
                     int expect_schema = kSweepSchemaVersion);

} // namespace eqx

#endif // EQX_SWEEP_RECORD_IO_HH
