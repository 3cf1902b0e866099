/**
 * @file
 * Experiment runner shared by the bench harness: runs scheme x
 * benchmark matrices with a cached EquiNox design, and formats the
 * normalized tables the paper's figures report.
 *
 * The matrix executes on the src/runner JobPool: every (scheme,
 * benchmark) cell is an independent simulation job, so `workers` > 1
 * runs cells concurrently. Results are bit-for-bit identical for any
 * worker count (see DESIGN.md "Parallel sweep engine") as long as
 * the wall-clock timeout is disabled.
 */

#ifndef EQX_SIM_EXPERIMENT_HH
#define EQX_SIM_EXPERIMENT_HH

#include <functional>
#include <string>
#include <vector>

#include "runner/flat_json.hh"
#include "runner/job_pool.hh"
#include "runner/jsonl.hh"
#include "schemes/scheme_registry.hh"
#include "sim/system.hh"

namespace eqx {

/** One (scheme, benchmark) cell of a result matrix. */
struct CellResult
{
    std::string scheme; ///< canonical SchemeRegistry name
    std::string benchmark;
    RunResult result;

    // Job-engine outcome for this cell. `failed` cells carry whatever
    // partial RunResult the final attempt produced; sweeps report
    // them instead of aborting. wallMs is observability only — it is
    // machine/load dependent and excluded from determinism claims.
    bool failed = false;
    int attempts = 1;
    double wallMs = 0;
    std::string error;

    /**
     * Canonical matrix index (workload-major, scheme-minor) over the
     * *unsharded* matrix. Stable across shard splits, so a shard's
     * cells keep the slots they have in the single-process run.
     * Not part of the sweep JSONL record schema.
     */
    std::size_t index = 0;
};

/** Configuration of a full experiment matrix. */
struct ExperimentConfig
{
    int width = 8;
    int height = 8;
    int numCbs = 8;
    std::uint64_t seed = 1;
    /** SchemeRegistry keys (name or alias, any case) to sweep. The
     *  default is the paper's seven; registry-only variants like
     *  "EquiNox-XY" slot in by name. */
    std::vector<std::string> schemes = paperSchemeNames();
    std::vector<WorkloadProfile> workloads;
    /** Scale factor on instsPerPe (benches shrink runs for speed). */
    double instScale = 1.0;
    bool verbose = false;
    /** NoC stats reset at this core cycle (0 = measure from cycle 0). */
    Cycle warmupCycles = 0;
    /** Collect the per-router/per-NI snapshot into each RunResult and
     *  emit it ("m."-prefixed keys) in JSONL records. */
    bool collectMetrics = false;
    /** Fault injection applied to every cell (DESIGN.md §11). JSONL
     *  records of fault-armed runs grow the fault_* columns; a
     *  disabled config leaves the schema and results byte-identical
     *  to a fault-free build. */
    FaultConfig fault;
    /** Traffic model applied to every cell (DESIGN.md §16). The
     *  default keeps the legacy closed-loop synthetic path and a
     *  record schema byte-identical to pre-traffic builds; storm
     *  models grow the storm_* columns, coherence the coh_* ones. */
    TrafficConfig traffic;
    /** Applied to every per-run SystemConfig before construction.
     *  Must be thread-safe when workers != 1 (called concurrently). */
    std::function<void(SystemConfig &)> tweak;

    // ---- Parallel sweep engine (src/runner) ----
    /** Worker threads; 1 = serial, 0 = hardware concurrency. */
    int workers = 1;
    /** Per-attempt wall-clock timeout in seconds (0 = off). Enabling
     *  it trades the bit-determinism guarantee for robustness. */
    double jobTimeoutSec = 0;
    /** Retries after a non-completed attempt (timeout/maxCycles). */
    int jobRetries = 1;
    /** Emit a stderr progress ticker while the matrix runs. */
    bool progress = false;
    /** Write one JSONL record per finished cell to this path, in
     *  canonical order (the returned vector's order) for any worker
     *  count; each record goes out once every cell before it is
     *  finished too. */
    std::string jsonlPath;
    /** Give each cell a private Rng stream derived from
     *  (seed, scheme, benchmark) instead of the shared base seed.
     *  Off by default: the paper's scheme comparison wants identical
     *  traces across schemes; design-space data generation wants
     *  statistically independent cells. */
    bool decorrelateSeeds = false;

    // ---- Sweep fabric hooks (src/sweep) ----
    // All three see the cell's identity fields (scheme, benchmark,
    // index) filled in; all must be thread-safe for workers != 1.
    /** When set, the matrix is restricted to cells this passes —
     *  the shard predicate. Skipped cells are absent from the
     *  returned vector and from JSONL output. */
    std::function<bool(const CellResult &)> cellFilter;
    /** Consulted in the pool path before a cell is simulated: fill
     *  the cell (result/failed/attempts/error) and return true to
     *  serve it from the cache without running. */
    std::function<bool(CellResult &)> cellLookup;
    /** Called (serialized) after every finished cell, cache-served or
     *  simulated; the cache population point. */
    std::function<void(const CellResult &)> cellDone;
};

/**
 * One cell fully prepared for execution: the post-tweak SystemConfig
 * (seed already decorrelated when configured, EquiNox design pinned)
 * and the post-instScale workload. This is exactly what System will
 * simulate — and therefore exactly what the src/sweep digest hashes.
 */
struct PreparedCell
{
    SystemConfig sc;
    WorkloadProfile wp;
};

/** Runs the matrix; caches the EquiNox design across benchmarks. */
class ExperimentRunner
{
  public:
    explicit ExperimentRunner(ExperimentConfig config);

    /** The (cached) EquiNox design used for every EquiNox run. */
    const EquiNoxDesign &equinoxDesign();

    /** Run one cell (optionally under a cancellation token). The
     *  scheme is any registry key — name or alias, any case. */
    RunResult runOne(const std::string &scheme,
                     const WorkloadProfile &profile,
                     const CancelToken *cancel = nullptr);

    /**
     * Resolve one cell to the exact (SystemConfig, WorkloadProfile)
     * pair runOne would simulate, without running it. Thread-safe
     * once the EquiNox design has been built (runMatrix prebuilds
     * it); the digest layer of src/sweep hashes this.
     */
    PreparedCell prepareCell(const std::string &scheme,
                             const WorkloadProfile &profile);

    /**
     * Run every (scheme, workload) pair through the job pool.
     * Cell order is always workload-major, scheme-minor, independent
     * of scheduling. Failed cells are reported in-place.
     */
    std::vector<CellResult> runMatrix();

    const ExperimentConfig &config() const { return cfg_; }

  private:
    SystemConfig makeSystemConfig(const SchemeModel &model) const;

    ExperimentConfig cfg_;
    EquiNoxDesign design_;
    bool designBuilt_ = false;
};

/** One cell as a flat JSON object (the sweep JSONL record schema). */
std::string cellJsonRecord(const CellResult &cell);

/** The same record as a JsonObject, for callers that splice extra
 *  fields around it (the src/sweep cache records). */
JsonObject cellJsonObject(const CellResult &cell);

/**
 * The inverse of cellJsonObject: restore a cell from one parsed
 * record's columns (derived columns are skipped, missing ones read as
 * zero). Returns false when `benchmark`, `scheme` or `completed` is
 * missing or an int column is outside int range.
 */
bool parseCellJson(const JsonFields &fields, CellResult &out);

/**
 * Print a benchmark x scheme table of metric values normalized to
 * @p baseline, followed by a geometric-mean row (paper Fig. 9 style).
 */
void printNormalizedTable(
    const std::vector<CellResult> &cells,
    const std::vector<std::string> &schemes,
    const std::string &metric_name,
    const std::function<double(const RunResult &)> &metric,
    const std::string &baseline);

/** Geomean of a metric for one scheme across all benchmarks. */
double schemeGeomean(const std::vector<CellResult> &cells,
                     const std::string &scheme,
                     const std::function<double(const RunResult &)> &metric);

/**
 * Dump the raw result matrix as CSV (one row per cell, every RunResult
 * field), for external plotting. Fatal if the file cannot be written.
 */
void writeCellsCsv(const std::vector<CellResult> &cells,
                   const std::string &path);

} // namespace eqx

#endif // EQX_SIM_EXPERIMENT_HH
