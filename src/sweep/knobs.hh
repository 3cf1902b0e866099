/**
 * @file
 * The knobs sweep-driven CLIs share, each parsed in exactly this one
 * place. A CLI reads its own knobs plus the groups below it honours,
 * then calls Config::rejectUnused(): a knob nothing asked for (a typo,
 * or one this CLI does not honour) exits 2 instead of being ignored.
 *
 * Matrix (applyMatrixKnobs; defaults per CLI):
 *   seed=<n>  scale=<f> in (0, 1000]  benchmarks=<n> >= 1 (first n)
 * scheme=<key>[,<key>...] (parseSchemeKnob): registry names or
 *   aliases, any case; unknown keys are fatal. Read only by CLIs whose
 *   scheme rows are not fixed.
 * Runner (applyRunnerKnobs; also reads the traffic knobs):
 *   workers=<n>   pool threads, 0 = all hardware threads (results are
 *                 identical for any value)
 *   timeout=<s>   per-job wall-clock timeout, >= 0, 0 = off
 *   retries=<n>   retries after a non-completed attempt, >= 0
 *   progress=0|1  stderr ticker (default per CLI)
 *   jsonl=<path>  stream one JSONL record per cell
 *   warmup=<n>    reset NoC stats at core cycle n, >= 0 (0 = off)
 *   metrics=1     per-router/per-NI observability snapshot per cell
 * Traffic (applyTrafficKnobs; DESIGN.md §16, EXPERIMENTS.md table):
 *   traffic=<model> trace=capture:<p>,replay:<p> storm_rate=<f> > 0
 *   storm_horizon=<n> storm_queue=<n> storm_hot_cbs=<n> coh_region=<n>
 *   each >= 1; storm_trough=<f> storm_write=<f> storm_hot_frac=<f>
 *   each in [0, 1]; coh_vcs=<n> >= 0
 * Sweep fabric (parseSweepKnobs; DESIGN.md §13), read only by the CLIs
 * that honour it (fig09, fig10, fig12, sweep):
 *   cache=<dir> shard=<i/N>
 * Fault (applyFaultKnobs; DESIGN.md §11, EXPERIMENTS.md table):
 *   fault_rate=<f> fault_types=<kinds> retx_timeout=<n> retx_max=<n>
 *   fault_seed=<n> fault_horizon=<n> detect_latency=<n> ack_latency=<n>
 */

#ifndef EQX_SWEEP_KNOBS_HH
#define EQX_SWEEP_KNOBS_HH

#include <string>
#include <vector>

#include "common/config.hh"
#include "sim/experiment.hh"
#include "sweep/sweep_runner.hh"

namespace eqx {

/** scale=, range-checked. */
double parseScaleKnob(const Config &cfg, double fallback);

/** seed= (default 1), scale= and benchmarks= into @p ec. */
void applyMatrixKnobs(ExperimentConfig &ec, const Config &cfg,
                      double scale_default, long benchmarks_default);

/** scheme= as canonical registry names, or @p fallback when unset. */
std::vector<std::string> parseSchemeKnob(const Config &cfg,
                                         std::vector<std::string> fallback);

/** The traffic knobs; each unset one keeps @p tc's value. */
void applyTrafficKnobs(TrafficConfig &tc, const Config &cfg);

/** The runner knobs and the traffic knobs. */
void applyRunnerKnobs(ExperimentConfig &ec, const Config &cfg,
                      bool progress_default);

SweepOptions parseSweepKnobs(const Config &cfg);

/** The fault knobs; each unset one keeps @p fc's value. */
void applyFaultKnobs(FaultConfig &fc, const Config &cfg);

/**
 * Run the matrix, through the sweep fabric when any of its knobs is
 * set (printing the served/simulated split) and directly otherwise.
 */
std::vector<CellResult> runMatrixOrSweep(const ExperimentConfig &ec,
                                         const SweepOptions &so);

/** Print a FAILED line for each failed cell; returns how many failed.
 *  A CLI that ran cells exits 1 when any did. */
std::size_t listFailedCells(const std::vector<CellResult> &cells);

} // namespace eqx

#endif // EQX_SWEEP_KNOBS_HH
