/**
 * @file
 * Search hot-loop bench: times the EIR evaluation kernels the design
 * searches spend their wall clock in, before (the from-scratch
 * referenceEvaluate oracle from tests/core) and after (EvalAccumulator
 * O(changed-CB) stepping with the contribution memo), and writes the
 * comparison to BENCH_search_hotloop.json. The CI perf-smoke job
 * asserts the incremental-step speedup floors from that file, so
 * evaluation-path regressions are visible per commit (DESIGN.md §15).
 *
 * Kernels, at the paper scale (8x8 mesh, 8 CBs) and at 16x16:
 *   eval_scratch    one from-scratch referenceEvaluate() of a full
 *                   selection
 *   eval_incr_step  one annealing-shaped neighbour probe: clear one
 *                   CB's group, set a pooled alternative, score —
 *                   all through the accumulator
 *   mcts_search     one full MCTS run (all levels, default params),
 *                   reported as wall time and evaluations/second
 *   design_flow     one whole default buildEquiNoxDesign (N-Queen
 *                   placement, MCTS, polish) as wall time, plus the
 *                   same three stages timed one by one; min over
 *                   repeats. The stage-by-stage run must reproduce
 *                   the flow's design and evaluation count.
 *
 * historical_before_* fields are this bench's numbers at commit
 * 1ffefc5, before the design-flow hot-loop changes (DESIGN.md §15.5):
 * the median of 3 runs interleaved with 3 runs of the change, on a
 * shared 4-core x86-64 container. They are frozen, not re-measured;
 * compare them with numbers from the same host.
 *
 * Arguments:
 *   out=<path>     output JSON (default BENCH_search_hotloop.json)
 *   min_time=<s>   minimum measured wall time per kernel (default 0.2)
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/rng.hh"
#include "core/design_flow.hh"
#include "core/eval_accumulator.hh"
#include "core/nqueen.hh"
#include "core/search.hh"
#include "eval_reference.hh"

namespace eqx {
namespace {

using Clock = std::chrono::steady_clock;

/** Commit whose numbers are frozen in the historical_before_* fields. */
constexpr const char *kHistoricalCommit = "1ffefc5";

/** This bench at kHistoricalCommit, median of 3 runs (ns / ms). */
struct Historical
{
    double incrNs;
    double mctsMs;
    double flowMs;
    double placementMs;
    double flowMctsMs;
    double polishMs;
};
constexpr Historical kBefore8x8 = {5623.779, 165.7, 170.8,
                                   0.6,      160.6, 8.0};
constexpr Historical kBefore16x16 = {5686.031, 363.4, 714.2,
                                     176.9,    393.1, 124.4};

/** Time @p fn until @p min_time seconds measured; ns per call. */
template <typename F>
double
timeKernel(F &&fn, double min_time)
{
    std::uint64_t iters = 0;
    double elapsed = 0;
    std::uint64_t batch = 16;
    while (elapsed < min_time) {
        auto t0 = Clock::now();
        for (std::uint64_t i = 0; i < batch; ++i)
            fn();
        auto t1 = Clock::now();
        elapsed += std::chrono::duration<double>(t1 - t0).count();
        iters += batch;
        if (batch < (std::uint64_t{1} << 28))
            batch *= 2;
    }
    return elapsed * 1e9 / static_cast<double>(iters);
}

struct ScaleSetup
{
    int side = 0;
    EirProblem prob;
    EirSelection sel;                         ///< the probed selection
    std::vector<std::vector<std::vector<Coord>>> pools; ///< per-CB alts
};

ScaleSetup
makeSetup(int side, int num_cbs)
{
    Rng rng(7);
    auto placed = bestNQueenPlacement(side, num_cbs, rng);
    ScaleSetup s{side, EirProblem(side, side, placed.cbs), {}, {}};

    // A deterministic full selection, drawn the way the searches do.
    TileMask taken(side, side);
    for (int cb = 0; cb < s.prob.numCbs(); ++cb) {
        auto g = randomGroup(s.prob, cb, taken, rng);
        for (const auto &t : g)
            taken.add(t);
        s.sel.push_back(std::move(g));
    }

    // 64 pooled alternative groups per CB, each legal against the
    // OTHER CBs' tiles, so a probe never collides.
    s.pools.resize(s.sel.size());
    for (int cb = 0; cb < s.prob.numCbs(); ++cb) {
        TileMask others(side, side);
        for (int o = 0; o < s.prob.numCbs(); ++o) {
            if (o == cb)
                continue;
            for (const auto &t : s.sel[static_cast<std::size_t>(o)])
                others.add(t);
        }
        auto &pool = s.pools[static_cast<std::size_t>(cb)];
        for (int k = 0; k < 64; ++k)
            pool.push_back(randomGroup(s.prob, cb, others, rng));
    }
    return s;
}

/** From-scratch neighbour probe: mutate the vector, full evaluate. */
double
scratchKernel(ScaleSetup &s, double min_time, double &sink)
{
    EirEvaluator eval(&s.prob);
    EirSelection sel = s.sel;
    int cb = 0;
    std::size_t k = 0;
    bool in_alt = false;
    return timeKernel(
        [&] {
            auto idx = static_cast<std::size_t>(cb);
            if (!in_alt) {
                sel[idx] = s.pools[idx][k];
                in_alt = true;
            } else {
                sel[idx] = s.sel[idx];
                in_alt = false;
                cb = (cb + 1) % s.prob.numCbs();
                if (cb == 0)
                    k = (k + 1) % s.pools[0].size();
            }
            sink += referenceEvaluate(eval, sel).score;
        },
        min_time);
}

/** Accumulator neighbour probe: two setGroups + score per call. */
double
incrKernel(ScaleSetup &s, double min_time, double &sink)
{
    EirEvaluator eval(&s.prob);
    EvalAccumulator acc(&eval);
    for (int cb = 0; cb < s.prob.numCbs(); ++cb)
        acc.push(cb, s.sel[static_cast<std::size_t>(cb)]);
    int cb = 0;
    std::size_t k = 0;
    bool in_alt = false;
    return timeKernel(
        [&] {
            auto idx = static_cast<std::size_t>(cb);
            acc.setGroup(cb, {});
            if (!in_alt) {
                acc.setGroup(cb, s.pools[idx][k]);
                in_alt = true;
            } else {
                acc.setGroup(cb, s.sel[idx]);
                in_alt = false;
                cb = (cb + 1) % s.prob.numCbs();
                if (cb == 0)
                    k = (k + 1) % s.pools[0].size();
            }
            sink += acc.score();
        },
        min_time);
}

struct MctsResult
{
    double wallMs = 0;
    std::uint64_t evaluations = 0;
    double evalsPerSec = 0;
};

MctsResult
mctsKernel(ScaleSetup &s)
{
    EirEvaluator eval(&s.prob);
    auto t0 = Clock::now();
    SearchResult r = mctsSearch(s.prob, eval, {});
    auto t1 = Clock::now();
    MctsResult m;
    m.wallMs = std::chrono::duration<double>(t1 - t0).count() * 1e3;
    m.evaluations = r.evaluations;
    m.evalsPerSec =
        static_cast<double>(r.evaluations) / (m.wallMs / 1e3);
    return m;
}

struct FlowResult
{
    double wallMs = 0; ///< whole buildEquiNoxDesign
    double placementMs = 0;
    double mctsMs = 0;
    double polishMs = 0;
    std::uint64_t evaluations = 0;
};

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count() *
           1e3;
}

/**
 * The default design flow at @p side x @p side, repeated until
 * @p min_time seconds (at least 3 times); each field is the minimum
 * over the repeats.
 */
FlowResult
flowKernel(int side, double min_time)
{
    DesignParams dp;
    dp.width = dp.height = side;
    FlowResult best;
    double elapsed = 0;
    for (int rep = 0; rep < 3 || elapsed < min_time; ++rep) {
        auto t0 = Clock::now();
        EquiNoxDesign d = buildEquiNoxDesign(dp);
        double wall = msSince(t0);

        // The same stages buildEquiNoxDesign runs for these params.
        auto t1 = Clock::now();
        Rng rng(dp.seed);
        ScoredPlacement sp = bestNQueenPlacement(side, dp.numCbs, rng);
        double placement = msSince(t1);
        EirProblem prob(side, side, sp.cbs, dp.maxHops, dp.maxPerGroup,
                        dp.topo);
        EirEvaluator eval(&prob, dp.weights);
        MctsParams mp = dp.mcts;
        mp.seed = dp.seed;
        auto t2 = Clock::now();
        SearchResult res = mctsSearch(prob, eval, mp);
        double mcts = msSince(t2);
        auto t3 = Clock::now();
        SearchResult pol = polishSelection(prob, eval, res.selection,
                                           dp.polishPasses);
        double polish = msSince(t3);
        elapsed += (wall + placement + mcts + polish) / 1e3;

        if (sp.cbs != d.cbs || pol.selection != d.eirGroups ||
            res.evaluations + pol.evaluations != d.evaluations)
            eqx_panic("design_flow stages diverged from "
                      "buildEquiNoxDesign at ",
                      side, "x", side);
        auto keepMin = [rep](double &field, double v) {
            field = rep == 0 ? v : std::min(field, v);
        };
        keepMin(best.wallMs, wall);
        keepMin(best.placementMs, placement);
        keepMin(best.mctsMs, mcts);
        keepMin(best.polishMs, polish);
        best.evaluations = d.evaluations;
    }
    return best;
}

} // namespace
} // namespace eqx

int
main(int argc, char **argv)
try {
    using namespace eqx;
    Config cfg = parseCliArgs(argc, argv);
    std::string out = cfg.getString("out", "BENCH_search_hotloop.json");
    double min_time = cfg.getDouble("min_time", 0.2);
    cfg.rejectUnused();

    printHeader("search hot-loop before/after",
                "incremental EIR evaluation (DESIGN.md #15)");

    struct Row
    {
        std::string scale;
        double scratchNs = 0;
        double incrNs = 0;
        MctsResult mcts;
        FlowResult flow;
        Historical before;
    };
    std::vector<Row> rows;
    double sink = 0;
    for (int side : {8, 16}) {
        ScaleSetup s = makeSetup(side, 8);
        Row r;
        r.scale = std::to_string(side) + "x" + std::to_string(side);
        r.before = side == 8 ? kBefore8x8 : kBefore16x16;
        r.scratchNs = scratchKernel(s, min_time, sink);
        r.incrNs = incrKernel(s, min_time, sink);
        r.mcts = mctsKernel(s);
        r.flow = flowKernel(side, min_time);
        rows.push_back(std::move(r));
    }
    std::printf("%-10s %16s %16s %9s %12s %12s\n", "scale",
                "scratch ns/eval", "incr ns/step", "speedup",
                "mcts wall_ms", "mcts evals/s");
    for (const auto &r : rows)
        std::printf("%-10s %16.1f %16.1f %8.2fx %12.1f %12.0f\n",
                    r.scale.c_str(), r.scratchNs, r.incrNs,
                    r.scratchNs / r.incrNs, r.mcts.wallMs,
                    r.mcts.evalsPerSec);
    std::printf("\n%-10s %12s %12s %12s %12s %12s\n", "design flow",
                "wall_ms", "placement", "mcts", "polish", "evals");
    for (const auto &r : rows)
        std::printf("%-10s %12.1f %12.1f %12.1f %12.1f %12llu\n",
                    r.scale.c_str(), r.flow.wallMs, r.flow.placementMs,
                    r.flow.mctsMs, r.flow.polishMs,
                    static_cast<unsigned long long>(r.flow.evaluations));

    std::FILE *f = std::fopen(out.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot open %s for writing\n",
                     out.c_str());
        return 1;
    }
    std::fprintf(f,
                 "{\n  \"bench\": \"search_hotloop\",\n"
                 "  \"historical_before_commit\": \"%s\",\n"
                 "  \"kernels\": [\n",
                 kHistoricalCommit);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto &r = rows[i];
        std::fprintf(f,
                     "    {\"name\": \"eval_step_%s\", "
                     "\"scratch_ns_per_eval\": %.3f, "
                     "\"incr_ns_per_step\": %.3f, "
                     "\"historical_before_incr_ns_per_step\": %.3f, "
                     "\"speedup\": %.3f, "
                     "\"incr_evals_per_second\": %.0f},\n",
                     r.scale.c_str(), r.scratchNs, r.incrNs,
                     r.before.incrNs, r.scratchNs / r.incrNs,
                     1e9 / r.incrNs);
        std::fprintf(f,
                     "    {\"name\": \"mcts_search_%s\", "
                     "\"wall_ms\": %.1f, "
                     "\"historical_before_wall_ms\": %.1f, "
                     "\"evaluations\": %llu, "
                     "\"evals_per_second\": %.0f},\n",
                     r.scale.c_str(), r.mcts.wallMs, r.before.mctsMs,
                     static_cast<unsigned long long>(
                         r.mcts.evaluations),
                     r.mcts.evalsPerSec);
        std::fprintf(f,
                     "    {\"name\": \"design_flow_%s\", "
                     "\"wall_ms\": %.1f, "
                     "\"historical_before_wall_ms\": %.1f, "
                     "\"placement_ms\": %.1f, "
                     "\"historical_before_placement_ms\": %.1f, "
                     "\"mcts_ms\": %.1f, "
                     "\"historical_before_mcts_ms\": %.1f, "
                     "\"polish_ms\": %.1f, "
                     "\"historical_before_polish_ms\": %.1f, "
                     "\"evaluations\": %llu}%s\n",
                     r.scale.c_str(), r.flow.wallMs, r.before.flowMs,
                     r.flow.placementMs, r.before.placementMs,
                     r.flow.mctsMs, r.before.flowMctsMs, r.flow.polishMs,
                     r.before.polishMs,
                     static_cast<unsigned long long>(
                         r.flow.evaluations),
                     i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", out.c_str());
    if (sink == -1)
        std::printf("%f\n", sink); // keep the kernels un-elided
    return 0;
} catch (const eqx::FatalError &) {
    return 2;
}
