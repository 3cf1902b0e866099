/**
 * @file
 * google-benchmark micro-kernels for the performance-critical pieces:
 * router pipeline stages, whole-network cycles, NI dispatch, cache
 * and MSHR operations, N-Queen enumeration, crossing counting and the
 * MCTS evaluation function. These guard the simulator's own speed
 * (BookSim-class models live or die by their inner loops).
 */

#include <benchmark/benchmark.h>

#include "core/eval_accumulator.hh"
#include "core/evaluation.hh"
#include "core/nqueen.hh"
#include "core/search.hh"
#include "gpu/tag_array.hh"
#include "noc/network.hh"
#include "noc/topology.hh"
#include "sim/synthetic.hh"
#include "eval_reference.hh"

namespace eqx {
namespace {

void
BM_NetworkCycleIdle(benchmark::State &state)
{
    NetworkSpec spec;
    spec.params.width = spec.params.height =
        static_cast<int>(state.range(0));
    Network net(spec);
    Cycle clock = 0;
    for (auto _ : state)
        net.coreTick(++clock);
    state.SetItemsProcessed(state.iterations() *
                            spec.params.numNodes());
}
BENCHMARK(BM_NetworkCycleIdle)->Arg(8)->Arg(16);

void
BM_NetworkCycleLoaded(benchmark::State &state)
{
    NetworkSpec spec;
    spec.params.width = spec.params.height = 8;
    Network net(spec);
    Rng rng(1);
    Cycle clock = 0;
    for (auto _ : state) {
        // Keep ~uniform random traffic flowing at a moderate rate.
        for (NodeId n = 0; n < 64; ++n) {
            if (!rng.chance(0.05))
                continue;
            NodeId d = static_cast<NodeId>(rng.nextBounded(64));
            if (d != n)
                net.inject(n,
                           makePacket(PacketType::ReadReply, n, d, 640));
        }
        net.coreTick(++clock);
    }
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_NetworkCycleLoaded);

void
BM_MinimalDirections(benchmark::State &state)
{
    // The RC-stage candidate computation with the fixed-capacity
    // RouteCandidates type: no heap traffic per route compute.
    Mesh2D topo(16, 16);
    Rng rng(7);
    std::vector<std::pair<Coord, Coord>> pairs;
    for (int i = 0; i < 256; ++i)
        pairs.push_back({topo.coord(rng.nextBounded(256)),
                         topo.coord(rng.nextBounded(256))});
    std::size_t i = 0;
    for (auto _ : state) {
        const auto &[cur, dst] = pairs[i++ & 255];
        benchmark::DoNotOptimize(topo.minimalRouterDirs(cur, dst));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MinimalDirections);

/**
 * The pre-refactor shape of the same computation — a std::vector<Dir>
 * built per route compute — kept as the before/after delta the
 * RouteCandidates extraction is measured against.
 */
void
BM_MinimalDirectionsHeapVector(benchmark::State &state)
{
    Mesh2D topo(16, 16);
    Rng rng(7);
    std::vector<std::pair<Coord, Coord>> pairs;
    for (int i = 0; i < 256; ++i)
        pairs.push_back({topo.coord(rng.nextBounded(256)),
                         topo.coord(rng.nextBounded(256))});
    std::size_t i = 0;
    for (auto _ : state) {
        const auto &[cur, dst] = pairs[i++ & 255];
        std::vector<Dir> dirs;
        if (dst.x != cur.x)
            dirs.push_back(dst.x > cur.x ? Dir::East : Dir::West);
        if (dst.y != cur.y)
            dirs.push_back(dst.y > cur.y ? Dir::South : Dir::North);
        benchmark::DoNotOptimize(dirs);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MinimalDirectionsHeapVector);

void
BM_SyntheticFewToMany(benchmark::State &state)
{
    for (auto _ : state) {
        SyntheticParams sp;
        sp.cbs = {{2, 0}, {5, 1}, {1, 2}, {4, 3},
                  {7, 4}, {0, 5}, {6, 6}, {3, 7}};
        sp.injectionRate = 0.05;
        sp.warmupCycles = 100;
        sp.measureCycles = 500;
        sp.drainCycles = 2000;
        benchmark::DoNotOptimize(runSynthetic(sp));
    }
}
BENCHMARK(BM_SyntheticFewToMany)->Unit(benchmark::kMillisecond);

void
BM_TagArrayProbe(benchmark::State &state)
{
    TagArray tags(CacheGeometry{2 * 1024 * 1024, 64, 16});
    Rng rng(3);
    for (int i = 0; i < 10000; ++i)
        if (!tags.contains(i))
            tags.insert(static_cast<Addr>(i), false);
    for (auto _ : state) {
        Addr line = rng.nextBounded(20000);
        bool hit = tags.probe(line);
        if (!hit && !tags.contains(line))
            tags.insert(line, false);
        benchmark::DoNotOptimize(hit);
    }
}
BENCHMARK(BM_TagArrayProbe);

void
BM_NQueenEnumerate8(benchmark::State &state)
{
    for (auto _ : state)
        benchmark::DoNotOptimize(solveNQueens(8, 1000000));
}
BENCHMARK(BM_NQueenEnumerate8)->Unit(benchmark::kMicrosecond);

void
BM_CrossingCount(benchmark::State &state)
{
    Rng rng(5);
    std::vector<Segment> segs;
    for (int i = 0; i < 24; ++i) {
        Coord a{static_cast<int>(rng.nextBounded(8)),
                static_cast<int>(rng.nextBounded(8))};
        Coord b{static_cast<int>(rng.nextBounded(8)),
                static_cast<int>(rng.nextBounded(8))};
        if (a == b)
            b.x = (b.x + 1) % 8;
        segs.push_back({a, b});
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(countCrossings(segs));
}
BENCHMARK(BM_CrossingCount);

void
BM_EirEvaluation(benchmark::State &state)
{
    Rng rng(1);
    auto cbs = bestNQueenPlacement(8, 8, rng).cbs;
    EirProblem prob(8, 8, cbs, 3, 4);
    EirEvaluator eval(&prob);
    EirSelection sel;
    TileMask taken(8, 8);
    for (int cb = 0; cb < prob.numCbs(); ++cb) {
        sel.push_back(randomGroup(prob, cb, taken, rng));
        for (const auto &t : sel.back())
            taken.add(t);
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(referenceEvaluate(eval, sel));
}
BENCHMARK(BM_EirEvaluation);

void
BM_EirEvalIncrementalStep(benchmark::State &state)
{
    Rng rng(1);
    auto cbs = bestNQueenPlacement(8, 8, rng).cbs;
    EirProblem prob(8, 8, cbs, 3, 4);
    EirEvaluator eval(&prob);
    EvalAccumulator acc(&eval);
    for (int cb = 0; cb < prob.numCbs(); ++cb)
        acc.push(cb, randomGroup(prob, cb, acc.takenMask(), rng));
    // One annealing-shaped neighbour probe: clear a CB's group, set an
    // alternative, score (bit-identical to a from-scratch evaluate).
    std::vector<Coord> alt;
    int cb = 0;
    for (auto _ : state) {
        std::vector<Coord> old = acc.group(cb);
        acc.setGroup(cb, {});
        acc.setGroup(cb, alt);
        benchmark::DoNotOptimize(acc.score());
        alt = std::move(old);
        cb = (cb + 1) % prob.numCbs();
    }
}
BENCHMARK(BM_EirEvalIncrementalStep);

void
BM_MctsLevel(benchmark::State &state)
{
    Rng rng(1);
    auto cbs = bestNQueenPlacement(8, 8, rng).cbs;
    EirProblem prob(8, 8, cbs, 3, 4);
    EirEvaluator eval(&prob);
    MctsParams mp;
    mp.iterationsPerLevel = 50;
    for (auto _ : state)
        benchmark::DoNotOptimize(mctsSearch(prob, eval, mp));
}
BENCHMARK(BM_MctsLevel)->Unit(benchmark::kMillisecond);

} // namespace
} // namespace eqx

BENCHMARK_MAIN();
