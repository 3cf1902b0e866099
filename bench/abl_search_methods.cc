/**
 * @file
 * Ablation for Section 4.3's search-method discussion: MCTS vs
 * greedy, random sampling, simulated annealing and a genetic
 * algorithm, all on the same placement, evaluation function and
 * budget ballpark. The paper argues MCTS fits the problem
 * representation best; this bench quantifies it.
 *
 * The two result tables are deterministic (seeded searches over the
 * incremental evaluator, which scores bit-identically to the
 * from-scratch path); the trailing "evaluation throughput" section and
 * the jsonl wall_ms field are the only timing-dependent output.
 *
 * Arguments (besides the shared seed= / iters=):
 *   jsonl=<path>  one JSON record per method row; every field except
 *                 wall_ms is deterministic for a given seed
 */

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/rng.hh"
#include "core/design_flow.hh"
#include "core/nqueen.hh"
#include "core/search.hh"

using namespace eqx;

namespace {

using Clock = std::chrono::steady_clock;

struct MethodRow
{
    std::string method;
    double score = 0;
    int eirs = 0;
    int crossings = 0;
    int h3 = 0;
    double maxLoad = 0;
    std::uint64_t evaluations = 0;
    double wallMs = 0;
};

} // namespace

int
main(int argc, char **argv)
try {
    Config cfg = parseCliArgs(argc, argv);
    std::uint64_t seed = static_cast<std::uint64_t>(cfg.getInt("seed", 1));
    std::string jsonl = cfg.getString("jsonl", "");
    MctsParams mp;
    mp.seed = seed;
    mp.iterationsPerLevel = static_cast<int>(cfg.getInt("iters", 600));
    cfg.rejectUnused();

    printHeader("abl_search_methods: MCTS vs GA/SA/greedy/random",
                "EquiNox (HPCA'20) Section 4.3 discussion");
    Rng rng(seed);
    auto placement = bestNQueenPlacement(8, 8, rng);
    EirProblem prob(8, 8, placement.cbs, 3, 4);
    EirEvaluator eval(&prob);

    std::printf("\n%-10s %10s %8s %8s %8s %10s %12s\n", "method",
                "score", "eirs", "cross", "3hop", "maxLoad", "evals");

    std::vector<MethodRow> rows;
    auto report = [&](const SearchResult &r, double wall_ms) {
        MethodRow row;
        row.method = r.method;
        row.score = r.eval.score;
        row.crossings = r.eval.crossings;
        row.maxLoad = r.eval.maxLoad;
        row.evaluations = r.evaluations;
        row.wallMs = wall_ms;
        for (std::size_t i = 0; i < r.selection.size(); ++i) {
            for (const auto &e : r.selection[i]) {
                ++row.eirs;
                if (manhattan(placement.cbs[i], e) > 2)
                    ++row.h3;
            }
        }
        std::printf("%-10s %10.3f %8d %8d %8d %10.1f %12llu\n",
                    r.method.c_str(), r.eval.score, row.eirs,
                    r.eval.crossings, row.h3, r.eval.maxLoad,
                    static_cast<unsigned long long>(r.evaluations));
        rows.push_back(std::move(row));
    };
    auto timed = [&](auto &&run) {
        auto t0 = Clock::now();
        SearchResult r = run();
        auto t1 = Clock::now();
        report(r,
               std::chrono::duration<double>(t1 - t0).count() * 1e3);
    };

    timed([&] { return mctsSearch(prob, eval, mp); });
    timed([&] { return greedySearch(prob, eval, 2048); });
    timed([&] { return randomSearch(prob, eval, 4000, seed); });
    AnnealParams ap;
    ap.seed = seed;
    ap.steps = 4000;
    timed([&] { return annealSearch(prob, eval, ap); });
    GeneticParams gp;
    gp.seed = seed;
    timed([&] { return geneticSearch(prob, eval, gp); });

    // And each method followed by the same polish pass, as the design
    // flow applies.
    std::printf("\nwith best-response polish:\n");
    for (auto method : {SearchMethod::Mcts, SearchMethod::Greedy,
                        SearchMethod::Random, SearchMethod::Anneal,
                        SearchMethod::Genetic}) {
        timed([&] {
            SearchResult r;
            switch (method) {
              case SearchMethod::Mcts:
                r = mctsSearch(prob, eval, mp);
                break;
              case SearchMethod::Greedy:
                r = greedySearch(prob, eval, 2048);
                break;
              case SearchMethod::Random:
                r = randomSearch(prob, eval, 4000, seed);
                break;
              case SearchMethod::Anneal:
                r = annealSearch(prob, eval, ap);
                break;
              case SearchMethod::Genetic:
                r = geneticSearch(prob, eval, gp);
                break;
            }
            auto polished = polishSelection(prob, eval, r.selection);
            polished.method =
                std::string(searchMethodName(method)) + "+p";
            polished.evaluations += r.evaluations;
            return polished;
        });
    }

    // Timing-dependent output only below this line; the CI golden
    // check strips from here on (sed '/^evaluation throughput/,$d'),
    // so no blank line may precede the marker.
    std::printf("evaluation throughput\n");
    std::printf("%-10s %10s %14s\n", "method", "wall_ms", "evals/sec");
    for (const auto &row : rows)
        std::printf("%-10s %10.1f %14.0f\n", row.method.c_str(),
                    row.wallMs,
                    static_cast<double>(row.evaluations) /
                        (row.wallMs / 1e3));

    if (!jsonl.empty()) {
        std::FILE *f = std::fopen(jsonl.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "cannot open %s for writing\n",
                         jsonl.c_str());
            return 1;
        }
        for (const auto &row : rows)
            std::fprintf(
                f,
                "{\"bench\": \"abl_search_methods\", "
                "\"seed\": %llu, \"method\": \"%s\", "
                "\"score\": %.6f, \"eirs\": %d, \"crossings\": %d, "
                "\"h3\": %d, \"max_load\": %.3f, "
                "\"evaluations\": %llu, \"wall_ms\": %.1f}\n",
                static_cast<unsigned long long>(seed),
                row.method.c_str(), row.score, row.eirs,
                row.crossings, row.h3, row.maxLoad,
                static_cast<unsigned long long>(row.evaluations),
                row.wallMs);
        std::fclose(f);
        std::printf("wrote %s\n", jsonl.c_str());
    }
    return 0;
} catch (const FatalError &) {
    return 2;
}
