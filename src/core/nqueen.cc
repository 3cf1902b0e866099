#include "core/nqueen.hh"

#include <algorithm>
#include <numeric>
#include <set>

#include "common/logging.hh"
#include "core/hotzone.hh"

namespace eqx {

namespace {

/**
 * Generic backtracking enumerator. The column order tried at each row
 * is given by col_order (identity = lexicographic).
 */
void
backtrack(int n, int row, std::vector<int> &cols,
          std::vector<char> &used_col, std::vector<char> &used_sum,
          std::vector<char> &used_diff, const std::vector<int> &col_order,
          std::vector<std::vector<Coord>> &out, std::size_t max_solutions)
{
    if (out.size() >= max_solutions)
        return;
    if (row == n) {
        std::vector<Coord> sol;
        sol.reserve(static_cast<std::size_t>(n));
        for (int r = 0; r < n; ++r)
            sol.push_back({cols[static_cast<std::size_t>(r)], r});
        out.push_back(std::move(sol));
        return;
    }
    for (int c : col_order) {
        int sum = row + c;
        int diff = row - c + n - 1;
        if (used_col[static_cast<std::size_t>(c)] ||
            used_sum[static_cast<std::size_t>(sum)] ||
            used_diff[static_cast<std::size_t>(diff)])
            continue;
        used_col[static_cast<std::size_t>(c)] = true;
        used_sum[static_cast<std::size_t>(sum)] = true;
        used_diff[static_cast<std::size_t>(diff)] = true;
        cols[static_cast<std::size_t>(row)] = c;
        backtrack(n, row + 1, cols, used_col, used_sum, used_diff,
                  col_order, out, max_solutions);
        used_col[static_cast<std::size_t>(c)] = false;
        used_sum[static_cast<std::size_t>(sum)] = false;
        used_diff[static_cast<std::size_t>(diff)] = false;
        if (out.size() >= max_solutions)
            return;
    }
}

std::vector<std::vector<Coord>>
enumerate(int n, std::size_t max_solutions,
          const std::vector<int> &col_order)
{
    std::vector<std::vector<Coord>> out;
    std::vector<int> cols(static_cast<std::size_t>(n), -1);
    std::vector<char> used_col(static_cast<std::size_t>(n), 0);
    std::vector<char> used_sum(static_cast<std::size_t>(2 * n - 1), 0);
    std::vector<char> used_diff(static_cast<std::size_t>(2 * n - 1), 0);
    backtrack(n, 0, cols, used_col, used_sum, used_diff, col_order, out,
              max_solutions);
    return out;
}

} // namespace

std::vector<std::vector<Coord>>
solveNQueens(int n, std::size_t max_solutions)
{
    eqx_assert(n >= 1, "board size must be positive");
    std::vector<int> order(static_cast<std::size_t>(n));
    std::iota(order.begin(), order.end(), 0);
    return enumerate(n, max_solutions, order);
}

std::size_t
countNQueenSolutions(int n, std::size_t cap)
{
    return solveNQueens(n, cap).size();
}

std::vector<std::vector<Coord>>
sampleNQueens(int n, std::size_t count, Rng &rng)
{
    std::set<std::vector<int>> seen;
    std::vector<std::vector<Coord>> out;
    // Each attempt shuffles the column preference order and takes the
    // first solution found; retry on duplicates.
    std::size_t attempts = 0;
    while (out.size() < count && attempts < count * 20 + 50) {
        ++attempts;
        std::vector<int> order(static_cast<std::size_t>(n));
        std::iota(order.begin(), order.end(), 0);
        rng.shuffle(order);
        auto sols = enumerate(n, 1, order);
        if (sols.empty())
            continue;
        std::vector<int> key;
        key.reserve(sols[0].size());
        for (const auto &c : sols[0])
            key.push_back(c.x);
        if (seen.insert(key).second)
            out.push_back(std::move(sols[0]));
    }
    return out;
}

namespace {

/**
 * Penalty of the tiles in the 5x5 box around @p c: every tile whose
 * penalty can change when the CB at @p c leaves (its hot zone is the
 * 3x3 ring, and a tile's penalty reads its 4 direct neighbours).
 */
int
boxPenalty(const HotZoneMap &map, const Coord &c, int n)
{
    int total = 0;
    for (int y = std::max(0, c.y - 2); y <= std::min(n - 1, c.y + 2); ++y)
        for (int x = std::max(0, c.x - 2); x <= std::min(n - 1, c.x + 2);
             ++x)
            total += tilePenalty(map, Coord{x, y});
    return total;
}

/**
 * Greedy trim: remove queens one at a time, each time deleting the one
 * whose removal yields the lowest hot-zone penalty (the first such on
 * ties). One coverage map serves the whole trim, and each candidate
 * is scored by its exact integer penalty delta over the box its
 * removal can touch: the penalty total outside the box is the same
 * for every candidate, so comparing deltas picks the same CB as
 * comparing whole-placement penalties.
 */
std::vector<Coord>
greedyTrim(std::vector<Coord> cbs, int num_cbs, int n)
{
    HotZoneMap map(cbs, n, n);
    while (static_cast<int>(cbs.size()) > num_cbs) {
        int best_idx = -1;
        int best_delta = 0;
        for (std::size_t i = 0; i < cbs.size(); ++i) {
            int before = boxPenalty(map, cbs[i], n);
            map.addZone(cbs[i], -1);
            int delta = boxPenalty(map, cbs[i], n) - before;
            map.addZone(cbs[i], 1);
            if (best_idx < 0 || delta < best_delta) {
                best_idx = static_cast<int>(i);
                best_delta = delta;
            }
        }
        map.addZone(cbs[static_cast<std::size_t>(best_idx)], -1);
        cbs.erase(cbs.begin() + best_idx);
    }
    return cbs;
}

} // namespace

ScoredPlacement
bestNQueenPlacement(int n, int num_cbs, Rng &rng, std::size_t sample_count)
{
    eqx_assert(num_cbs <= n, "use knightPlacement when num_cbs > n");
    std::vector<std::vector<Coord>> sols;
    if (n <= 8)
        sols = solveNQueens(n, 100000); // 8x8: all 92
    else
        sols = sampleNQueens(n, sample_count, rng);
    eqx_assert(!sols.empty(), "no N-Queen solutions found");

    ScoredPlacement best;
    bool first = true;
    for (auto &sol : sols) {
        std::vector<Coord> cbs =
            static_cast<int>(sol.size()) == num_cbs
                ? sol
                : greedyTrim(sol, num_cbs, n);
        int p = placementPenalty(cbs, n, n);
        if (first || p < best.penalty) {
            best.cbs = std::move(cbs);
            best.penalty = p;
            first = false;
        }
    }
    return best;
}

std::vector<Coord>
knightPlacement(int n, int num_cbs)
{
    eqx_assert(num_cbs <= n * n, "more CBs than tiles");
    // Walk the board in knight moves (+1 col, +2 rows), wrapping; when
    // a full tour column is exhausted shift the start to an unused
    // tile. This yields the paper's knight-move shape with minimal
    // row/column/diagonal sharing.
    std::vector<Coord> cbs;
    std::set<Coord> used;
    Coord cur{0, 0};
    while (static_cast<int>(cbs.size()) < num_cbs) {
        if (!used.count(cur)) {
            cbs.push_back(cur);
            used.insert(cur);
        }
        Coord next{(cur.x + 1) % n, (cur.y + 2) % n};
        if (used.count(next)) {
            // Find the first unused tile scanning row-major.
            bool found = false;
            for (int y = 0; y < n && !found; ++y) {
                for (int x = 0; x < n && !found; ++x) {
                    Coord c{x, y};
                    if (!used.count(c)) {
                        next = c;
                        found = true;
                    }
                }
            }
            if (!found)
                break;
        }
        cur = next;
    }
    return cbs;
}

} // namespace eqx
