/**
 * @file
 * From-scratch oracle for the N-Queen greedy trim (DESIGN.md §15.5):
 * every removal candidate is scored by rebuilding the whole hot-zone
 * map and summing every tile's penalty. The placement tests check the
 * incremental trim inside bestNQueenPlacement against it.
 */

#ifndef EQX_TESTS_CORE_TRIM_REFERENCE_HH
#define EQX_TESTS_CORE_TRIM_REFERENCE_HH

#include <vector>

#include "common/types.hh"

namespace eqx {

/**
 * Remove CBs one at a time from @p cbs (on an n x n mesh), each time
 * deleting the first one whose removal gives the lowest
 * placementPenalty, until @p num_cbs remain.
 */
std::vector<Coord> referenceGreedyTrim(std::vector<Coord> cbs,
                                       int num_cbs, int n);

} // namespace eqx

#endif // EQX_TESTS_CORE_TRIM_REFERENCE_HH
