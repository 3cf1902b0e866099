/**
 * @file
 * From-scratch oracle for the EIR evaluation function (DESIGN.md
 * §15): an O(decided x W x H) tile loop that shares nothing with
 * EvalAccumulator except EirEvaluator::finish. The evaluation tests
 * check the accumulator against it bit for bit, and the search
 * hot-loop benches time it as the "before" kernel.
 */

#ifndef EQX_TESTS_CORE_EVAL_REFERENCE_HH
#define EQX_TESTS_CORE_EVAL_REFERENCE_HH

#include "core/eir_problem.hh"
#include "core/evaluation.hh"

namespace eqx {

/**
 * Evaluate a selection from scratch. Partial selections (fewer groups
 * than CBs) judge only the decided CBs; an empty selection is the
 * all-local design. A selection padded with empty groups to numCbs()
 * reads exactly as an EvalAccumulator holding that prefix.
 */
EvalBreakdown referenceEvaluate(const EirEvaluator &eval,
                                const EirSelection &sel);

} // namespace eqx

#endif // EQX_TESTS_CORE_EVAL_REFERENCE_HH
