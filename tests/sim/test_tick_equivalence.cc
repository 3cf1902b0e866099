/**
 * @file
 * Scheme-level outputs of the activity-driven NoC scheduler
 * (DESIGN.md §10) pinned to frozen goldens: every JSONL cell record
 * (modulo host wall-clock, metric snapshot included) must hash to the
 * value captured at commit 7f8757d, where each record was identical
 * under the activity-scheduled and the exhaustive tick loop. Covers
 * warmup reset, the EquiNox EIR groups, loaded 16x16 (with and without
 * faults) and the wrap/concentrated reply fabrics.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "golden.hh"
#include "sim/experiment.hh"

namespace eqx {
namespace {

/** Expected golden per "<benchmark>/<scheme>" cell. */
using CellGoldens = std::map<std::string, golden::Golden>;

void
expectCellsMatch(const std::vector<CellResult> &cells,
                 const CellGoldens &want)
{
    ASSERT_EQ(cells.size(), want.size());
    for (const auto &c : cells) {
        std::string key = c.benchmark + "/" + c.scheme;
        auto it = want.find(key);
        ASSERT_NE(it, want.end()) << key;
        EXPECT_TRUE(c.result.completed) << key;
        EXPECT_EQ(golden::ofCell(c), it->second) << key;
    }
}

/**
 * Baseline schemes (adaptive routing, vcMono, multi-port) with warmup
 * reset and the full metric snapshot riding in each record, so the
 * digest covers every exported statistic.
 */
TEST(TickEquivalence, BaselineSchemesJsonlRecordsIdentical)
{
    ExperimentConfig ec;
    ec.workloads = workloadSubset(2);
    ec.instScale = 0.04;
    ec.schemes = {"SingleBase", "VC-Mono", "MultiPort"};
    ec.collectMetrics = true;
    ec.warmupCycles = 20;
    expectCellsMatch(
        ExperimentRunner(ec).runMatrix(),
        {{"backprop/SingleBase",
          {0xa43faefc5bf69ef0ULL, 3169, 103871, 5509, 289705}},
         {"backprop/VC-Mono",
          {0x204737fa6d3432b9ULL, 3104, 103871, 5509, 289432}},
         {"backprop/MultiPort",
          {0xd0da993f39b49e92ULL, 1735, 103282, 5493, 353092}},
         {"bfs/SingleBase",
          {0x688e8738c8476bd8ULL, 3316, 103779, 5519, 326722}},
         {"bfs/VC-Mono",
          {0x465e84adf1a39b65ULL, 3142, 103779, 5519, 304509}},
         {"bfs/MultiPort",
          {0x702a83e819fad154ULL, 1555, 103205, 5501, 298599}}});
}

/** One-workload cell with a cheap in-system EquiNox design flow. */
ExperimentConfig
designCell(const char *scheme)
{
    ExperimentConfig ec;
    ec.workloads = workloadSubset(1);
    ec.instScale = 0.04;
    ec.schemes = {scheme};
    ec.collectMetrics = true;
    ec.warmupCycles = 20;
    ec.tweak = [](SystemConfig &sc) {
        sc.design.mcts.iterationsPerLevel = 80;
        sc.design.polishPasses = 1;
    };
    return ec;
}

TEST(TickEquivalence, EquiNoxEirGroupsJsonlRecordIdentical)
{
    // EquiNox routes reply traffic through remote-injection EIR
    // groups: exercises the interposer wires and multi-buffer CB NIs.
    auto cells = ExperimentRunner(designCell("EquiNox")).runMatrix();
    expectCellsMatch(
        cells, {{"backprop/EquiNox",
                 {0x1401393bf5c6560bULL, 1702, 89144, 5499, 356949}}});
    // The snapshot rode along (metric digest, not just scalars).
    EXPECT_NE(cellJsonRecord(cells[0]).find("\"m.reply.act.link_flits\":"),
              std::string::npos);
}

/**
 * Loaded 16x16: constant per-PE work on 256 PEs drives the same 8 CBs,
 * so the request path saturates — the regime the SoA router hot path
 * and the global time wheel must not perturb.
 */
ExperimentConfig
loaded16Matrix(bool fault_armed)
{
    ExperimentConfig ec;
    ec.width = ec.height = 16;
    ec.workloads = workloadSubset(1);
    ec.instScale = 0.03;
    ec.schemes = {"SeparateBase"};
    ec.collectMetrics = true;
    ec.warmupCycles = 20;
    if (fault_armed) {
        ec.fault.ratePerKTick = 4.0;
        ec.fault.seed = 3;
    }
    return ec;
}

TEST(TickEquivalence, Loaded16x16JsonlRecordsIdentical)
{
    expectCellsMatch(
        ExperimentRunner(loaded16Matrix(false)).runMatrix(),
        {{"backprop/SeparateBase",
          {0xc4cde877b01dc746ULL, 5588, 636632, 18459, 6130498}}});
}

/**
 * Wrap-fabric variants (DESIGN.md §17): the reply network is a
 * dateline-VC torus or a concentrated mesh, so wrap links (and, for
 * CMesh, slot-indexed concentrated ejection) are in play.
 */
TEST(TickEquivalence, TorusReplyFabricJsonlRecordIdentical)
{
    expectCellsMatch(
        ExperimentRunner(designCell("EquiNox-Torus")).runMatrix(),
        {{"backprop/EquiNox-Torus",
          {0x502530add37b5952ULL, 1668, 77022, 5499, 349128}}});
}

TEST(TickEquivalence, CmeshReplyFabricJsonlRecordIdentical)
{
    expectCellsMatch(
        ExperimentRunner(designCell("SeparateBase-CMesh")).runMatrix(),
        {{"backprop/SeparateBase-CMesh",
          {0x365108095ba37ac7ULL, 2479, 73586, 5499, 555553}}});
}

TEST(TickEquivalence, Loaded16x16FaultArmedJsonlRecordsIdentical)
{
    // Fault-armed: the plane ticks every cycle (skip suppressed), the
    // retransmission machinery adds traffic, and the fault.* metric
    // block rides in the record.
    auto cells = ExperimentRunner(loaded16Matrix(true)).runMatrix();
    ASSERT_EQ(cells.size(), 1u);
    EXPECT_TRUE(cells[0].result.faultArmed);
    expectCellsMatch(
        cells, {{"backprop/SeparateBase",
                 {0xc72fa630298ee6f6ULL, 6985, 780044, 18459, 7176576}}});
}

} // namespace
} // namespace eqx
