// Scale suite (`ctest -L scale`): the million-node elaboration contract at
// sizes a unit test can afford, plus an opt-in full-size smoke.
//
// The cheap tier runs on every ctest invocation: structural invariants of
// the partitioner and BSP placement on a mid-scale (~quarter-million-node)
// TinySoC, and serial-vs-CCSS bit-identity on the ~130k-node scaled1
// preset — the multi-core SoC free-runs (never halts), so equivalence is
// asserted as identical top-level outputs on every cycle of a fixed run
// rather than via workload completion.
//
// The full 1M-node elaboration smoke (node count, zero diagnostics, peak
// RSS ceiling) costs ~10s and a GB of arena, so it is opt-in:
//   ESSENT_SCALE_FULL=1 ctest -L scale
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <vector>

#include "core/netlist.h"
#include "core/placement.h"
#include "core/schedule.h"
#include "designs/tinysoc.h"
#include "diag/diag.h"
#include "sim/compile.h"
#include "sim/full_cycle.h"
#include "core/activity_engine.h"
#include "support/meminfo.h"

using namespace essent;

namespace {

std::shared_ptr<const sim::CompiledDesign> compileScaled(uint32_t factor,
                                                         diag::DiagEngine& de) {
  designs::SoCConfig cfg = designs::socScaled(factor);
  return sim::compileDesign(designs::tinySoCFirrtl(cfg), {}, de);
}

}  // namespace

// Partitioner and placement structural invariants at a scale where the
// merge fast paths and the placement coarsening actually engage (~256k
// netlist nodes — big enough that a quadratic regression would also show
// up as a timeout here).
TEST(ScaleTest, MidScalePartitionerAndPlacementInvariants) {
  diag::DiagEngine de;
  std::shared_ptr<const sim::CompiledDesign> design = compileScaled(2, de);
  ASSERT_NE(design, nullptr);
  EXPECT_EQ(de.errorCount(), 0u);

  core::Netlist net = core::Netlist::build(design->ir);
  EXPECT_GT(net.nodes.size(), 200000u);

  core::CondPartSchedule sched = core::buildSchedule(net);
  ASSERT_FALSE(sched.parts.empty());

  // Every op lands in exactly one partition, and each partition's op list
  // is ascending (a valid topological sub-order of the global op order).
  std::vector<uint8_t> seen(design->ir.ops.size(), 0);
  size_t placedOps = 0;
  for (const core::CondPart& part : sched.parts) {
    EXPECT_FALSE(part.ops.empty());
    for (size_t i = 0; i < part.ops.size(); i++) {
      int32_t op = part.ops[i];
      ASSERT_GE(op, 0);
      ASSERT_LT(static_cast<size_t>(op), seen.size());
      EXPECT_EQ(seen[op], 0) << "op " << op << " in two partitions";
      seen[op] = 1;
      placedOps++;
      if (i > 0) {
        EXPECT_LT(part.ops[i - 1], op);
      }
    }
  }
  EXPECT_EQ(placedOps, design->ir.ops.size());

  // No partition holds more than 1% of the design's ops. Without the
  // partitioner's oversized-cone cut, the `status` XOR cone alone (every
  // idle accelerator's reduction tree) is ~19% of each scaled SoC.
  size_t largest = 0;
  for (const core::CondPart& part : sched.parts) largest = std::max(largest, part.ops.size());
  EXPECT_LE(largest * 100, design->ir.ops.size())
      << "largest partition " << largest << " of " << design->ir.ops.size() << " ops";

  // BSP placement: every thread useful, every schedule position assigned to
  // exactly one (thread, super-step) slot, and no dependency edge pointing
  // backwards across super-steps.
  core::PlacementOptions popts;
  popts.threads = 4;
  core::BspPlacement place = core::buildPlacement(sched, popts);
  EXPECT_GE(place.threads, 1u);
  EXPECT_LE(place.threads, 4u);
  ASSERT_EQ(place.threadOf.size(), sched.parts.size());
  ASSERT_EQ(place.stepOf.size(), sched.parts.size());
  std::vector<uint8_t> placed(sched.parts.size(), 0);
  for (const core::SuperStep& step : place.steps) {
    EXPECT_EQ(step.runs.size(), place.threads);
    for (const std::vector<int32_t>& run : step.runs)
      for (int32_t pos : run) {
        ASSERT_GE(pos, 0);
        ASSERT_LT(static_cast<size_t>(pos), placed.size());
        EXPECT_EQ(placed[pos], 0) << "position " << pos << " placed twice";
        placed[pos] = 1;
      }
  }
  for (size_t pos = 0; pos < placed.size(); pos++)
    EXPECT_EQ(placed[pos], 1) << "position " << pos << " never placed";
  for (const auto& [from, to] : core::placementEdges(sched))
    EXPECT_LE(place.stepOf[from], place.stepOf[to])
        << "dependency " << from << "->" << to << " crosses steps backwards";
}

// Serial full-cycle vs CCSS bit-identity on the scaled1 preset (~130k
// netlist nodes: one core, two NoC rings, 101 idle accelerators). The
// design free-runs from reset — the core executes whatever the zeroed
// instruction memory decodes to and the NoC rings mix the per-core taps —
// so the assertion is cycle-by-cycle equality of every top-level output
// over a fixed window, not workload completion.
TEST(ScaleTest, SerialAndCcssBitIdenticalAtScale) {
  diag::DiagEngine de;
  std::shared_ptr<const sim::CompiledDesign> design = compileScaled(1, de);
  ASSERT_NE(design, nullptr);
  ASSERT_EQ(de.errorCount(), 0u);

  std::vector<std::string> outs;
  for (int32_t sig : design->ir.outputs) outs.push_back(design->ir.signals[sig].name);
  ASSERT_FALSE(outs.empty());

  sim::FullCycleEngine serial(design);
  core::ActivityEngine ccss(core::CompiledCcss::compile(design, core::ScheduleOptions{}));
  for (sim::Engine* e : {static_cast<sim::Engine*>(&serial), static_cast<sim::Engine*>(&ccss)}) {
    e->poke("reset", 1);
    e->tick();
    e->tick();
    e->poke("reset", 0);
  }
  for (int cycle = 0; cycle < 256; cycle++) {
    serial.tick();
    ccss.tick();
    for (const std::string& out : outs)
      ASSERT_EQ(serial.peek(out), ccss.peek(out))
          << "output '" << out << "' diverged at cycle " << cycle;
  }
  // The whole point of CCSS at scale: the idle accelerator mass must have
  // been skipped, not re-evaluated.
  EXPECT_LT(ccss.stats().opsEvaluated, serial.stats().opsEvaluated / 2);
}

// Opt-in full-scale smoke: the 1M-node preset elaborates end to end with
// zero diagnostics and bounded peak RSS. ~10s and ~1.3 GB peak on the
// reference container, so it only runs when explicitly requested:
//   ESSENT_SCALE_FULL=1 ctest -L scale
TEST(ScaleTest, FullMillionNodeElaboration) {
  const char* full = std::getenv("ESSENT_SCALE_FULL");
  if (!full || std::string(full) != "1")
    GTEST_SKIP() << "set ESSENT_SCALE_FULL=1 to run the 1M-node smoke";

  diag::DiagEngine de;
  std::shared_ptr<const sim::CompiledDesign> design = compileScaled(8, de);
  ASSERT_NE(design, nullptr);
  EXPECT_EQ(de.errorCount(), 0u) << "1M-node elaboration must be diagnostic-clean";

  core::Netlist net = core::Netlist::build(design->ir);
  EXPECT_GE(net.nodes.size(), 1000000u) << "scaled8 preset no longer reaches 1M nodes";

  core::CondPartSchedule sched = core::buildSchedule(net);
  EXPECT_FALSE(sched.parts.empty());

  // Peak-RSS ceiling: this elaboration last measured ~1.25 GB
  // (docs/SCALING.md); 4 GB of headroom guards against an accidental return
  // to per-node heap structures without flaking on allocator variance.
  EXPECT_LT(support::peakRssBytes(), uint64_t{4} << 30);
}
