// Reproduces Figure 6: simulator execution time as a function of the
// partitioning parameter C_p, across designs and workloads; and, from the
// r16 × dhrystone runs of the same sweep, Figure 7: the decomposition of
// simulation work into base work, static overhead, and dynamic overhead.
//
// Paper findings:
//   * Figure 6 — the best C_p is mostly insensitive to the design and
//     workload — a broad optimum around C_p = 8 — which is what makes the
//     parameter host-tunable rather than design-tunable.
//   * Figure 7 — increasing C_p (fewer, larger partitions) monotonically
//     decreases the static overhead (per-cycle activity checks are
//     proportional to the number of partitions), leaves the dynamic
//     overhead roughly constant (larger partitions cut fewer edges but test
//     them more often), increases the effective activity factor (coarser
//     skipping), and the best total sits at a moderately aggressive C_p.
//
// The paper measured host instructions for Figure 7; we report the engine's
// own work counters per cycle, which decompose identically:
//   base     = ops evaluated (effective activity x design size)
//   static   = partition active-flag checks
//   dynamic  = output comparisons + consumer trigger writes
#include "bench_util.h"

using namespace essent;

namespace {

// One r16 × dhrystone cell, kept for the Figure 7 table.
struct Fig7Row {
  uint32_t cp;
  size_t parts;
  double base, stat, dyn, effAct, seconds;
};

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReporter report("fig6_cp_sweep", argc, argv);
  const uint32_t cps[] = {1, 2, 4, 8, 16, 32, 64, 128, 256};
  std::printf("Figure 6 — execution time (s) vs partitioning parameter C_p\n");
  std::printf("%-6s %-10s", "design", "workload");
  for (uint32_t cp : cps) std::printf("  cp=%-5u", cp);
  std::printf(" best\n");
  bench::printRule(110);

  const std::string fig7Design = designs::socR16().name;
  std::vector<Fig7Row> fig7;
  for (const auto& cfg : bench::evalDesigns()) {
    auto d = bench::buildDesign(cfg);
    core::Netlist nl = core::Netlist::build(d.optimized);
    auto design = sim::CompiledDesign::compile(d.optimized);
    // Partition once per C_p, reuse across workloads.
    std::vector<std::shared_ptr<const core::CompiledCcss>> ccss;
    for (uint32_t cp : cps) {
      core::PartitionOptions po;
      po.smallThreshold = cp;
      ccss.push_back(core::CompiledCcss::compile(
          design, core::buildScheduleFrom(nl, core::partitionNetlist(nl, po), true)));
    }
    for (const auto& prog : bench::evalWorkloads()) {
      std::printf("%-6s %-10s", d.name.c_str(), prog.name.c_str());
      double best = 1e30;
      uint32_t bestCp = 0;
      for (size_t i = 0; i < ccss.size(); i++) {
        core::ActivityEngine eng(ccss[i]);
        auto r = bench::timeEngine(eng, prog);
        std::printf(" %8.3f", r.seconds);
        if (r.seconds < best) {
          best = r.seconds;
          bestCp = cps[i];
        }
        std::fflush(stdout);
        const auto& st = r.stats;
        const double cyc = static_cast<double>(st.cycles);
        const Fig7Row work{cps[i],
                           ccss[i]->body->sched.numPartitions(),
                           static_cast<double>(st.opsEvaluated) / cyc,
                           static_cast<double>(st.partitionChecks) / cyc,
                           static_cast<double>(st.outputComparisons + st.triggerSets) / cyc,
                           eng.effectiveActivity(),
                           r.seconds};
        if (d.name == fig7Design && prog.name == "dhrystone") fig7.push_back(work);
        obs::Json row =
            bench::JsonReporter::engineRow(d.name, prog.name, "essent", r.seconds, st);
        row["cp"] = cps[i];
        row["partitions"] = work.parts;
        row["base_per_cycle"] = work.base;
        row["static_per_cycle"] = work.stat;
        row["dynamic_per_cycle"] = work.dyn;
        row["effective_activity"] = work.effAct;
        report.addRow(std::move(row));
      }
      std::printf("  cp=%u\n", bestCp);
    }
  }
  std::printf("\npaper finding reproduced if: a broad optimum appears at a similar C_p\n"
              "across all design/workload rows (paper selects C_p = 8).\n");

  std::printf("\nFigure 7 — per-cycle work decomposition vs C_p (%s, dhrystone)\n",
              fig7Design.c_str());
  std::printf("%6s %10s %12s %12s %12s %12s %9s %9s\n", "C_p", "parts", "base/cyc",
              "static/cyc", "dynamic/cyc", "total/cyc", "effAct", "time(s)");
  bench::printRule(92);
  for (const Fig7Row& w : fig7)
    std::printf("%6u %10zu %12.0f %12.0f %12.0f %12.0f %9.4f %9.3f\n", w.cp, w.parts, w.base,
                w.stat, w.dyn, w.base + w.stat + w.dyn, w.effAct, w.seconds);
  std::printf("\npaper finding reproduced if: static falls monotonically with C_p,\n"
              "dynamic stays roughly flat, effAct rises, and total work (and time)\n"
              "bottoms out at a moderate C_p.\n");
  return 0;
}
