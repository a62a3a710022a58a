// Ablation bench for the design choices DESIGN.md calls out (the paper's
// §III-B optimizations and §IV partitioner phases):
//
//   A. state-element update elision on/off (§III-B1) — off forces every
//      register/memory into the global phase-2 update;
//   B. classic compiler optimizations on/off for the CCSS engine;
//   C. partitioner merge phases: pure MFFC vs +single-parent vs +sibling
//      phases (Figure 4), all at C_p = 8;
//   D. activity sweep on a gated-bank design: where event-driven and
//      full-cycle cross over as the input toggle rate rises (the paper's
//      §II argument for why raw event-driven does not win at high
//      activity).
#include "bench_util.h"
#include "designs/blocks.h"
#include "sim/harness.h"
#include "support/rng.h"

using namespace essent;

namespace {

// Times the serial CCSS engine over `sched`, as the paper evaluates it.
double runCcss(const sim::SimIR& ir, const core::CondPartSchedule& sched,
               const workloads::Program& prog, double* effAct = nullptr) {
  core::ActivityEngine eng(core::CompiledCcss::compile(sim::CompiledDesign::compile(ir), sched));
  auto r = bench::timeEngine(eng, prog);
  if (effAct) *effAct = eng.effectiveActivity();
  return r.seconds;
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReporter report("ablation_opts", argc, argv);
  auto d = bench::buildDesign(designs::socR16());
  sim::BuildOptions rawOpts;  // classic compiler optimizations off
  rawOpts.constProp = rawOpts.cse = rawOpts.dce = false;
  sim::SimIR raw = sim::buildFromFirrtl(designs::tinySoCFirrtl(designs::socR16()), rawOpts);
  auto prog = workloads::dhrystoneProgram(128);
  core::Netlist nlOpt = core::Netlist::build(d.optimized);
  core::Netlist nlRaw = core::Netlist::build(raw);

  std::printf("Ablations (r16, dhrystone)\n\n");

  // --- A: state elision ---
  {
    auto on = core::buildSchedule(nlOpt, core::ScheduleOptions{});
    core::ScheduleOptions offOpts;
    offOpts.stateElision = false;
    auto off = core::buildSchedule(nlOpt, offOpts);
    double tOn = runCcss(d.optimized, on, prog);
    double tOff = runCcss(d.optimized, off, prog);
    std::printf("A. state-element update elision (elided regs %zu -> %zu):\n",
                on.elidedRegs, off.elidedRegs);
    std::printf("   with elision %.3fs, without %.3fs  (%.2fx from elision)\n\n", tOn, tOff,
                tOff / tOn);
    obs::Json row = obs::Json::object();
    row["ablation"] = "state_elision";
    row["seconds_on"] = tOn;
    row["seconds_off"] = tOff;
    report.addRow(std::move(row));
  }

  // --- B: compiler optimizations under CCSS ---
  {
    auto schedOpt = core::buildSchedule(nlOpt, core::ScheduleOptions{});
    auto schedRaw = core::buildSchedule(nlRaw, core::ScheduleOptions{});
    double tOpt = runCcss(d.optimized, schedOpt, prog);
    double tRaw = runCcss(raw, schedRaw, prog);
    std::printf("B. classic compiler optimizations (constprop/CSE/DCE) under CCSS:\n");
    std::printf("   optimized IR %.3fs (%zu ops), raw IR %.3fs (%zu ops)  (%.2fx)\n\n", tOpt,
                d.optimized.ops.size(), tRaw, raw.ops.size(), tRaw / tOpt);
    obs::Json row = obs::Json::object();
    row["ablation"] = "compiler_opts";
    row["seconds_on"] = tOpt;
    row["seconds_off"] = tRaw;
    report.addRow(std::move(row));
  }

  // --- C: partitioner phases ---
  {
    struct PhaseCase {
      const char* name;
      bool a, b, c;
    };
    const PhaseCase cases[] = {
        {"MFFC only", false, false, false},
        {"+ single-parent (A)", true, false, false},
        {"+ small-sibling (B)", true, true, false},
        {"+ any-sibling (C) [full]", true, true, true},
    };
    std::printf("C. partitioner merge phases (C_p = 8):\n");
    std::printf("   %-26s %10s %10s %10s %9s\n", "configuration", "partitions", "cut-edges",
                "time(s)", "effAct");
    for (const auto& pc : cases) {
      core::PartitionOptions po;
      po.phaseSingleParent = pc.a;
      po.phaseSmallSiblings = pc.b;
      po.phaseAnySibling = pc.c;
      auto parts = core::partitionNetlist(nlOpt, po);
      auto sched = core::buildScheduleFrom(nlOpt, parts, true);
      double effAct = 0;
      double t = runCcss(d.optimized, sched, prog, &effAct);
      std::printf("   %-26s %10zu %10lld %10.3f %9.4f\n", pc.name, parts.numPartitions(),
                  static_cast<long long>(parts.stats.cutEdges), t, effAct);
      std::fflush(stdout);
      obs::Json row = obs::Json::object();
      row["ablation"] = "partitioner_phases";
      row["configuration"] = pc.name;
      row["seconds"] = t;
      row["effective_activity"] = effAct;
      row["partition_stats"] = core::partitionStatsJson(parts.stats);
      report.addRow(std::move(row));
    }
    std::printf("\n");
  }

  // --- D: activity sweep crossover ---
  {
    std::printf("D. activity sweep (gated banks, toggle probability p per cycle):\n");
    std::printf("   %-8s %12s %12s %12s\n", "p", "full-cyc(s)", "event-drv(s)", "ccss(s)");
    sim::SimIR banks = sim::buildFromFirrtl(designs::gatedBanksFirrtl(256, 32));
    core::Netlist nlB = core::Netlist::build(banks);
    auto schedB = core::buildSchedule(nlB, core::ScheduleOptions{});
    for (double p : {0.001, 0.01, 0.1, 0.5, 1.0}) {
      auto stim = [p](sim::Engine& e, uint64_t cycle) {
        Rng draw(static_cast<uint64_t>(p * 1e6) * 2654435761ULL + cycle);
        e.poke("reset", cycle < 2);
        if (cycle < 2 || draw.nextChance(p)) {
          e.poke("bankSel", draw.nextBelow(256));
          e.poke("wdata", draw.next());
        }
      };
      sim::FullCycleEngine fc(sim::CompiledDesign::compile(banks));
      sim::EventDrivenEngine ev(sim::CompiledDesign::compile(banks));
      core::ActivityEngine act(
          core::CompiledCcss::compile(sim::CompiledDesign::compile(banks), schedB));
      double tFc = sim::runEngine(fc, 20000, stim).seconds;
      double tEv = sim::runEngine(ev, 20000, stim).seconds;
      double tAc = sim::runEngine(act, 20000, stim).seconds;
      std::printf("   %-8.3f %12.3f %12.3f %12.3f\n", p, tFc, tEv, tAc);
      std::fflush(stdout);
    }
  }
  return 0;
}
