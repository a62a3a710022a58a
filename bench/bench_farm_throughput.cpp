// Farm-throughput exhibit (extension; not a paper table): aggregate
// simulation throughput of core::SimFarm — N concurrent instances sharing
// ONE compiled schedule — swept over instance count × engine kind on the
// low-activity gated-banks design.
//
// Two effects are measured per (kind, N) cell:
//   * setup amortization — wall time to construct N engines from one
//     shared CompiledDesign (structure built once, instances own only
//     state) vs N private compiles through the deprecated per-instance
//     path. This is the structure/state split's win and is visible even
//     on one core.
//   * dispatch scaling — the farm's whole-batch wall clock with the
//     configured worker count vs the same jobs run on a single worker
//     (sequential baseline; also schedule-sharing, so the delta isolates
//     the dispatch parallelism).
//
// Interleaved best-of-reps (sequential vs farm alternating) as everywhere
// else; honors ESSENT_BENCH_REPS / ESSENT_THREADS and emits
// BENCH_farm_throughput.json.
//
// NOTE: farm speedup > 1 requires real cores; on a 1-core container the
// farm rows measure pure claim/dispatch overhead and should sit at ~1.0x.
// The setup-amortization ratio does not depend on core count.
//
// Third effect (this is the headline): SIMD instance parallelism — the
// same 64-job batch swept over worker count × lane count (1/8/16/64,
// EngineKind::Lane; lanes=1 is the scalar CCSS farm baseline). One
// core::LaneEngine decodes each ExecOp once for a whole lane group, so
// aggregate cycles/sec scales with lane count even on ONE core — unlike
// worker parallelism. The batch uses a SHARED control schedule (every
// instance selects the same bank on the same cycle) with per-instance
// data, the regression/sweep shape lanes are built for; divergent control
// would drive the union activity mask up and shrink the win (see
// docs/SIMD.md). Every tier runs the same wide-kernel source, compiled per
// ISA; a forced-portable row measures what the baseline-ISA compilation
// gives up against the best tier the CPU has.
#include <chrono>
#include <thread>

#include "bench_util.h"
#include "core/lane_engine.h"
#include "core/lane_simd.h"
#include "core/sim_farm.h"
#include "designs/blocks.h"

using namespace essent;

namespace {

double seconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// One farm job: ~3% activity (one of `banks` banks touched every other
// cycle), instance-specific phase so instances are not lock-step identical.
core::FarmJob makeJob(size_t i, uint64_t cycles, uint32_t banks) {
  core::FarmJob job;
  job.name = "inst" + std::to_string(i);
  job.maxCycles = cycles;
  job.init = [](sim::Engine& e) {
    e.poke("reset", 0);
    e.poke("wdata", 7);
  };
  job.stimulus = [i, banks](sim::Engine& e, uint64_t cyc) {
    e.poke("bankSel", (cyc & 1) ? (cyc / 2 + i) % banks : 999);
  };
  return job;
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReporter report("farm_throughput", argc, argv);
  constexpr uint32_t kBanks = 32, kWidth = 16;
  constexpr uint64_t kCycles = 5000;
  const unsigned farmWorkers = std::max(1u, report.env().threads);

  std::printf("Farm throughput — shared-schedule batch simulation (extension exhibit)\n");
  std::printf("design gated-banks %ux%u, %llu cycles/instance, farm workers=%u, reps=%u\n",
              kBanks, kWidth, static_cast<unsigned long long>(kCycles), farmWorkers,
              report.env().reps);
  std::printf("hardware threads=%u\n", std::thread::hardware_concurrency());
  std::printf("%-6s %4s %12s %12s %12s %12s %10s %12s\n", "engine", "N", "setup-shr(s)",
              "setup-prv(s)", "seq(s)", "farm(s)", "speedup", "agg Mc/s");
  bench::printRule(90);

  sim::SimIR ir = sim::buildFromFirrtl(designs::gatedBanksFirrtl(kBanks, kWidth));
  auto design = sim::CompiledDesign::compile(ir);

  for (sim::EngineKind kind :
       {sim::EngineKind::FullCycle, sim::EngineKind::EventDriven, sim::EngineKind::Ccss}) {
    for (size_t n : {1u, 2u, 4u, 8u}) {
      std::vector<core::FarmJob> jobs;
      for (size_t i = 0; i < n; i++) jobs.push_back(makeJob(i, kCycles, kBanks));

      // Setup amortization: shared structure (kind-specific cache warm
      // after the first construction) vs a private compile per instance.
      auto t0 = std::chrono::steady_clock::now();
      for (size_t i = 0; i < n; i++) sim::makeEngine(kind, design);
      double setupShared = seconds(t0);
      t0 = std::chrono::steady_clock::now();
      for (size_t i = 0; i < n; i++) sim::makeEngine(kind, ir);  // private design each
      double setupPrivate = seconds(t0);

      core::FarmOptions seqOpts;
      seqOpts.kind = kind;
      seqOpts.workers = 1;
      core::FarmOptions farmOpts = seqOpts;
      farmOpts.workers = farmWorkers;
      core::SimFarm seqFarm(design, seqOpts);
      core::SimFarm parFarm(design, farmOpts);

      double aggregate = 0;
      auto timed = bench::interleavedBestSeconds(
          {[&] { return seqFarm.run(jobs).wallSeconds; },
           [&] {
             core::FarmReport r = parFarm.run(jobs);
             aggregate = r.aggregateCyclesPerSec;
             return r.wallSeconds;
           }},
          report.env().reps);
      double seqS = timed[0], farmS = timed[1];
      double speedup = farmS > 0 ? seqS / farmS : 0;

      std::printf("%-6s %4zu %12.5f %12.5f %12.4f %12.4f %9.2fx %12.2f\n",
                  sim::engineKindName(kind), n, setupShared, setupPrivate, seqS, farmS,
                  speedup, aggregate / 1e6);
      std::fflush(stdout);

      obs::Json row = obs::Json::object();
      row["engine"] = sim::engineKindName(kind);
      row["instances"] = n;
      row["farm_workers"] = farmWorkers;
      row["setup_shared_seconds"] = setupShared;
      row["setup_private_seconds"] = setupPrivate;
      row["sequential_seconds"] = seqS;
      row["farm_seconds"] = farmS;
      row["speedup_vs_sequential"] = speedup;
      row["aggregate_cycles_per_sec"] = aggregate;
      report.addRow(std::move(row));
    }
  }

  // --- SIMD lane sweep: worker count x lane count over one 64-job batch ---
  constexpr size_t kLaneJobs = 64;
  std::vector<core::FarmJob> laneJobs;
  for (size_t i = 0; i < kLaneJobs; i++) {
    core::FarmJob job;
    job.name = "inst" + std::to_string(i);
    job.maxCycles = kCycles;
    // Shared control (same bank selected by every instance on a given
    // cycle), per-instance data — the lane-friendly batch shape.
    job.init = [i](sim::Engine& e) {
      e.poke("reset", 0);
      e.poke("wdata", 1 + i);
    };
    job.stimulus = [](sim::Engine& e, uint64_t cyc) {
      e.poke("bankSel", (cyc & 1) ? (cyc / 2) % kBanks : 999);
    };
    laneJobs.push_back(std::move(job));
  }

  std::printf("\nSIMD lane sweep — %zu jobs, worker count x lane count (lanes=1 = scalar ccss)\n",
              kLaneJobs);
  std::printf("%-8s %7s %5s %10s %12s %10s %12s\n", "backend", "workers", "lanes", "groups",
              "farm(s)", "speedup", "agg Mc/s");
  bench::printRule(70);

  double scalarBaselineS = 0.0;  // workers=1, lanes=1 cell
  auto runLaneCell = [&](unsigned workers, unsigned lanes, bool forcePortable) {
    if (forcePortable) core::laneSimdForceTier(core::LaneSimdTier::Portable);
    core::FarmOptions fo;
    fo.kind = lanes > 1 ? sim::EngineKind::Lane : sim::EngineKind::Ccss;
    fo.engine.lanes = lanes;
    fo.workers = workers;
    core::SimFarm farm(design, fo);
    core::FarmReport r;
    double best = std::numeric_limits<double>::infinity();
    for (unsigned rep = 0; rep < report.env().reps; rep++) {
      core::FarmReport cur = farm.run(laneJobs);
      if (cur.wallSeconds < best) {
        best = cur.wallSeconds;
        r = std::move(cur);
      }
    }
    if (forcePortable) core::laneSimdResetTier();
    const std::string backend =
        lanes > 1 ? r.lane.simdBackend : std::string("scalar");
    if (workers == 1 && lanes == 1) scalarBaselineS = best;
    const double speedup = scalarBaselineS > 0 ? scalarBaselineS / best : 0.0;
    const double agg =
        best > 0 ? static_cast<double>(r.totalCycles) / best : 0.0;

    std::printf("%-8s %7u %5u %10llu %12.4f %9.2fx %12.2f\n", backend.c_str(), workers,
                lanes, static_cast<unsigned long long>(r.lane.groups), best, speedup,
                agg / 1e6);
    std::fflush(stdout);

    obs::Json row = obs::Json::object();
    row["engine"] = lanes > 1 ? "lane" : "ccss";
    row["simd_backend"] = backend;
    row["instances"] = kLaneJobs;
    row["farm_workers"] = workers;
    row["lanes"] = lanes;
    row["lane_groups"] = r.lane.groups;
    row["group_partition_runs"] = r.lane.groupPartitionRuns;
    row["group_partition_skips"] = r.lane.groupPartitionSkips;
    row["masked_lane_skips"] = r.lane.maskedLaneSkips;
    row["farm_seconds"] = best;
    row["speedup_vs_sequential"] = speedup;
    row["aggregate_cycles_per_sec"] = agg;
    report.addRow(std::move(row));
  };

  for (unsigned workers : {1u, 2u})
    for (unsigned lanes : {1u, 8u, 16u, 64u}) runLaneCell(workers, lanes, false);
  // Baseline-ISA floor: the portable compilation still amortizes dispatch.
  runLaneCell(1, 64, true);

  std::printf("\nexpected shape: setup-shr stays flat-ish in N (structure built once) while\n"
              "setup-prv grows linearly; farm speedup tracks min(N, workers, cores);\n"
              "lane speedup tracks lane count (dispatch amortization) independent of cores.\n");
  return 0;
}
