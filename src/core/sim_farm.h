// Batch simulation farm: N concurrent engine instances sharing ONE compiled
// schedule.
//
// The paper's simulators are routinely run as batches — regression suites,
// parameter sweeps, stimulus fuzzing — where every instance executes the
// same design. Recompiling the design (or even re-deriving the CCSS
// schedule) per instance wastes the dominant share of startup time, and
// per-instance copies of the immutable structure waste cache footprint at
// runtime. SimFarm exploits the structure/state split: every instance is
// constructed from the same shared sim::CompiledDesign through
// sim::makeEngine, so the IR, layout, exec stream, and the kind-specific
// derived structure (CCSS schedule + save-area layout, event groups,
// hot-op stream) exist exactly once per farm, while each instance owns only
// its mutable SimState and wake flags.
//
// Scheduling: instances are dispatched over a persistent
// support::ThreadPool. Workers claim whole jobs from a shared atomic cursor
// (dynamic self-scheduling), so a worker that finishes a short job
// immediately steals the next unclaimed one — long jobs never serialize the
// tail the way a static round-robin split would.
//
// Determinism: the shared structure is immutable and every mutable word
// (signal values, memories, wake flags, stats) is per-instance, so each
// instance's results are bit-identical to a solo run of the same engine
// kind with the same stimulus, regardless of worker count or claim order
// (tests/test_api.cpp locks this in under TSan).
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "sim/engine_factory.h"
#include "sim/harness.h"
#include "support/resource_guard.h"

namespace essent::core {

// One simulation instance: how long to run, how to drive it.
struct FarmJob {
  std::string name;        // label carried into the per-instance result
  uint64_t maxCycles = 0;  // tick budget (stops early on a fired stop())
  // Optional one-time setup before cycle 0 (pokes, workloads::loadProgram).
  std::function<void(sim::Engine&)> init;
  // Optional per-cycle input driver, same contract as sim::runEngine.
  sim::StimulusFn stimulus;
};

struct FarmInstanceResult {
  size_t index = 0;   // position in the submitted job list
  std::string name;
  uint64_t cycles = 0;
  bool stopped = false;
  int exitCode = 0;
  double seconds = 0.0;  // this instance's own run time
  sim::EngineStats stats;
  // CCSS kinds only (0 otherwise): fraction of partition evaluations
  // actually performed, the paper's effective activity factor.
  double effectiveActivity = 0.0;
  std::string printOutput;
  // Final value of every output port, as (name, hex) — enough to check a
  // farm run bit-identical against solo runs without keeping engines alive.
  std::vector<std::pair<std::string, std::string>> outputs;
  // Non-empty if the instance threw instead of completing; all other
  // fields besides index/name are then meaningless.
  std::string error;
};

// Lane-farm bookkeeping (FarmOptions::kind == EngineKind::Lane only; zeroed
// otherwise). A lane farm chunks the batch into groups of
// EngineOptions::lanes jobs, runs each group on one core::LaneEngine (every
// ExecOp decoded once for all lanes), and falls back to scalar CCSS engines
// for the remainder jobs and for any lane that errors.
struct FarmLaneStats {
  unsigned lanes = 0;           // configured lane-group width
  std::string simdBackend;      // resolved tier ("avx512"/"avx2"/"portable")
  uint64_t groups = 0;          // lane groups executed
  uint64_t scalarFallbacks = 0; // jobs run on scalar engines (remainder + errors)
  // Summed over groups: partitions executed / skipped at group granularity,
  // and per-lane skips inside executed partitions (lanes riding along
  // inactive — the masked-activity composition at work).
  uint64_t groupPartitionRuns = 0;
  uint64_t groupPartitionSkips = 0;
  uint64_t maskedLaneSkips = 0;
};

struct FarmReport {
  sim::EngineKind kind{};
  unsigned workers = 0;       // actual farm worker lanes used
  double wallSeconds = 0.0;   // whole-batch wall clock (dispatch to join)
  uint64_t totalCycles = 0;   // sum over instances
  double instancesPerSec = 0.0;
  double aggregateCyclesPerSec = 0.0;  // totalCycles / wallSeconds
  // Graceful-degradation messages from engine construction (thread
  // clamping etc.), deduplicated across instances.
  std::vector<std::string> warnings;
  // Distribution of per-instance wall times (ns) across the batch.
  obs::LatencySnapshot instanceLatency;
  // Lane-farm counters (kind == Lane only).
  FarmLaneStats lane;
  std::vector<FarmInstanceResult> instances;  // one per job, in job order

  bool allOk() const {
    for (const FarmInstanceResult& r : instances)
      if (!r.error.empty()) return false;
    return true;
  }
};

struct FarmOptions {
  // Engine kind every instance runs (Codegen is rejected: out of process).
  // EngineKind::Lane switches the farm into lane-group mode: workers claim
  // blocks of EngineOptions::lanes jobs and run each block on one SIMD
  // core::LaneEngine; remainder jobs and errored lanes fall back to scalar
  // CCSS engines. Results stay bit-identical to solo runs either way.
  sim::EngineKind kind = sim::EngineKind::Ccss;
  // Per-instance engine options (schedule knobs, profiling). The warnings
  // pointer is ignored — degradation messages land in FarmReport::warnings.
  // CcssPar instances each own a private wave pool of `engine.threads`
  // lanes on top of the farm workers; that multiplies threads, so prefer
  // serial kinds inside a farm unless instances outnumber cores by little.
  sim::EngineOptions engine;
  // Farm worker lanes (including the calling thread); 0 = the
  // support::ThreadPool::defaultThreadCount() heuristic ($ESSENT_THREADS,
  // else hardware concurrency). Clamped to the job count at run time.
  unsigned workers = 0;
  // Optional SHARED wall-clock/resource budget across every instance. The
  // guard's deadline runs from guard construction, so N concurrent
  // instances all stop within one check interval of the same wall moment —
  // a per-instance deadline would let the batch overshoot N-fold. Instances
  // cut off mid-run record an "E0504: ..." error; the guard must outlive
  // run(). Checked every 1024 cycles per instance.
  const support::ResourceGuard* guard = nullptr;
};

class SimFarm {
 public:
  // Throws std::invalid_argument for FarmOptions::kind == Codegen.
  explicit SimFarm(std::shared_ptr<const sim::CompiledDesign> design, FarmOptions opts = {});

  // Runs every job to completion and returns the aggregate report.
  // Blocking; reentrant per farm object is not supported (one run at a
  // time), but concurrent SimFarms over the same design are fine — the
  // design's extension cache is thread-safe.
  FarmReport run(const std::vector<FarmJob>& jobs);

  const std::shared_ptr<const sim::CompiledDesign>& design() const { return design_; }
  const FarmOptions& options() const { return opts_; }

 private:
  FarmInstanceResult runOne(size_t index, const FarmJob& job, sim::EngineKind kind,
                            std::vector<std::string>& warnings) const;
  void runLaneGroup(size_t base, unsigned count, const std::vector<FarmJob>& jobs,
                    FarmReport& report, std::vector<std::string>& warnings,
                    std::mutex& mergeMu) const;

  std::shared_ptr<const sim::CompiledDesign> design_;
  FarmOptions opts_;
};

}  // namespace essent::core
