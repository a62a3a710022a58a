#include "core/sim_farm.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <stdexcept>

#include "core/activity_engine.h"
#include "core/lane_engine.h"
#include "obs/trace.h"
#include "support/threadpool.h"

namespace essent::core {

namespace {

ScheduleOptions farmScheduleOptions(const sim::EngineOptions& eo) {
  ScheduleOptions so;
  so.partition.smallThreshold = eo.partitionSmallThreshold;
  so.stateElision = eo.stateElision;
  return so;
}

unsigned clampLanes(unsigned lanes) { return lanes < 1 ? 1 : (lanes > 64 ? 64 : lanes); }

// Cycles between two checks of FarmOptions::guard's shared deadline, per
// instance (or lane group).
constexpr uint32_t kGuardCheckInterval = 1024;

}  // namespace

SimFarm::SimFarm(std::shared_ptr<const sim::CompiledDesign> design, FarmOptions opts)
    : design_(std::move(design)), opts_(std::move(opts)) {
  if (!design_) throw std::invalid_argument("SimFarm requires a compiled design");
  if (opts_.kind == sim::EngineKind::Codegen)
    throw std::invalid_argument(
        "SimFarm cannot run engine kind 'codegen' (out-of-process simulator)");
}

FarmInstanceResult SimFarm::runOne(size_t index, const FarmJob& job, sim::EngineKind kind,
                                   std::vector<std::string>& warnings) const {
  FarmInstanceResult r;
  r.index = index;
  r.name = job.name.empty() ? "job" + std::to_string(index) : job.name;
  sim::EngineOptions eo = opts_.engine;
  eo.warnings = &warnings;  // per-instance vector; merged by the caller
  std::unique_ptr<sim::Engine> eng = sim::makeEngine(kind, design_, eo);
  if (job.init) job.init(*eng);
  sim::StimulusFn stim = job.stimulus;
  if (opts_.guard) {
    // Thread the shared wall budget into the run loop: the deadline fires
    // inside the instance (ResourceExhausted propagates to the trap site),
    // not merely after the whole batch returns.
    const support::ResourceGuard* guard = opts_.guard;
    sim::StimulusFn inner = std::move(stim);
    stim = [guard, inner](sim::Engine& e, uint64_t c) {
      if (c % kGuardCheckInterval == 0) guard->checkDeadline();
      if (inner) inner(e, c);
    };
  }
  sim::RunResult run = sim::runEngine(*eng, job.maxCycles, stim);
  r.cycles = run.cycles;
  r.stopped = run.stopped;
  r.exitCode = run.exitCode;
  r.seconds = run.seconds;
  r.stats = run.stats;
  if (auto* act = dynamic_cast<const ActivityEngine*>(eng.get()))
    r.effectiveActivity = act->effectiveActivity();
  r.printOutput = eng->printOutput();
  const sim::SimIR& ir = design_->ir;
  r.outputs.reserve(ir.outputs.size());
  for (int32_t o : ir.outputs)
    r.outputs.emplace_back(ir.signals[static_cast<size_t>(o)].name,
                           eng->peekSigBV(o).toHexString());
  return r;
}

// One claimed lane block: `count` jobs starting at `base` run on a single
// LaneEngine — each ExecOp decoded once per instruction for all lanes, each
// lane bit-identical to a solo scalar run. Lanes leave the live mask when
// they stop or exhaust their cycle budget; lanes that error (init, stimulus,
// or a group-wide tick failure) are retired and their jobs re-run on scalar
// CCSS engines so the batch result never depends on the SIMD path working.
void SimFarm::runLaneGroup(size_t base, unsigned count, const std::vector<FarmJob>& jobs,
                           FarmReport& report, std::vector<std::string>& warnings,
                           std::mutex& mergeMu) const {
  std::vector<uint8_t> failed(count, 0);
  std::vector<std::string> failReason(count);
  double groupWall = 0.0;
  uint64_t groups = 0;

  try {
    LaneEngine group(CompiledCcss::get(design_, farmScheduleOptions(opts_.engine)), count);
    groups = 1;
    for (unsigned l = 0; l < count; l++) {
      const FarmJob& job = jobs[base + l];
      if (!job.init) continue;
      try {
        job.init(group.lane(l));
      } catch (const std::exception& e) {
        failed[l] = 1;
        failReason[l] = e.what();
        group.retireLane(l);
      }
    }

    auto g0 = std::chrono::steady_clock::now();
    for (uint64_t c = 0; group.liveMask() != 0; c++) {
      if (opts_.guard && c % kGuardCheckInterval == 0) {
        try {
          opts_.guard->checkDeadline();
        } catch (const support::ResourceExhausted& e) {
          // Shared budget exhausted: hard-fail every live lane (failed == 2
          // means "no scalar retry" — a re-run would just blow the same
          // deadline again after paying engine construction).
          for (unsigned l = 0; l < count; l++)
            if (group.laneLive(l)) {
              failed[l] = 2;
              failReason[l] = e.code() + ": " + e.what();
              group.retireLane(l);
            }
          break;
        }
      }
      // Budget check first, mirroring sim::runEngine's loop condition: a
      // lane ticks exactly min(maxCycles, cycles-until-stop) times.
      for (unsigned l = 0; l < count; l++)
        if (group.laneLive(l) && c >= jobs[base + l].maxCycles) group.retireLane(l);
      if (group.liveMask() == 0) break;
      for (unsigned l = 0; l < count; l++) {
        const FarmJob& job = jobs[base + l];
        if (!group.laneLive(l) || !job.stimulus) continue;
        try {
          job.stimulus(group.lane(l), c);
        } catch (const std::exception& e) {
          failed[l] = 1;
          failReason[l] = e.what();
          group.retireLane(l);
        }
      }
      if (group.liveMask() == 0) break;
      try {
        group.tick();
      } catch (const std::exception& e) {
        // A tick failure is group-wide (the lanes advance together): every
        // lane still in flight falls back to a scalar re-run.
        for (unsigned l = 0; l < count; l++)
          if (group.laneLive(l)) {
            failed[l] = 1;
            failReason[l] = e.what();
            group.retireLane(l);
          }
      }
    }
    groupWall = std::chrono::duration<double>(std::chrono::steady_clock::now() - g0).count();

    const sim::SimIR& ir = design_->ir;
    for (unsigned l = 0; l < count; l++) {
      if (failed[l]) continue;
      const size_t index = base + l;
      sim::Engine& lane = group.lane(l);
      FarmInstanceResult& r = report.instances[index];
      r.index = index;
      r.name = jobs[index].name.empty() ? "job" + std::to_string(index) : jobs[index].name;
      r.cycles = lane.cycleCount();
      r.stopped = lane.stopped();
      r.exitCode = lane.exitCode();
      // Wall time is shared by construction; attribute an even split so
      // batch latency percentiles stay meaningful.
      r.seconds = count > 0 ? groupWall / count : groupWall;
      r.stats = lane.stats();
      r.effectiveActivity = group.laneEffectiveActivity(l);
      r.printOutput = lane.printOutput();
      r.outputs.reserve(ir.outputs.size());
      for (int32_t o : ir.outputs)
        r.outputs.emplace_back(ir.signals[static_cast<size_t>(o)].name,
                               lane.peekSigBV(o).toHexString());
    }

    std::lock_guard<std::mutex> lock(mergeMu);
    if (report.lane.simdBackend.empty()) report.lane.simdBackend = group.simdBackend();
    report.lane.groups += groups;
    report.lane.groupPartitionRuns += group.groupPartitionRuns();
    report.lane.groupPartitionSkips += group.groupPartitionSkips();
    report.lane.maskedLaneSkips += group.maskedLaneSkips();
  } catch (const std::exception& e) {
    // Group construction failed entirely: every job falls back.
    for (unsigned l = 0; l < count; l++)
      if (!failed[l]) {
        failed[l] = 1;
        failReason[l] = e.what();
      }
  }

  obs::MetricCounter& fallbackCounter =
      obs::MetricsRegistry::global().counter("farm.lane_scalar_fallbacks");
  for (unsigned l = 0; l < count; l++) {
    if (!failed[l]) continue;
    const size_t index = base + l;
    if (failed[l] == 2) {
      // Deadline-killed by the shared guard: record the structured error
      // without a scalar retry.
      report.instances[index].index = index;
      report.instances[index].name =
          jobs[index].name.empty() ? "job" + std::to_string(index) : jobs[index].name;
      report.instances[index].error = failReason[l];
      continue;
    }
    fallbackCounter.add(1);
    {
      std::lock_guard<std::mutex> lock(mergeMu);
      report.lane.scalarFallbacks++;
    }
    try {
      report.instances[index] = runOne(index, jobs[index], sim::EngineKind::Ccss, warnings);
    } catch (const support::ResourceExhausted& e) {
      report.instances[index].index = index;
      report.instances[index].name =
          jobs[index].name.empty() ? "job" + std::to_string(index) : jobs[index].name;
      report.instances[index].error = e.code() + ": " + e.what();
    } catch (const std::exception& e) {
      report.instances[index].index = index;
      report.instances[index].name =
          jobs[index].name.empty() ? "job" + std::to_string(index) : jobs[index].name;
      report.instances[index].error =
          failReason[l].empty() ? e.what() : failReason[l] + "; scalar retry: " + e.what();
    }
  }
}

FarmReport SimFarm::run(const std::vector<FarmJob>& jobs) {
  FarmReport report;
  report.kind = opts_.kind;
  if (jobs.empty()) return report;

  // Build the kind-specific derived structure (schedule, event groups, ...)
  // once, up front, by constructing and discarding one engine: otherwise the
  // first claimed instance on every worker would serialize on the extension
  // cache mutex inside the timed region.
  {
    sim::EngineOptions eo = opts_.engine;
    eo.warnings = nullptr;
    sim::makeEngine(opts_.kind, design_, eo);
  }

  // Work units the claim cursor walks: one unit per job, or — for
  // EngineKind::Lane — one unit per lane BLOCK of `engine.lanes` jobs, with
  // the remainder jobs as scalar-fallback singles at the tail.
  const bool laneMode = opts_.kind == sim::EngineKind::Lane;
  const unsigned laneWidth = laneMode ? clampLanes(opts_.engine.lanes) : 1;
  const size_t numGroups = laneMode ? jobs.size() / laneWidth : 0;
  const size_t numSingles = jobs.size() - numGroups * laneWidth;
  const size_t numUnits = laneMode ? numGroups + numSingles : jobs.size();
  if (laneMode) report.lane.lanes = laneWidth;

  unsigned workers = opts_.workers == 0 ? support::ThreadPool::defaultThreadCount()
                                        : opts_.workers;
  workers = std::max(1u, std::min<unsigned>(workers, static_cast<unsigned>(numUnits)));
  report.workers = workers;
  report.instances.resize(jobs.size());

  std::atomic<size_t> cursor{0};
  std::mutex mergeMu;  // guards report.warnings + report.lane (instances are index-disjoint)

  // Per-batch wall-time histogram (snapshotted into the report) plus the
  // process-wide aggregates that merge into --stats-json. The references
  // are resolved once, outside the claim loop; recording is lock-free.
  obs::LatencyHistogram batchHist;
  obs::LatencyHistogram& globalHist =
      obs::MetricsRegistry::global().histogram("farm.instance_wall_ns");
  obs::LatencyHistogram& claimHist =
      obs::MetricsRegistry::global().histogram("farm.claim_wait_ns");

  obs::MetricCounter& groupCounter =
      obs::MetricsRegistry::global().counter("farm.lane_groups");

  auto t0 = std::chrono::steady_clock::now();
  auto body = [&](unsigned) {
    for (;;) {
      size_t u = cursor.fetch_add(1, std::memory_order_relaxed);
      if (u >= numUnits) break;
      claimHist.record(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count()));
      std::vector<std::string> warnings;
      if (laneMode && u < numGroups) {
        // Lane block: laneWidth jobs on one SIMD group engine.
        const size_t base = u * laneWidth;
        obs::traceInstant("farm.claim", "group", u);
        obs::TraceSpan span("farm.lane_group", obs::TraceCat::None,
                            obs::TraceDetail::Phase, "group", u);
        groupCounter.add(1);
        runLaneGroup(base, laneWidth, jobs, report, warnings, mergeMu);
        for (unsigned l = 0; l < laneWidth; l++) {
          const FarmInstanceResult& r = report.instances[base + l];
          if (!r.error.empty()) continue;
          uint64_t wallNs = static_cast<uint64_t>(r.seconds * 1e9);
          batchHist.record(wallNs);
          globalHist.record(wallNs);
        }
      } else {
        // Single job: remainder of a lane batch (scalar CCSS fallback) or
        // the ordinary per-job path.
        const size_t i = laneMode ? numGroups * laneWidth + (u - numGroups) : u;
        obs::traceInstant("farm.claim", "instance", i);
        obs::TraceSpan span("farm.instance", obs::TraceCat::None,
                            obs::TraceDetail::Phase, "instance", i);
        const sim::EngineKind kind = laneMode ? sim::EngineKind::Ccss : opts_.kind;
        if (laneMode) {
          obs::MetricsRegistry::global().counter("farm.lane_scalar_fallbacks").add(1);
          std::lock_guard<std::mutex> lock(mergeMu);
          report.lane.scalarFallbacks++;
        }
        // ThreadPool tasks must not throw; trap per-instance failures into
        // the result so one bad job cannot take down the batch.
        try {
          report.instances[i] = runOne(i, jobs[i], kind, warnings);
          uint64_t wallNs =
              static_cast<uint64_t>(report.instances[i].seconds * 1e9);
          batchHist.record(wallNs);
          globalHist.record(wallNs);
        } catch (const support::ResourceExhausted& e) {
          // Keep the E05xx code visible in the per-instance error so callers
          // (essentc --batch) can map it to their own taxonomy.
          report.instances[i].index = i;
          report.instances[i].name =
              jobs[i].name.empty() ? "job" + std::to_string(i) : jobs[i].name;
          report.instances[i].error = e.code() + ": " + e.what();
        } catch (const std::exception& e) {
          report.instances[i].index = i;
          report.instances[i].name =
              jobs[i].name.empty() ? "job" + std::to_string(i) : jobs[i].name;
          report.instances[i].error = e.what();
        }
      }
      if (!warnings.empty()) {
        std::lock_guard<std::mutex> lock(mergeMu);
        for (std::string& w : warnings)
          if (std::find(report.warnings.begin(), report.warnings.end(), w) ==
              report.warnings.end())
            report.warnings.push_back(std::move(w));
      }
    }
  };

  if (workers == 1) {
    // No pool: keeps single-worker farms usable from pool tasks. The farm
    // records the Busy span a pool worker would have, unless a pool.work
    // span above us already owns this interval.
    obs::TraceSession* s = obs::TraceSession::current();
    if (s && s->wants(obs::TraceDetail::Wave)) {
      bool nested = obs::trace_detail::inPooledWork();
      uint64_t w0 = s->nowNs();
      if (!nested) obs::trace_detail::setInPooledWork(true);
      body(0);
      if (!nested) obs::trace_detail::setInPooledWork(false);
      s->complete("farm.work", w0,
                  nested ? obs::TraceCat::None : obs::TraceCat::Busy);
    } else {
      body(0);
    }
  } else {
    support::ThreadPool pool(workers);
    report.workers = pool.numThreads();
    pool.run(body);
  }
  report.wallSeconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  report.instanceLatency = batchHist.snapshot();

  for (const FarmInstanceResult& r : report.instances) report.totalCycles += r.cycles;
  if (report.wallSeconds > 0) {
    report.instancesPerSec = static_cast<double>(jobs.size()) / report.wallSeconds;
    report.aggregateCyclesPerSec =
        static_cast<double>(report.totalCycles) / report.wallSeconds;
  }
  return report;
}

}  // namespace essent::core
