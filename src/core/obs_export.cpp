#include "core/obs_export.h"

#include <algorithm>

#include "obs/stats.h"

namespace essent::core {

obs::Json designSummaryJson(const sim::SimIR& ir) {
  obs::Json j = obs::Json::object();
  j["name"] = ir.name;
  j["ops"] = ir.ops.size();
  j["registers"] = ir.regs.size();
  j["memories"] = ir.mems.size();
  j["inputs"] = ir.inputs.size();
  j["outputs"] = ir.outputs.size();
  j["signals"] = ir.signals.size();
  return j;
}

obs::Json partitionStatsJson(const PartitionStats& stats) {
  obs::Json j = obs::Json::object();
  j["initial_parts"] = stats.initialParts;
  j["cones_cut"] = stats.conesCut;
  j["after_cut"] = stats.afterCut;
  j["after_single_parent"] = stats.afterSingleParent;
  j["after_small_siblings"] = stats.afterSmallSiblings;
  j["final_parts"] = stats.finalParts;
  j["merges_a"] = stats.mergesA;
  j["merges_b"] = stats.mergesB;
  j["merges_c"] = stats.mergesC;
  j["rejected_merges"] = stats.rejectedMerges;
  j["small_remaining"] = stats.smallRemaining;
  j["cut_edges"] = static_cast<uint64_t>(stats.cutEdges < 0 ? 0 : stats.cutEdges);
  return j;
}

obs::Json scheduleSummaryJson(const CondPartSchedule& sched) {
  obs::Json j = obs::Json::object();
  j["partitions"] = sched.parts.size();
  j["elided_regs"] = sched.elidedRegs;
  j["elided_mem_writes"] = sched.elidedMemWrites;
  j["deferred_regs"] = sched.deferredRegs.size();
  j["deferred_mem_writes"] = sched.deferredMemWrites.size();
  j["part_outputs"] = sched.totalOutputs;
  obs::Histogram sizes;
  for (const auto& part : sched.parts) sizes.record(part.ops.size());
  j["partition_size"] = sizes.toJson();
  return j;
}

obs::Json placementReportJson(const BspPlacement& placement) {
  obs::Json j = obs::Json::object();
  j["threads"] = placement.threads;
  j["partitions"] = placement.threadOf.size();
  j["super_steps"] = placement.numSteps();
  j["total_edges"] = placement.totalEdges;
  j["cross_edges"] = placement.crossEdges;
  j["cut_frac"] = placement.totalEdges > 0
                      ? static_cast<double>(placement.crossEdges) /
                            static_cast<double>(placement.totalEdges)
                      : 0.0;
  j["load_imbalance"] = placement.loadImbalance;
  obs::Json costs = obs::Json::array();
  for (uint64_t c : placement.threadCost) costs.push(c);
  j["thread_cost"] = std::move(costs);
  return j;
}

obs::Json engineStatsJson(const sim::EngineStats& stats) {
  obs::Json j = obs::Json::object();
  j["cycles"] = stats.cycles;
  j["ops_evaluated"] = stats.opsEvaluated;
  j["partition_checks"] = stats.partitionChecks;
  j["partition_activations"] = stats.partitionActivations;
  j["output_comparisons"] = stats.outputComparisons;
  j["trigger_sets"] = stats.triggerSets;
  j["signals_changed_total"] = stats.signalsChangedTotal;
  return j;
}

obs::Json activityProfileJson(const ActivityEngine& engine) {
  const ActivityProfile& prof = engine.profile();
  const CondPartSchedule& sched = engine.schedule();

  obs::Json j = obs::Json::object();
  j["design"] = engine.ir().name;
  j["engine"] = engine.name();
  j["threads"] = engine.threadCount();
  j["total_ops"] = engine.ir().ops.size();
  j["effective_activity"] = engine.effectiveActivity();
  j["stats"] = engineStatsJson(engine.stats());

  obs::Json parts = obs::Json::array();
  for (size_t i = 0; i < prof.parts.size(); i++) {
    const PartitionProfile& pp = prof.parts[i];
    obs::Json row = obs::Json::object();
    row["id"] = i;
    row["ops"] = sched.parts[i].ops.size();
    row["outputs"] = sched.parts[i].outputs.size();
    row["activations"] = pp.activations;
    row["ops_evaluated"] = pp.opsEvaluated;
    row["wakes_issued"] = pp.wakesIssued;
    parts.push(std::move(row));
  }
  j["partitions"] = std::move(parts);

  obs::Json timeline = obs::Json::object();
  timeline["window_cycles"] = prof.windowCycles;
  timeline["profiled_cycles"] = prof.profiledCycles;
  obs::Json windows = obs::Json::array();
  for (uint64_t v : prof.activationsPerWindow) windows.push(v);
  timeline["activations_per_window"] = std::move(windows);
  j["timeline"] = std::move(timeline);
  return j;
}

obs::Json farmReportJson(const FarmReport& report) {
  obs::Json j = obs::Json::object();
  j["engine"] = sim::engineKindName(report.kind);
  j["workers"] = report.workers;
  j["instances"] = report.instances.size();
  j["wall_seconds"] = report.wallSeconds;
  j["total_cycles"] = report.totalCycles;
  j["instances_per_sec"] = report.instancesPerSec;
  j["aggregate_cycles_per_sec"] = report.aggregateCyclesPerSec;
  if (report.instanceLatency.count > 0)
    j["instance_latency"] = report.instanceLatency.toJson();
  if (report.lane.lanes > 0) {
    obs::Json lane = obs::Json::object();
    lane["lanes"] = report.lane.lanes;
    lane["simd_backend"] = report.lane.simdBackend;
    lane["groups"] = report.lane.groups;
    lane["scalar_fallbacks"] = report.lane.scalarFallbacks;
    lane["group_partition_runs"] = report.lane.groupPartitionRuns;
    lane["group_partition_skips"] = report.lane.groupPartitionSkips;
    lane["masked_lane_skips"] = report.lane.maskedLaneSkips;
    j["lane"] = std::move(lane);
  }
  if (!report.warnings.empty()) {
    obs::Json warns = obs::Json::array();
    for (const std::string& w : report.warnings) warns.push(w);
    j["warnings"] = std::move(warns);
  }
  obs::Json rows = obs::Json::array();
  for (const FarmInstanceResult& r : report.instances) {
    obs::Json row = obs::Json::object();
    row["index"] = r.index;
    row["name"] = r.name;
    if (!r.error.empty()) {
      row["error"] = r.error;
      rows.push(std::move(row));
      continue;
    }
    row["cycles"] = r.cycles;
    row["stopped"] = r.stopped;
    row["exit_code"] = r.exitCode;
    row["seconds"] = r.seconds;
    row["effective_activity"] = r.effectiveActivity;
    row["stats"] = engineStatsJson(r.stats);
    rows.push(std::move(row));
  }
  j["instance_results"] = std::move(rows);
  return j;
}

std::vector<size_t> topHotPartitions(const ActivityProfile& prof, size_t n) {
  std::vector<size_t> order(prof.parts.size());
  for (size_t i = 0; i < order.size(); i++) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const PartitionProfile& pa = prof.parts[a];
    const PartitionProfile& pb = prof.parts[b];
    if (pa.opsEvaluated != pb.opsEvaluated) return pa.opsEvaluated > pb.opsEvaluated;
    if (pa.activations != pb.activations) return pa.activations > pb.activations;
    return a < b;
  });
  if (order.size() > n) order.resize(n);
  return order;
}

}  // namespace essent::core
