// JSON export of the simulator's observability data: design summaries,
// partitioner statistics, engine work counters, and ActivityEngine runtime
// profiles. The hot-path structs (sim::EngineStats, core::ActivityProfile)
// stay plain-old-data; this is the one place that knows how they map onto
// the machine-readable report schema (documented in docs/OBSERVABILITY.md).
#pragma once

#include <cstddef>
#include <vector>

#include "core/activity_engine.h"
#include "core/partitioner.h"
#include "core/placement.h"
#include "core/schedule.h"
#include "core/sim_farm.h"
#include "obs/json.h"
#include "sim/sim_ir.h"

namespace essent::core {

// Static design shape: op/register/memory/port counts.
obs::Json designSummaryJson(const sim::SimIR& ir);

// Compile-time partitioner statistics (essentc --stats as JSON).
obs::Json partitionStatsJson(const PartitionStats& stats);

// Schedule summary: partition count, elision counts, output count, plus a
// partition-size histogram.
obs::Json scheduleSummaryJson(const CondPartSchedule& sched);

// Static BSP placement shape (the `placement` section of --stats-json):
// thread width, super-step count, cut-edge fraction, and per-thread load
// balance.
obs::Json placementReportJson(const BspPlacement& placement);

// Runtime work counters, keyed by Figure 7's decomposition: base work
// (ops_evaluated), static overhead (partition_checks), dynamic overhead
// (output_comparisons, trigger_sets).
obs::Json engineStatsJson(const sim::EngineStats& stats);

// Full runtime profile of one ActivityEngine run: engine stats, effective
// activity, per-partition counters (with op counts from the schedule), and
// the cycle-window activation timeline. Requires profiling to have been
// enabled on the engine.
obs::Json activityProfileJson(const ActivityEngine& engine);

// Partition indices ordered hottest-first by profiled ops evaluated
// (ties: more activations first, then lower index), truncated to n.
std::vector<size_t> topHotPartitions(const ActivityProfile& prof, size_t n);

// Aggregate + per-instance report of one SimFarm batch (the `farm` section
// of essentc --batch --stats-json; fields in docs/OBSERVABILITY.md).
obs::Json farmReportJson(const FarmReport& report);

}  // namespace essent::core
