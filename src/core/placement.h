// Static bulk-synchronous partition placement (Manticore-style, PAPERS.md).
//
// Assigns every schedule position to a worker thread once, at compile time
// (load-balanced by estimated or profiled cost, with dependency chains kept
// on one thread so cut edges are minimized), then groups the positions into
// the fewest BSP *super-steps* the assignment admits: a dependency edge that
// stays on one thread costs nothing (local program order covers it), only a
// cross-thread edge forces a barrier between its endpoints.
//
// placementEdges() is the one statement of cross-partition ordering; the
// engine's race-freedom rests on it plus this execution contract (enforced
// by the engine, verified by tests/test_placement):
//   * within a super-step each thread runs its assigned positions in
//     ascending schedule order (a valid topological order);
//   * a barrier separates consecutive super-steps;
//   * therefore for every edge u -> v of placementEdges():
//       - thread(u) != thread(v)  =>  step(u) <  step(v)   (barrier between)
//       - thread(u) == thread(v)  =>  step(u) <= step(v)   (local order)
// So every partition runs after everything it depends on, in an order
// indistinguishable from serial, and the placed engine's EngineStats equal
// the serial engine's.
#pragma once

#include <cstdint>
#include <vector>

#include "core/schedule.h"

namespace essent::core {

struct PlacementOptions {
  // Worker threads to place onto; clamped to [1, numPartitions]. The
  // placement guarantees every returned thread has at least one partition
  // (its `threads` field is the *useful* width — callers clamp pools to it).
  unsigned threads = 1;
  // Optional per-schedule-position cost estimate (e.g. profiled
  // activations x ops). Empty = static estimate (op count).
  std::vector<uint64_t> partCost;
};

// One BSP super-step: per-thread run lists (schedule positions, ascending).
struct SuperStep {
  std::vector<std::vector<int32_t>> runs;  // [thread] -> positions
};

struct BspPlacement {
  unsigned threads = 1;               // useful width (every thread nonempty)
  std::vector<int32_t> threadOf;      // schedule position -> thread
  std::vector<int32_t> stepOf;        // schedule position -> super-step
  std::vector<SuperStep> steps;

  // Reporting (exported by core::placementReportJson).
  size_t totalEdges = 0;              // dependency edges considered
  size_t crossEdges = 0;              // edges crossing threads
  uint64_t totalCost = 0;
  std::vector<uint64_t> threadCost;   // per-thread summed cost
  double loadImbalance = 1.0;         // max(threadCost) / mean(threadCost)

  size_t numSteps() const { return steps.size(); }
};

// Places `sched` onto opts.threads workers. Deterministic: same schedule and
// options yield the same placement on every call (no RNG, no timing).
BspPlacement buildPlacement(const CondPartSchedule& sched, const PlacementOptions& opts);

// The dependency edges the placement must respect, as (from, to) schedule
// positions, sorted and deduplicated. Two families:
//   * combinational: a partition output -> each partition consuming it;
//   * elision ordering: each cross-partition reader of an elided register
//     or memory -> the partition writing it in place (the reader must see
//     the old value).
// A memory with several write ports is never elided, so no two partitions
// commit to one memory.
// Every edge runs forward in the schedule (u < v). Exposed so tests and
// tools can verify the super-step contract against the real edge set.
std::vector<std::pair<int32_t, int32_t>> placementEdges(const CondPartSchedule& sched);

}  // namespace essent::core
