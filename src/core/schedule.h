// Conditional, Coarsened, Singular, Static (CCSS) schedule (paper §III).
//
// Joins the partitioning, the elision analysis, and the SimIR into the flat
// data structure the activity engine executes: partitions in final
// topological order, each with its op list, its externally consumed outputs
// (with consumer partition lists for push-direction triggering), and its
// in-place state-element updates; plus the global second phase for
// non-elided state elements and the input-change trigger table.
#pragma once

#include <cstdint>
#include <vector>

#include "core/elision.h"
#include "core/netlist.h"
#include "core/partitioner.h"

namespace essent::core {

struct PartOutput {
  int32_t sig = -1;
  std::vector<int32_t> consumers;  // schedule-order partition indices to wake
};

struct SchedRegWrite {
  int32_t regIdx = -1;
  std::vector<int32_t> wakeParts;  // partitions reading the register
};

struct SchedMemWrite {
  int32_t memIdx = -1;
  int32_t writerIdx = -1;
  std::vector<int32_t> wakeParts;  // partitions containing reads of the mem
};

struct CondPart {
  std::vector<int32_t> ops;  // global op indices, ascending (valid topo order)
  std::vector<PartOutput> outputs;
  std::vector<SchedRegWrite> regWrites;  // elided, applied at partition end
  std::vector<SchedMemWrite> memWrites;  // elided
};

struct CondPartSchedule {
  // Partitions in execution order (the singular static schedule).
  std::vector<CondPart> parts;
  // Per input signal (parallel to ir.inputs): partitions to wake on change.
  std::vector<std::vector<int32_t>> inputConsumers;
  // Phase 2: state elements whose update could not be elided.
  std::vector<SchedRegWrite> deferredRegs;
  std::vector<SchedMemWrite> deferredMemWrites;

  // Reporting.
  size_t elidedRegs = 0;
  size_t elidedMemWrites = 0;
  size_t totalOutputs = 0;
  PartitionStats partitionStats;

  size_t numPartitions() const { return parts.size(); }
};

struct ScheduleOptions {
  PartitionOptions partition;
  bool stateElision = true;  // paper §III-B1; off for the ablation bench
};

CondPartSchedule buildSchedule(const Netlist& nl, const ScheduleOptions& opts = {});

// Builds from an existing partitioning (used by benches that sweep C_p and
// by the degenerate fine/monolithic configurations).
CondPartSchedule buildScheduleFrom(const Netlist& nl, const Partitioning& parts,
                                   bool stateElision = true);

}  // namespace essent::core
