// State-element update elision (paper §III-B1).
//
// Registers (and memories) are initially split into a source (current value)
// and a sink (update action). The second storage location and copy can be
// eliminated — the update applied in place, inside its conditionally
// executed partition — iff every partition that reads the state element can
// be scheduled before the partition that writes it. At the partition level
// that is exactly: no directed path from the writer partition to any reader
// partition; ordering edges reader -> writer are then added to pin the
// schedule. Elided state elements wake their consumers immediately on
// change (safe because all readers already ran this cycle; the flags
// persist into the next cycle), including a self-wakeup for feedback.
//
// Elisions are processed greedily against the graph *including previously
// added ordering edges*, because two individually-safe elisions can be
// jointly cyclic.
//
// Only a memory's sole write port is elided. A memory with several write
// ports commits all of them in the global second phase, in port order, so
// a same-cycle write of one row resolves as in the full-cycle reference.
#pragma once

#include <vector>

#include "core/netlist.h"
#include "core/partitioner.h"

namespace essent::core {

struct ElisionResult {
  // Per register index: update applied in place inside its partition.
  std::vector<bool> regElided;
  // Per mem index, per writer index.
  std::vector<std::vector<bool>> memWriteElided;
  // Partition graph augmented with the ordering edges (still acyclic).
  graph::DiGraph orderedPartGraph;
  // Final topological schedule honoring the ordering edges.
  std::vector<int32_t> schedule;

  size_t elidedRegCount() const;
  size_t elidedMemWriteCount() const;
};

// `enable` false yields the no-elision result (every state element updates
// in a global second phase) for the ablation bench.
ElisionResult analyzeElision(const Netlist& nl, const Partitioning& parts, bool enable = true);

}  // namespace essent::core
