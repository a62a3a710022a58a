// The novel acyclic graph partitioner (paper §IV).
//
// Bootstraps from an MFFC decomposition, then greedily merges partitions in
// three phases (Figure 4):
//   A. merge single-parent partitions into their parents (always legal);
//   B. merge small partitions (< C_p nodes) with small siblings, prioritized
//      by the number of cut edges a merge eliminates;
//   C. merge remaining small partitions with any sibling, maximizing the
//      fraction of input signals in common.
// Sibling merges are validated with the external-path test (extending
// Herrmann et al.): partitions A and B may merge iff no path between them
// traverses a third partition, in either direction — otherwise the merge
// would create a cycle in the partition graph (Figure 2) and destroy the
// singular static schedule.
//
// C_p is the single, design-insensitive tuning parameter; the paper selects
// C_p = 8 (reproduced by bench_fig6_cp_sweep).
#pragma once

#include <cstdint>
#include <vector>

#include "core/netlist.h"
#include "graph/graph.h"

namespace essent::core {

struct PartitionOptions {
  // C_p: partitions smaller than this are "small" and get merged in
  // phases B/C. 0 disables both sibling phases (pure MFFC + phase A).
  uint32_t smallThreshold = 8;
  bool phaseSingleParent = true;
  bool phaseSmallSiblings = true;
  bool phaseAnySibling = true;
};

struct PartitionStats {
  size_t initialParts = 0;    // after MFFC decomposition
  size_t afterSingleParent = 0;
  size_t afterSmallSiblings = 0;
  size_t finalParts = 0;
  size_t mergesA = 0;
  size_t mergesB = 0;
  size_t mergesC = 0;
  size_t rejectedMerges = 0;  // failed the external-path test
  size_t smallRemaining = 0;  // partitions still below C_p at the end
  int64_t cutEdges = 0;       // node-level edges crossing partitions
};

struct Partitioning {
  std::vector<int32_t> partOf;                 // netlist node -> partition id
  std::vector<std::vector<int32_t>> members;   // partition -> member nodes
  graph::DiGraph partGraph;                    // acyclic partition graph
  std::vector<int32_t> schedule;               // topological order of partitions
  PartitionStats stats;

  size_t numPartitions() const { return members.size(); }
};

// Runs the full pipeline: MFFC decomposition + merge phases + condensation.
// The result's partGraph is guaranteed acyclic (validated internally;
// throws std::logic_error if the invariant is ever violated).
Partitioning partitionNetlist(const Netlist& nl, const PartitionOptions& opts = {});

// Degenerate partitionings used by benches/tests for comparison: one node
// per partition ("fine") and all nodes in one partition ("monolithic").
Partitioning finePartitioning(const Netlist& nl);
Partitioning monolithicPartitioning(const Netlist& nl);

}  // namespace essent::core
