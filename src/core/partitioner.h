// The novel acyclic graph partitioner (paper §IV).
//
// Bootstraps from an MFFC decomposition (step 1), cuts oversized cones
// (step 1b, below), then greedily merges partitions in three phases
// (Figure 4):
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
//
// Step 1b deviates from the paper. An MFFC can be thousands of nodes: a
// status word that XORs every accelerator's result pulls every idle
// accelerator's reduction tree into one cone, and that cone then re-runs
// whenever any one input changes. So every cone of at least 16 nodes is cut
// at its independent sub-cones: a non-root node whose own fanout-free
// sub-cone has at least 8 nodes (C_p's paper value, but fixed) and reads
// nothing else in the cone becomes the root of a partition of its own,
// bottom-up. The pieces feed only their ancestors in the cone, so the
// partition graph stays acyclic. The step is linear in the cone's edges and
// has no option; C_p = 0 still cuts.
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
  size_t conesCut = 0;        // sub-cones split off oversized cones (step 1b)
  size_t afterCut = 0;        // initialParts + conesCut
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

// Runs the full pipeline: MFFC decomposition + oversized-cone cut + merge
// phases + condensation.
// The result's partGraph is guaranteed acyclic (validated internally;
// throws std::logic_error if the invariant is ever violated).
Partitioning partitionNetlist(const Netlist& nl, const PartitionOptions& opts = {});

// Degenerate partitionings used by benches/tests for comparison: one node
// per partition ("fine") and all nodes in one partition ("monolithic").
Partitioning finePartitioning(const Netlist& nl);
Partitioning monolithicPartitioning(const Netlist& nl);

}  // namespace essent::core
