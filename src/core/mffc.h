// Maximum fanout-free cone (MFFC) decomposition (paper §IV, Figure 3).
//
// The MFFC of a node v is the largest set of ancestors of v such that every
// descendant of a member is either inside the cone or is v itself. MFFCs
// are the bootstrap partitions of the acyclic partitioner: any value
// computed inside an MFFC is visible only within it and at its root, which
// guarantees the decomposition is acyclic (Cong et al., DAC'94).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace essent::core {

// Decomposes `g` into MFFCs, crawling upward from the sink nodes (per the
// paper, sinks are typically state-element writes or external outputs).
// Returns the partition id of every node; ids are dense [0, numParts).
// When `coneOrder` is given it receives every node grouped by cone in id
// order; within a cone the root comes first and every member comes after
// all of its consumers (the order the cone grew in).
std::vector<int32_t> mffcDecompose(const graph::DiGraph& g, int32_t* numParts,
                                   std::vector<graph::NodeId>* coneOrder = nullptr);

// The MFFC rooted at a single node (for tests / inspection): all ancestors
// whose every fanout path leads back into the cone.
std::vector<graph::NodeId> mffcOf(const graph::DiGraph& g, graph::NodeId root);

}  // namespace essent::core
