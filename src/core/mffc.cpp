#include "core/mffc.h"

#include <stdexcept>

namespace essent::core {

using graph::DiGraph;
using graph::NodeId;

namespace {

// Grows the fanout-free cone of `root` over nodes for which `eligible`
// returns true: a predecessor joins when all of its consumers are already
// members. `inCone` is a scratch marker the caller provides (values reset
// on exit).
template <typename Eligible>
std::vector<NodeId> growCone(const DiGraph& g, NodeId root, std::vector<bool>& inCone,
                             const Eligible& eligible) {
  std::vector<NodeId> members = {root};
  inCone[root] = true;
  // Classic worklist: whenever a node joins, its predecessors become
  // candidates; a candidate joins iff all its out-neighbors are members.
  std::vector<NodeId> frontier = {root};
  while (!frontier.empty()) {
    NodeId v = frontier.back();
    frontier.pop_back();
    for (NodeId p : g.inNeighbors(v)) {
      if (inCone[p] || !eligible(p)) continue;
      bool allInside = true;
      for (NodeId c : g.outNeighbors(p)) {
        if (!inCone[c]) {
          allInside = false;
          break;
        }
      }
      if (allInside) {
        inCone[p] = true;
        members.push_back(p);
        frontier.push_back(p);
      }
    }
  }
  for (NodeId m : members) inCone[m] = false;
  return members;
}

}  // namespace

std::vector<NodeId> mffcOf(const DiGraph& g, NodeId root) {
  std::vector<bool> scratch(static_cast<size_t>(g.numNodes()), false);
  return growCone(g, root, scratch, [](NodeId) { return true; });
}

std::vector<int32_t> mffcDecompose(const DiGraph& g, int32_t* numParts,
                                   std::vector<NodeId>* coneOrder) {
  NodeId n = g.numNodes();
  std::vector<int32_t> partOf(static_cast<size_t>(n), -1);
  std::vector<bool> scratch(static_cast<size_t>(n), false);
  int32_t next = 0;
  if (coneOrder) {
    coneOrder->clear();
    coneOrder->reserve(static_cast<size_t>(n));
  }

  auto order = g.topoSort();
  if (!order) throw std::logic_error("mffcDecompose requires an acyclic graph");

  // Process in reverse topological order so sinks seed cones first; every
  // still-unassigned node becomes the root of its own MFFC (restricted to
  // unassigned nodes, which preserves maximality: an assigned consumer means
  // the candidate has fanout escaping the cone).
  for (size_t idx = order->size(); idx-- > 0;) {
    NodeId v = (*order)[idx];
    if (partOf[static_cast<size_t>(v)] != -1) continue;
    auto members = growCone(g, v, scratch,
                            [&](NodeId u) { return partOf[static_cast<size_t>(u)] == -1; });
    for (NodeId m : members) partOf[static_cast<size_t>(m)] = next;
    if (coneOrder) coneOrder->insert(coneOrder->end(), members.begin(), members.end());
    next++;
  }
  if (numParts) *numParts = next;
  return partOf;
}

}  // namespace essent::core
