#include "core/elision.h"

#include <algorithm>
#include <stdexcept>

namespace essent::core {

size_t ElisionResult::elidedRegCount() const {
  size_t n = 0;
  for (bool b : regElided) n += b;
  return n;
}

size_t ElisionResult::elidedMemWriteCount() const {
  size_t n = 0;
  for (const auto& m : memWriteElided)
    for (bool b : m) n += b;
  return n;
}

namespace {

// Exact topological order of the ordered partition graph, maintained
// incrementally while elision edges accumulate (Pearce/Kelly local
// reorder). The order turns every per-register reachability probe from a
// full descendant-cone DFS into a position-bounded one: a path from the
// writer partition to a reader can only pass through nodes at positions
// <= the highest reader position, and in the common elidable case (all
// readers scheduled before the writer) the probe is O(1). Without this,
// elision analysis is O(registers x partitions) — the dominant schedule
// phase cost at million-node scale.
class DynTopoOrder {
 public:
  explicit DynTopoOrder(const graph::DiGraph& g) {
    auto order = g.topoSort();
    if (!order) throw std::logic_error("elision: partition graph is cyclic");
    order_ = std::move(*order);
    pos_.resize(order_.size());
    for (size_t i = 0; i < order_.size(); i++)
      pos_[static_cast<size_t>(order_[i])] = static_cast<int32_t>(i);
    visitStamp_.assign(order_.size(), 0);
    targetStamp_.assign(order_.size(), 0);
  }

  // True when any node in `targets` is reachable from `from` in g. Exact:
  // in a valid topological order every node on a path to a target sits at
  // a position <= the maximum target position, so pruning beyond it never
  // cuts a real path.
  bool reachesAny(const graph::DiGraph& g, int32_t from,
                  const std::vector<int32_t>& targets) {
    if (targets.empty()) return false;
    int32_t maxPos = -1;
    tstamp_++;
    for (int32_t t : targets) {
      targetStamp_[static_cast<size_t>(t)] = tstamp_;
      maxPos = std::max(maxPos, pos_[static_cast<size_t>(t)]);
    }
    if (maxPos < pos_[static_cast<size_t>(from)]) return false;
    vstamp_++;
    stack_.clear();
    stack_.push_back(from);
    visitStamp_[static_cast<size_t>(from)] = vstamp_;
    while (!stack_.empty()) {
      int32_t v = stack_.back();
      stack_.pop_back();
      for (int32_t w : g.outNeighbors(v)) {
        if (targetStamp_[static_cast<size_t>(w)] == tstamp_) return true;
        if (pos_[static_cast<size_t>(w)] > maxPos) continue;
        if (visitStamp_[static_cast<size_t>(w)] == vstamp_) continue;
        visitStamp_[static_cast<size_t>(w)] = vstamp_;
        stack_.push_back(w);
      }
    }
    return false;
  }

  // Restores order validity after the edge x -> y was inserted into g.
  // When pos[x] > pos[y], the affected region is the position window
  // [pos[y], pos[x]]: the forward set F (reachable from y within the
  // window) slides after the backward set B (reaching x within the
  // window), each keeping its internal relative order, reusing exactly
  // the slots F and B already occupy. Nodes outside F and B never move;
  // F members only move later and B members only move earlier, which
  // keeps every edge with an untouched endpoint satisfied.
  void edgeAdded(const graph::DiGraph& g, int32_t x, int32_t y) {
    int32_t px = pos_[static_cast<size_t>(x)];
    int32_t py = pos_[static_cast<size_t>(y)];
    if (px < py) return;  // already consistent

    // Forward set from y, pruned at positions > px.
    vstamp_++;
    fwd_.clear();
    stack_.clear();
    visitStamp_[static_cast<size_t>(y)] = vstamp_;
    fwd_.push_back(y);
    stack_.push_back(y);
    while (!stack_.empty()) {
      int32_t v = stack_.back();
      stack_.pop_back();
      for (int32_t w : g.outNeighbors(v)) {
        if (pos_[static_cast<size_t>(w)] > px) continue;
        if (visitStamp_[static_cast<size_t>(w)] == vstamp_) continue;
        visitStamp_[static_cast<size_t>(w)] = vstamp_;
        fwd_.push_back(w);
        stack_.push_back(w);
      }
    }
    // Backward set from x, pruned at positions < py. A member also in the
    // forward set would mean y reaches x — a cycle through the new edge,
    // which the caller's reachability check has excluded.
    uint32_t fwdStamp = vstamp_;
    vstamp_++;
    bwd_.clear();
    stack_.clear();
    visitStamp_[static_cast<size_t>(x)] = vstamp_;
    bwd_.push_back(x);
    stack_.push_back(x);
    while (!stack_.empty()) {
      int32_t v = stack_.back();
      stack_.pop_back();
      for (int32_t w : g.inNeighbors(v)) {
        if (pos_[static_cast<size_t>(w)] < py) continue;
        if (visitStamp_[static_cast<size_t>(w)] == fwdStamp)
          throw std::logic_error("elision invariant violated: ordering edge closes a cycle");
        if (visitStamp_[static_cast<size_t>(w)] == vstamp_) continue;
        visitStamp_[static_cast<size_t>(w)] = vstamp_;
        bwd_.push_back(w);
        stack_.push_back(w);
      }
    }

    auto byPos = [&](int32_t a, int32_t b) {
      return pos_[static_cast<size_t>(a)] < pos_[static_cast<size_t>(b)];
    };
    std::sort(fwd_.begin(), fwd_.end(), byPos);
    std::sort(bwd_.begin(), bwd_.end(), byPos);
    slots_.clear();
    for (int32_t v : bwd_) slots_.push_back(pos_[static_cast<size_t>(v)]);
    for (int32_t v : fwd_) slots_.push_back(pos_[static_cast<size_t>(v)]);
    std::sort(slots_.begin(), slots_.end());
    size_t k = 0;
    auto place = [&](int32_t v) {
      int32_t slot = slots_[k++];
      order_[static_cast<size_t>(slot)] = v;
      pos_[static_cast<size_t>(v)] = slot;
    };
    for (int32_t v : bwd_) place(v);
    for (int32_t v : fwd_) place(v);
  }

 private:
  std::vector<int32_t> order_, pos_;
  std::vector<uint32_t> visitStamp_, targetStamp_;
  uint32_t vstamp_ = 0, tstamp_ = 0;
  std::vector<int32_t> stack_, fwd_, bwd_, slots_;
};

}  // namespace

ElisionResult analyzeElision(const Netlist& nl, const Partitioning& parts, bool enable) {
  const sim::SimIR& ir = *nl.ir;
  ElisionResult res;
  res.regElided.assign(ir.regs.size(), false);
  res.memWriteElided.resize(ir.mems.size());
  for (size_t m = 0; m < ir.mems.size(); m++)
    res.memWriteElided[m].assign(ir.mems[m].writers.size(), false);

  // Work on a copy so ordering edges accumulate.
  res.orderedPartGraph = parts.partGraph;
  graph::DiGraph& g = res.orderedPartGraph;

  DynTopoOrder topo(g);
  std::vector<int32_t> readerParts;
  std::vector<uint32_t> partStamp(static_cast<size_t>(parts.numPartitions()), 0);
  uint32_t rstamp = 0;

  auto tryElide = [&](int32_t writerNode, const std::vector<int32_t>& readerNodes) -> bool {
    if (!enable) return false;
    int32_t wp = parts.partOf[static_cast<size_t>(writerNode)];
    readerParts.clear();
    rstamp++;
    for (int32_t rn : readerNodes) {
      int32_t rp = parts.partOf[static_cast<size_t>(rn)];
      if (rp != wp && partStamp[static_cast<size_t>(rp)] != rstamp) {
        partStamp[static_cast<size_t>(rp)] = rstamp;
        readerParts.push_back(rp);
      }
    }
    // A path writer ->* reader means some reader consumes values the writer
    // partition produces this cycle, so the reader cannot be forced before
    // the writer: in-place update would clobber the old value it must read.
    if (topo.reachesAny(g, wp, readerParts)) return false;
    for (int32_t rp : readerParts)
      if (g.addEdge(rp, wp)) topo.edgeAdded(g, rp, wp);
    return true;
  };

  for (size_t r = 0; r < ir.regs.size(); r++)
    res.regElided[r] = tryElide(nl.nodeOfRegWrite[r], nl.regReaders[r]);

  // Multi-port memories stay deferred (see elision.h).
  for (size_t m = 0; m < ir.mems.size(); m++)
    if (ir.mems[m].writers.size() == 1)
      res.memWriteElided[m][0] = tryElide(nl.nodeOfMemWrite[m][0], nl.memReaders[m]);

  auto order = g.topoSort();
  if (!order)
    throw std::logic_error("elision invariant violated: ordering edges created a cycle");
  res.schedule = std::move(*order);
  return res;
}

}  // namespace essent::core
