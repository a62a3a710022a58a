#include "core/partitioner.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "core/mffc.h"
#include "obs/phase_timer.h"

namespace essent::core {
namespace {

// Fixpoint bound for the sibling phases (B and C).
constexpr uint32_t kMaxSiblingPasses = 8;

// Step 1b sizes, in netlist nodes: the paper's C_p (8) as the smallest
// sub-cone worth its own partition, and twice that as the smallest cone
// worth cutting. Fixed rather than tied to PartitionOptions::smallThreshold
// so C_p keeps its paper meaning as the merge floor (C_p = 0 still cuts).
constexpr uint32_t kMinCutSubcone = 8;
constexpr uint32_t kMinCutCone = 2 * kMinCutSubcone;
// Steps an LCA walk may take per node while building a cone's
// post-dominator tree. A node whose walk runs out hangs off the cone's root
// instead, which can only make the step cut less; the bound keeps the step
// linear in the cone's edges.
constexpr uint32_t kMaxLcaSteps = 64;

// Step 1b: cuts oversized MFFCs at independent sub-cones. Each cone of at
// least kMinCutCone nodes gets its post-dominator tree (parent = the lowest
// member every path to the root passes through), so a member's subtree is
// its own fanout-free sub-cone. Walking the tree bottom-up, a non-root
// member u becomes the root of a new partition when what is left of its
// subtree has at least kMinCutSubcone nodes and no node of the subtree
// reads a cone node outside it. Edges between the pieces then only run
// from a subtree to an ancestor's piece, and only the cone's root feeds
// other partitions, so the partition graph stays acyclic.
//
// `coneOrder` is mffcDecompose's: cones in id order, each root first and
// every member after all of its consumers. Returns the sub-cones split off;
// the new partitions get ids from numParts upward.
size_t cutOversizedCones(const graph::DiGraph& g, const std::vector<graph::NodeId>& coneOrder,
                         std::vector<int32_t>& partOf, int32_t& numParts) {
  size_t cuts = 0;
  std::vector<int32_t> local(partOf.size(), -1);  // node -> index in its cone
  std::vector<int32_t> parent, size, pre, nextSlot, remaining, lo, hi;
  std::vector<uint8_t> cut;
  for (size_t begin = 0, end = 0; begin < coneOrder.size(); begin = end) {
    const int32_t cone = partOf[static_cast<size_t>(coneOrder[begin])];
    end = begin + 1;
    while (end < coneOrder.size() && partOf[static_cast<size_t>(coneOrder[end])] == cone) end++;
    const int32_t k = static_cast<int32_t>(end - begin);
    if (k < static_cast<int32_t>(kMinCutCone)) continue;
    auto node = [&](int32_t i) { return coneOrder[begin + static_cast<size_t>(i)]; };
    for (int32_t i = 0; i < k; i++) local[static_cast<size_t>(node(i))] = i;

    // Post-dominator tree. Every consumer of member i comes before i, so a
    // parent's index is below its children's and an LCA walk can always
    // step the larger index up.
    parent.assign(static_cast<size_t>(k), 0);
    for (int32_t i = 1; i < k; i++) {
      int32_t lca = -1;
      uint32_t steps = 0;
      for (graph::NodeId c : g.outNeighbors(node(i))) {
        int32_t j = local[static_cast<size_t>(c)];
        if (lca < 0) {
          lca = j;
          continue;
        }
        while (lca != j && steps <= kMaxLcaSteps) {
          if (lca > j) lca = parent[static_cast<size_t>(lca)];
          else j = parent[static_cast<size_t>(j)];
          steps++;
        }
        if (steps > kMaxLcaSteps) {
          lca = 0;
          break;
        }
      }
      parent[static_cast<size_t>(i)] = lca;
    }

    // Number the tree so every subtree is the interval [pre, pre + size).
    size.assign(static_cast<size_t>(k), 1);
    for (int32_t i = k - 1; i > 0; i--)
      size[static_cast<size_t>(parent[static_cast<size_t>(i)])] += size[static_cast<size_t>(i)];
    pre.assign(static_cast<size_t>(k), 0);
    nextSlot.assign(static_cast<size_t>(k), 1);
    for (int32_t i = 1; i < k; i++) {
      int32_t p = parent[static_cast<size_t>(i)];
      pre[static_cast<size_t>(i)] = nextSlot[static_cast<size_t>(p)];
      nextSlot[static_cast<size_t>(p)] += size[static_cast<size_t>(i)];
      nextSlot[static_cast<size_t>(i)] = pre[static_cast<size_t>(i)] + 1;
    }

    // Bottom-up: `remaining` counts the subtree minus the pieces already
    // cut below; lo/hi bound the tree numbers of the cone nodes it reads.
    remaining.assign(static_cast<size_t>(k), 1);
    lo.assign(static_cast<size_t>(k), k);
    hi.assign(static_cast<size_t>(k), -1);
    cut.assign(static_cast<size_t>(k), 0);
    for (int32_t i = k - 1; i > 0; i--) {
      const size_t ui = static_cast<size_t>(i);
      for (graph::NodeId w : g.inNeighbors(node(i))) {
        if (partOf[static_cast<size_t>(w)] != cone) continue;
        int32_t pw = pre[static_cast<size_t>(local[static_cast<size_t>(w)])];
        lo[ui] = std::min(lo[ui], pw);
        hi[ui] = std::max(hi[ui], pw);
      }
      bool independent = lo[ui] >= pre[ui] && hi[ui] < pre[ui] + size[ui];
      if (remaining[ui] >= static_cast<int32_t>(kMinCutSubcone) && independent) {
        cut[ui] = 1;
        continue;
      }
      const size_t up = static_cast<size_t>(parent[ui]);
      remaining[up] += remaining[ui];
      lo[up] = std::min(lo[up], lo[ui]);
      hi[up] = std::max(hi[up], hi[ui]);
    }

    // Parents come first, so each node's parent already has its piece.
    for (int32_t i = 1; i < k; i++) {
      const size_t ui = static_cast<size_t>(i);
      int32_t& part = partOf[static_cast<size_t>(node(i))];
      if (cut[ui]) {
        part = numParts++;
        cuts++;
      } else {
        part = partOf[static_cast<size_t>(node(parent[ui]))];
      }
    }
  }
  return cuts;
}

// Incremental partition merger.
//
// Maintains the contracted partition graph (with edge multiplicities),
// per-partition input-signal sets, and — crucially — an exact topological
// order of the live partitions, updated on every merge with a
// Pearce/Kelly-style local reorder. The exact order makes the external-path
// legality test both cheap and one-directional: with pos[A] < pos[B] no
// path B ->* A can exist, and any path A ->* B stays strictly inside the
// position window (pos[A], pos[B]), so the search is a window-bounded BFS.
// The nodes that BFS discovers are exactly the ones that must slide after
// the merged partition to keep the order valid.
class Merger {
 public:
  Merger(const Netlist& nl, std::vector<int32_t> partOf, int32_t numParts)
      : nl_(nl), partOf_(std::move(partOf)) {
    members_.resize(static_cast<size_t>(numParts));
    for (size_t n = 0; n < partOf_.size(); n++)
      members_[static_cast<size_t>(partOf_[n])].push_back(static_cast<int32_t>(n));
    alive_.assign(static_cast<size_t>(numParts), true);
    out_.resize(static_cast<size_t>(numParts));
    in_.resize(static_cast<size_t>(numParts));
    for (graph::NodeId v = 0; v < nl.g.numNodes(); v++) {
      for (graph::NodeId w : nl.g.outNeighbors(v)) {
        int32_t pv = partOf_[static_cast<size_t>(v)], pw = partOf_[static_cast<size_t>(w)];
        if (pv != pw) {
          out_[static_cast<size_t>(pv)][pw]++;
          in_[static_cast<size_t>(pw)][pv]++;
        }
      }
    }
    inputSigs_.resize(static_cast<size_t>(numParts));
    for (size_t n = 0; n < partOf_.size(); n++) {
      int32_t p = partOf_[n];
      for (int32_t sig : nl.nodeReads[n]) {
        int32_t prod = producerPart(sig);
        if (prod != p) inputSigs_[static_cast<size_t>(p)].insert(sig);
      }
    }
    initTopoOrder(numParts);
    visitStamp_.assign(static_cast<size_t>(numParts), 0);
  }

  int32_t producerPart(int32_t sig) const {
    int32_t node = nl_.producerOf[static_cast<size_t>(sig)];
    return node < 0 ? -1 : partOf_[static_cast<size_t>(node)];
  }

  bool alive(int32_t p) const { return alive_[static_cast<size_t>(p)]; }
  size_t size(int32_t p) const { return members_[static_cast<size_t>(p)].size(); }
  const std::unordered_map<int32_t, int32_t>& outNbrs(int32_t p) const {
    return out_[static_cast<size_t>(p)];
  }
  const std::unordered_map<int32_t, int32_t>& inNbrs(int32_t p) const {
    return in_[static_cast<size_t>(p)];
  }
  const std::unordered_set<int32_t>& inputs(int32_t p) const {
    return inputSigs_[static_cast<size_t>(p)];
  }
  size_t numAlive() const {
    size_t n = 0;
    for (bool a : alive_) n += a;
    return n;
  }
  std::vector<int32_t> alivePartitions() const {
    std::vector<int32_t> out;
    for (int32_t p : order_)
      if (p >= 0 && alive_[static_cast<size_t>(p)]) out.push_back(p);
    return out;
  }

  // Merges a and b if legal (no external path between them); returns false
  // when the merge would create a cycle. On success the surviving partition
  // is `a` (by id) regardless of order.
  bool tryMerge(int32_t a, int32_t b) {
    if (a == b || !alive(a) || !alive(b)) return false;
    int32_t low = pos_[static_cast<size_t>(a)] < pos_[static_cast<size_t>(b)] ? a : b;
    int32_t high = low == a ? b : a;
    int32_t hiPos = pos_[static_cast<size_t>(high)];
    int32_t loPos = pos_[static_cast<size_t>(low)];
    // Backward probe first: when every in-neighbor of high is either low
    // itself or sits before low, nothing inside the window reaches high, so
    // no external path low ->* C -> high can exist and the merged partition
    // can simply take low's slot — no forward sweep, no window slide. This
    // is every phase-A merge (the child has a single in-neighbor) and most
    // sibling merges, and turns them O(in-degree) instead of O(window).
    bool highOnlyFedFromBeforeLow = true;
    for (const auto& [pred, cnt] : in_[static_cast<size_t>(high)]) {
      (void)cnt;
      if (pred != low && pos_[static_cast<size_t>(pred)] > loPos) {
        highOnlyFedFromBeforeLow = false;
        break;
      }
    }
    if (highOnlyFedFromBeforeLow) {
      contract(a, b);
      order_[static_cast<size_t>(loPos)] = a;
      pos_[static_cast<size_t>(a)] = loPos;
      order_[static_cast<size_t>(hiPos)] = -1;  // hole
      return true;
    }
    // Window-bounded BFS from low. Any discovered intermediate with an edge
    // into high is an external path (the direct low->high edge is fine).
    stamp_++;
    std::vector<int32_t> forward;  // visited, excluding low, in BFS order
    std::vector<int32_t> stack;
    visitStamp_[static_cast<size_t>(low)] = stamp_;
    stack.push_back(low);
    while (!stack.empty()) {
      int32_t v = stack.back();
      stack.pop_back();
      for (const auto& [succ, cnt] : out_[static_cast<size_t>(v)]) {
        (void)cnt;
        if (succ == high) {
          if (v != low) return false;  // external path
          continue;
        }
        if (pos_[static_cast<size_t>(succ)] > hiPos) continue;  // exact pruning
        if (visitStamp_[static_cast<size_t>(succ)] == stamp_) continue;
        visitStamp_[static_cast<size_t>(succ)] = stamp_;
        forward.push_back(succ);
        stack.push_back(succ);
      }
    }
    mergeInternal(a, b, low, high, forward);
    return true;
  }

  // Finalizes into a compact Partitioning.
  Partitioning finalize() const {
    Partitioning out;
    std::vector<int32_t> compact(alive_.size(), -1);
    // Compact ids in topological order so downstream consumers get a
    // schedule-friendly numbering.
    for (int32_t p : order_) {
      if (p < 0 || !alive_[static_cast<size_t>(p)]) continue;
      compact[static_cast<size_t>(p)] = static_cast<int32_t>(out.members.size());
      out.members.push_back(members_[static_cast<size_t>(p)]);
    }
    out.partOf.resize(partOf_.size());
    for (size_t n = 0; n < partOf_.size(); n++)
      out.partOf[n] = compact[static_cast<size_t>(partOf_[n])];
    out.partGraph =
        graph::condense(nl_.g, out.partOf, static_cast<int32_t>(out.members.size()));
    auto order = out.partGraph.topoSort();
    if (!order)
      throw std::logic_error("partitioner invariant violated: partition graph is cyclic");
    out.schedule = std::move(*order);
    return out;
  }

  int64_t countCutEdges() const {
    int64_t cut = 0;
    for (graph::NodeId v = 0; v < nl_.g.numNodes(); v++)
      for (graph::NodeId w : nl_.g.outNeighbors(v))
        if (partOf_[static_cast<size_t>(v)] != partOf_[static_cast<size_t>(w)]) cut++;
    return cut;
  }

 private:
  const Netlist& nl_;
  std::vector<int32_t> partOf_;
  std::vector<std::vector<int32_t>> members_;
  std::vector<bool> alive_;
  std::vector<std::unordered_map<int32_t, int32_t>> out_, in_;
  std::vector<std::unordered_set<int32_t>> inputSigs_;
  // Exact topological order: order_[i] is the partition at position i (or -1
  // for a hole left by a merge); pos_ is its inverse.
  std::vector<int32_t> order_;
  std::vector<int32_t> pos_;
  std::vector<uint32_t> visitStamp_;
  uint32_t stamp_ = 0;

  void initTopoOrder(int32_t numParts) {
    pos_.assign(static_cast<size_t>(numParts), 0);
    order_.clear();
    order_.reserve(static_cast<size_t>(numParts));
    std::vector<int32_t> indeg(static_cast<size_t>(numParts), 0);
    for (int32_t p = 0; p < numParts; p++)
      indeg[static_cast<size_t>(p)] = static_cast<int32_t>(in_[static_cast<size_t>(p)].size());
    std::vector<int32_t> ready;
    for (int32_t p = 0; p < numParts; p++)
      if (indeg[static_cast<size_t>(p)] == 0) ready.push_back(p);
    while (!ready.empty()) {
      int32_t v = ready.back();
      ready.pop_back();
      pos_[static_cast<size_t>(v)] = static_cast<int32_t>(order_.size());
      order_.push_back(v);
      for (const auto& [w, cnt] : out_[static_cast<size_t>(v)]) {
        (void)cnt;
        if (--indeg[static_cast<size_t>(w)] == 0) ready.push_back(w);
      }
    }
    if (order_.size() != static_cast<size_t>(numParts))
      throw std::logic_error("initial partitioning is cyclic");
  }

  // Contracts b into a: members, contracted-graph edges, input-signal sets,
  // liveness. Does NOT touch the topological order — callers handle that.
  void contract(int32_t a, int32_t b) {
    auto& ma = members_[static_cast<size_t>(a)];
    auto& mb = members_[static_cast<size_t>(b)];
    for (int32_t n : mb) partOf_[static_cast<size_t>(n)] = a;
    ma.insert(ma.end(), mb.begin(), mb.end());
    mb.clear();
    mb.shrink_to_fit();

    auto relink = [&](std::vector<std::unordered_map<int32_t, int32_t>>& fwd,
                      std::vector<std::unordered_map<int32_t, int32_t>>& rev) {
      for (const auto& [nbr, cnt] : fwd[static_cast<size_t>(b)]) {
        rev[static_cast<size_t>(nbr)].erase(b);
        if (nbr == a) continue;
        fwd[static_cast<size_t>(a)][nbr] += cnt;
        rev[static_cast<size_t>(nbr)][a] += cnt;
      }
      fwd[static_cast<size_t>(b)].clear();
    };
    out_[static_cast<size_t>(a)].erase(b);
    in_[static_cast<size_t>(a)].erase(b);
    out_[static_cast<size_t>(b)].erase(a);
    in_[static_cast<size_t>(b)].erase(a);
    relink(out_, in_);
    relink(in_, out_);

    auto& ia = inputSigs_[static_cast<size_t>(a)];
    auto& ib = inputSigs_[static_cast<size_t>(b)];
    ia.insert(ib.begin(), ib.end());
    ib.clear();
    for (auto it = ia.begin(); it != ia.end();) {
      if (producerPart(*it) == a) it = ia.erase(it);
      else ++it;
    }
    alive_[static_cast<size_t>(b)] = false;
  }

  // Contracts b into a, placing the merged partition at high's position and
  // sliding `forward` (everything reachable from low inside the window)
  // directly after it. See the class comment for the validity argument.
  void mergeInternal(int32_t a, int32_t b, int32_t low, int32_t high,
                     const std::vector<int32_t>& forward) {
    contract(a, b);

    // --- order maintenance ---
    int32_t loPos = pos_[static_cast<size_t>(low)];
    int32_t hiPos = pos_[static_cast<size_t>(high)];
    // Partition the window [loPos, hiPos] into: untouched entries (keep
    // relative order), then the merged partition, then the forward set
    // (keep relative order), then one hole for the consumed slot.
    stamp_++;
    for (int32_t f : forward) visitStamp_[static_cast<size_t>(f)] = stamp_;
    std::vector<int32_t> untouched, movedForward;
    for (int32_t i = loPos; i <= hiPos; i++) {
      int32_t p = order_[static_cast<size_t>(i)];
      if (p < 0 || p == low || p == high) continue;
      if (visitStamp_[static_cast<size_t>(p)] == stamp_) movedForward.push_back(p);
      else untouched.push_back(p);
    }
    int32_t idx = loPos;
    auto place = [&](int32_t p) {
      order_[static_cast<size_t>(idx)] = p;
      if (p >= 0) pos_[static_cast<size_t>(p)] = idx;
      idx++;
    };
    for (int32_t p : untouched) place(p);
    place(a);  // merged partition sits at (what becomes) high's slot region
    for (int32_t p : movedForward) place(p);
    while (idx <= hiPos) place(-1);  // holes
  }
};

}  // namespace

Partitioning partitionNetlist(const Netlist& nl, const PartitionOptions& opts) {
  PartitionStats stats;

  int32_t numParts = 0;
  std::vector<int32_t> initial;
  std::vector<graph::NodeId> coneOrder;
  {
    obs::ScopedPhaseTimer phaseTimer("mffc");
    initial = mffcDecompose(nl.g, &numParts, &coneOrder);
  }
  stats.initialParts = static_cast<size_t>(numParts);

  // --- Step 1b: cut oversized cones at independent sub-cones. ---
  {
    obs::ScopedPhaseTimer phaseTimer("cut");
    stats.conesCut = cutOversizedCones(nl.g, coneOrder, initial, numParts);
  }
  stats.afterCut = static_cast<size_t>(numParts);

  Merger merger(nl, std::move(initial), numParts);

  // --- Phase A: merge single-parent partitions into their parents. ---
  // Worklist formulation: a partition can newly become single-parent only
  // when one of its in-neighbors was just contracted away, so instead of
  // re-sweeping every live partition until fixpoint (quadratic on deep
  // merge chains), each merge re-enqueues exactly the partitions whose
  // in-neighbor sets it changed — the merged survivor and its current
  // out-neighbors. The fixpoint reached is the same: single-parent
  // eligibility is monotone until the partition itself merges.
  if (opts.phaseSingleParent) {
    obs::ScopedPhaseTimer phaseTimer("merge-A");
    std::vector<int32_t> work = merger.alivePartitions();
    std::vector<uint8_t> queued(static_cast<size_t>(numParts), 0);
    for (int32_t p : work) queued[static_cast<size_t>(p)] = 1;
    std::vector<int32_t> nbrScratch;
    for (size_t head = 0; head < work.size(); head++) {
      int32_t p = work[head];
      queued[static_cast<size_t>(p)] = 0;
      if (!merger.alive(p)) continue;
      if (merger.inNbrs(p).size() != 1) continue;
      // All signals must come from the single parent: no source signals
      // (external inputs / register outputs) may feed p.
      bool pureSingleParent = true;
      for (int32_t sig : merger.inputs(p)) {
        if (merger.producerPart(sig) == -1) {
          pureSingleParent = false;
          break;
        }
      }
      if (!pureSingleParent) continue;
      int32_t parent = merger.inNbrs(p).begin()->first;
      // An in-neighbor set only changes for the merged survivor and for
      // p's former out-neighbors (they lose p and may collapse onto the
      // parent they already had) — those are the only re-check candidates.
      nbrScratch.clear();
      nbrScratch.push_back(parent);
      for (const auto& [nbr, cnt] : merger.outNbrs(p)) {
        (void)cnt;
        nbrScratch.push_back(nbr);
      }
      std::sort(nbrScratch.begin() + 1, nbrScratch.end());  // determinism
      // Single-parent merges cannot create cycles (an external path
      // parent->C->p would require a second in-neighbor of p), but they
      // still go through tryMerge for order maintenance.
      if (merger.tryMerge(parent, p)) {
        stats.mergesA++;
        for (int32_t q : nbrScratch) {
          if (!queued[static_cast<size_t>(q)]) {
            queued[static_cast<size_t>(q)] = 1;
            work.push_back(q);
          }
        }
      }
    }
  }
  stats.afterSingleParent = merger.numAlive();

  const uint32_t cp = opts.smallThreshold;
  auto isSmall = [&](int32_t p) { return merger.alive(p) && merger.size(p) < cp; };

  // --- Phase B: merge small partitions with small siblings, prioritizing
  // shared signals with the most small consumers (each such merge removes
  // the most cut edges at once, per the paper's heuristic). ---
  if (opts.phaseSmallSiblings && cp > 0) {
    obs::ScopedPhaseTimer phaseTimer("merge-B");
    for (uint32_t pass = 0; pass < kMaxSiblingPasses; pass++) {
      // sig -> small partitions consuming it.
      std::unordered_map<int32_t, std::vector<int32_t>> consumersBySig;
      for (int32_t p : merger.alivePartitions()) {
        if (!isSmall(p)) continue;
        for (int32_t sig : merger.inputs(p)) consumersBySig[sig].push_back(p);
      }
      std::vector<std::pair<int32_t, std::vector<int32_t>>> groups;
      for (auto& [sig, parts] : consumersBySig)
        if (parts.size() > 1) groups.emplace_back(sig, std::move(parts));
      std::sort(groups.begin(), groups.end(), [](const auto& a, const auto& b) {
        if (a.second.size() != b.second.size()) return a.second.size() > b.second.size();
        return a.first < b.first;  // deterministic tie-break
      });

      size_t mergesThisPass = 0;
      for (auto& [sig, parts] : groups) {
        (void)sig;
        int32_t acc = -1;
        for (int32_t p : parts) {
          if (!isSmall(p)) continue;  // may have grown or died this pass
          if (acc == -1 || acc == p || !merger.alive(acc)) {
            acc = p;
            continue;
          }
          if (merger.tryMerge(acc, p)) {
            stats.mergesB++;
            mergesThisPass++;
            // Small-with-small only: once the group stops being small it
            // stops absorbing (keeps coarsening gradual in C_p).
            if (!isSmall(acc)) acc = -1;
          } else {
            stats.rejectedMerges++;
          }
        }
      }
      if (mergesThisPass == 0) break;
    }
  }
  stats.afterSmallSiblings = merger.numAlive();

  // --- Phase C: merge remaining small partitions with any sibling,
  // maximizing the fraction of input signals in common. ---
  if (opts.phaseAnySibling && cp > 0) {
    obs::ScopedPhaseTimer phaseTimer("merge-C");
    for (uint32_t pass = 0; pass < kMaxSiblingPasses; pass++) {
      // sig -> all partitions consuming it (any size).
      std::unordered_map<int32_t, std::vector<int32_t>> consumersBySig;
      for (int32_t p : merger.alivePartitions())
        for (int32_t sig : merger.inputs(p)) consumersBySig[sig].push_back(p);

      size_t mergesThisPass = 0;
      for (int32_t p : merger.alivePartitions()) {
        if (!isSmall(p)) continue;
        // Score candidate siblings by shared input fraction (Jaccard).
        std::unordered_map<int32_t, uint32_t> shared;
        for (int32_t sig : merger.inputs(p)) {
          auto it = consumersBySig.find(sig);
          if (it == consumersBySig.end()) continue;
          for (int32_t c : it->second)
            if (c != p && merger.alive(c)) shared[c]++;
        }
        std::vector<std::pair<double, int32_t>> ranked;
        for (const auto& [c, cnt] : shared) {
          double uni =
              static_cast<double>(merger.inputs(p).size() + merger.inputs(c).size() - cnt);
          ranked.emplace_back(uni > 0 ? cnt / uni : 1.0, c);
        }
        std::sort(ranked.begin(), ranked.end(), [](const auto& x, const auto& y) {
          if (x.first != y.first) return x.first > y.first;
          return x.second < y.second;
        });
        for (const auto& [score, c] : ranked) {
          (void)score;
          if (merger.tryMerge(c, p)) {
            stats.mergesC++;
            mergesThisPass++;
            break;
          }
          stats.rejectedMerges++;
        }
      }
      if (mergesThisPass == 0) break;
    }
  }

  stats.cutEdges = merger.countCutEdges();
  for (int32_t p : merger.alivePartitions())
    if (merger.size(p) < cp) stats.smallRemaining++;

  Partitioning out = merger.finalize();
  stats.finalParts = out.numPartitions();
  out.stats = stats;
  return out;
}

Partitioning finePartitioning(const Netlist& nl) {
  Partitioning out;
  int32_t n = nl.g.numNodes();
  out.partOf.resize(static_cast<size_t>(n));
  out.members.resize(static_cast<size_t>(n));
  for (int32_t i = 0; i < n; i++) {
    out.partOf[static_cast<size_t>(i)] = i;
    out.members[static_cast<size_t>(i)] = {i};
  }
  out.partGraph = graph::condense(nl.g, out.partOf, n);
  out.schedule = *out.partGraph.topoSort();
  out.stats.initialParts = out.stats.afterCut = out.stats.finalParts = static_cast<size_t>(n);
  return out;
}

Partitioning monolithicPartitioning(const Netlist& nl) {
  Partitioning out;
  int32_t n = nl.g.numNodes();
  out.partOf.assign(static_cast<size_t>(n), 0);
  out.members.resize(1);
  for (int32_t i = 0; i < n; i++) out.members[0].push_back(i);
  out.partGraph = graph::condense(nl.g, out.partOf, 1);
  out.schedule = {0};
  out.stats.initialParts = out.stats.afterCut = out.stats.finalParts = 1;
  return out;
}

}  // namespace essent::core
