#include "core/placement.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "obs/phase_timer.h"

namespace essent::core {
namespace {

// A chain (critical-path cluster) may grow to the ideal per-thread load
// times (1 + slack) before the placer splits it for balance; each split
// costs one cross-thread edge instead of fragmenting the whole chain.
constexpr double kBalanceSlack = 0.20;

}  // namespace

std::vector<std::pair<int32_t, int32_t>> placementEdges(const CondPartSchedule& sched) {
  std::vector<std::pair<int32_t, int32_t>> edges;
  const int32_t n = static_cast<int32_t>(sched.parts.size());
  for (int32_t pos = 0; pos < n; pos++) {
    const CondPart& part = sched.parts[static_cast<size_t>(pos)];
    // Combinational producer -> consumer.
    for (const PartOutput& o : part.outputs)
      for (int32_t c : o.consumers)
        if (c != pos) edges.emplace_back(pos, c);
    // Elision ordering: every cross-partition reader of an elided state
    // element must run before its writer partition clobbers the old value.
    for (const SchedRegWrite& rw : part.regWrites)
      for (int32_t r : rw.wakeParts)
        if (r != pos) edges.emplace_back(r, pos);
    for (const SchedMemWrite& mw : part.memWrites)
      for (int32_t r : mw.wakeParts)
        if (r != pos) edges.emplace_back(r, pos);
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return edges;
}

BspPlacement buildPlacement(const CondPartSchedule& sched, const PlacementOptions& opts) {
  obs::ScopedPhaseTimer phaseTimer("placement");
  BspPlacement p;
  const size_t n = sched.parts.size();
  if (n == 0) {
    p.threads = 1;
    p.threadCost.assign(1, 0);
    return p;
  }
  const unsigned T =
      std::max(1u, std::min(opts.threads, static_cast<unsigned>(n)));

  // Per-position cost estimate: caller-provided profile when its shape
  // matches, else static op count (+1 so empty partitions still weigh).
  std::vector<uint64_t> cost(n, 1);
  if (opts.partCost.size() == n) {
    for (size_t i = 0; i < n; i++) cost[i] = std::max<uint64_t>(1, opts.partCost[i]);
  } else {
    for (size_t i = 0; i < n; i++)
      cost[i] = 1 + static_cast<uint64_t>(sched.parts[i].ops.size());
  }
  uint64_t totalCost = 0;
  for (uint64_t c : cost) totalCost += c;

  auto edges = placementEdges(sched);
  p.totalEdges = edges.size();

  // Outgoing adjacency, built once; every edge points from a lower to a
  // higher schedule position, so ascending position order is a topological
  // order of the edge set (and descending order its reverse).
  std::vector<std::vector<int32_t>> succs(n);
  for (const auto& [u, v] : edges) {
    assert(u < v);
    succs[static_cast<size_t>(u)].push_back(v);
  }

  // Downstream critical-path cost of every position (itself included):
  // reverse-topological sweep, so one pass settles it.
  std::vector<uint64_t> depth(n, 0);
  for (size_t v = n; v-- > 0;) {
    uint64_t d = 0;
    for (int32_t s : succs[v]) d = std::max(d, depth[static_cast<size_t>(s)]);
    depth[v] = cost[v] + d;
  }

  // Critical (dominant) predecessor of every position: the in-edge on its
  // longest upstream path. Chains only extend along these edges — following
  // a non-critical edge would leave the true critical in-edge to a later
  // chain, turning it into a cross-thread barrier right on the critical
  // path. Forward topological sweep; ties to the lower position.
  std::vector<int32_t> critPred(n, -1);
  {
    std::vector<uint64_t> top(n, 0);  // longest-path cost ending AT v (excl.)
    for (const auto& [u, v] : edges) {
      const size_t su = static_cast<size_t>(u), sv = static_cast<size_t>(v);
      const uint64_t through = top[su] + cost[su];
      if (through > top[sv]) {
        top[sv] = through;
        critPred[sv] = u;
      }
    }
  }

  // Phase 1 — linear (chain) clustering along critical paths. A per-
  // position greedy placer fragments deep dependency chains whenever the
  // balance cap overrides affinity, and every fragmented chain edge becomes
  // a cross-thread barrier, so the step count approaches the dependency
  // depth. Instead, walk chains explicitly: seed at the unassigned position
  // with the greatest downstream depth (the head of the residual critical
  // path), then repeatedly absorb the unassigned successor with the
  // greatest depth. Everything inside a chain is covered by same-thread
  // program order, so only chain-to-chain edges can ever cost a barrier.
  // Chains end early at the balance cap so one monster chain cannot swallow
  // a whole thread's fair share (the split costs a single cross edge, not
  // one per chain edge). Ties always break to the lower schedule position —
  // the placement is deterministic.
  const double cap =
      (static_cast<double>(totalCost) / static_cast<double>(T)) * (1.0 + kBalanceSlack);
  std::vector<int32_t> seeds(n);
  for (size_t i = 0; i < n; i++) seeds[i] = static_cast<int32_t>(i);
  std::sort(seeds.begin(), seeds.end(), [&](int32_t a, int32_t b) {
    if (depth[static_cast<size_t>(a)] != depth[static_cast<size_t>(b)])
      return depth[static_cast<size_t>(a)] > depth[static_cast<size_t>(b)];
    return a < b;
  });
  std::vector<int32_t> chainOf(n, -1);
  std::vector<std::vector<int32_t>> chains;
  std::vector<uint64_t> chainCost;
  for (int32_t seed : seeds) {
    if (chainOf[static_cast<size_t>(seed)] != -1) continue;
    const int32_t c = static_cast<int32_t>(chains.size());
    chains.emplace_back();
    chainCost.push_back(0);
    int32_t cur = seed;
    for (;;) {
      chainOf[static_cast<size_t>(cur)] = c;
      chains[static_cast<size_t>(c)].push_back(cur);
      chainCost[static_cast<size_t>(c)] += cost[static_cast<size_t>(cur)];
      int32_t next = -1;
      for (int32_t s : succs[static_cast<size_t>(cur)])
        if (chainOf[static_cast<size_t>(s)] == -1 && critPred[static_cast<size_t>(s)] == cur &&
            (next == -1 || depth[static_cast<size_t>(s)] > depth[static_cast<size_t>(next)]))
          next = s;
      if (next == -1) break;
      if (static_cast<double>(chainCost[static_cast<size_t>(c)] +
                              cost[static_cast<size_t>(next)]) > cap)
        break;  // balance split: `next` seeds its own chain later
      cur = next;
    }
  }

  // Phase 2 — longest-processing-time assignment of whole chains to
  // threads: heaviest chain first onto the least-loaded thread (ties: the
  // chain starting at the lower position; the lower thread id).
  p.threadOf.assign(n, 0);
  p.threadCost.assign(T, 0);
  std::vector<int32_t> order(chains.size());
  for (size_t i = 0; i < order.size(); i++) order[i] = static_cast<int32_t>(i);
  std::sort(order.begin(), order.end(), [&](int32_t a, int32_t b) {
    if (chainCost[static_cast<size_t>(a)] != chainCost[static_cast<size_t>(b)])
      return chainCost[static_cast<size_t>(a)] > chainCost[static_cast<size_t>(b)];
    return chains[static_cast<size_t>(a)].front() < chains[static_cast<size_t>(b)].front();
  });
  auto leastLoaded = [&] {
    unsigned best = 0;
    for (unsigned t = 1; t < T; t++)
      if (p.threadCost[t] < p.threadCost[best]) best = t;
    return best;
  };
  for (int32_t c : order) {
    const unsigned t = leastLoaded();
    for (int32_t v : chains[static_cast<size_t>(c)])
      p.threadOf[static_cast<size_t>(v)] = static_cast<int32_t>(t);
    p.threadCost[t] += chainCost[static_cast<size_t>(c)];
  }

  // Nonempty-thread guarantee: the balance cap all but ensures it, but a
  // degenerate cost distribution can still leave a thread idle. Donate the
  // last position of the fullest multi-position thread; n >= T makes this
  // terminate with every thread occupied.
  {
    std::vector<uint32_t> count(T, 0);
    for (size_t v = 0; v < n; v++) count[static_cast<size_t>(p.threadOf[v])]++;
    for (unsigned t = 0; t < T; t++) {
      while (count[t] == 0) {
        unsigned donor = 0;
        for (unsigned d = 1; d < T; d++)
          if (count[d] > count[donor]) donor = d;
        for (size_t v = n; v-- > 0;) {
          if (p.threadOf[v] == static_cast<int32_t>(donor)) {
            p.threadOf[v] = static_cast<int32_t>(t);
            p.threadCost[donor] -= cost[v];
            p.threadCost[t] += cost[v];
            count[donor]--;
            count[t]++;
            break;
          }
        }
      }
    }
  }
  p.threads = T;

  // Super-steps: the longest path where only cross-thread edges advance the
  // step. A same-thread edge is covered by local ascending-position order
  // inside the step; a cross-thread edge needs the barrier between steps,
  // so it forces step(u) < step(v). Once chains are co-located, a
  // dependency depth of 60+ shrinks to a handful of super-steps.
  p.stepOf.assign(n, 0);
  int32_t maxStep = 0;
  for (const auto& [u, v] : edges) {
    const size_t su = static_cast<size_t>(u), sv = static_cast<size_t>(v);
    const int32_t need =
        p.stepOf[su] + (p.threadOf[su] != p.threadOf[sv] ? 1 : 0);
    if (need > p.stepOf[sv]) p.stepOf[sv] = need;
    if (p.stepOf[sv] > maxStep) maxStep = p.stepOf[sv];
    p.crossEdges += p.threadOf[su] != p.threadOf[sv] ? 1 : 0;
  }
  // Edge list is sorted by (u, v) ascending and u < v always, so stepOf[u]
  // is final before any edge out of u is processed... only if all edges
  // into u sort before edges out of u — true because edges into u have
  // second component u and first component < u, and std::pair ordering is
  // lexicographic on (first, second); an edge (a, u) with a < u sorts
  // before (u, b). A single pass therefore settles the longest path.

  p.steps.resize(static_cast<size_t>(maxStep) + 1);
  for (auto& s : p.steps) s.runs.resize(T);
  for (size_t v = 0; v < n; v++)
    p.steps[static_cast<size_t>(p.stepOf[v])]
        .runs[static_cast<size_t>(p.threadOf[v])]
        .push_back(static_cast<int32_t>(v));

  p.totalCost = totalCost;
  uint64_t maxLoad = 0;
  for (uint64_t c : p.threadCost) maxLoad = std::max(maxLoad, c);
  const double mean = static_cast<double>(totalCost) / static_cast<double>(T);
  p.loadImbalance = mean > 0 ? static_cast<double>(maxLoad) / mean : 1.0;
  return p;
}

}  // namespace essent::core
