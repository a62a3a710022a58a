// Static BSP placement tests: the ordering rules placementEdges() states
// (each edge family present, every edge forward), structural invariants of
// buildPlacement() (every position placed exactly once, super-step ordering
// respects every edge, nonempty threads, determinism) and end-to-end
// serial-vs-placed bit- and stats-identity with the serial cutoff disabled
// so every cycle takes the pooled super-step path. Part of the `par` label
// so the tsan preset runs all of it.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/activity_engine.h"
#include "core/parallel_engine.h"
#include "core/placement.h"
#include "designs/blocks.h"
#include "designs/gcd.h"
#include "designs/systolic.h"
#include "designs/tinysoc.h"
#include "sim/compile.h"
#include "sim/full_cycle.h"
#include "sim/harness.h"
#include "support/rng.h"

#ifndef FUZZ_CORPUS_DIR
#error "FUZZ_CORPUS_DIR must be defined by the build"
#endif

namespace essent {
namespace {

using core::ActivityEngine;
using core::BspPlacement;
using core::CondPartSchedule;
using core::ParallelActivityEngine;
using core::PlacementOptions;
using core::ScheduleOptions;
using sim::Engine;
using sim::SimIR;

std::string readCorpus(const std::string& name) {
  std::ifstream f(std::string(FUZZ_CORPUS_DIR) + "/" + name);
  EXPECT_TRUE(f.good()) << "missing corpus file " << name;
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

// Every design shape we have, including the committed fuzz-corpus corner
// circuits — the placement contract must hold on all of them.
std::vector<std::pair<std::string, std::string>> allDesignTexts() {
  std::vector<std::pair<std::string, std::string>> texts = {
      {"gcd", designs::gcdFirrtl(16)},
      {"gatedBanks", designs::gatedBanksFirrtl(16, 16)},
      {"pipeline", designs::pipelineFirrtl(6, 16)},
      {"systolic", designs::systolicFirrtl(designs::SystolicConfig{})},
      {"tinysoc", designs::tinySoCFirrtl(designs::socTiny())},
      {"corner_mem_rw", readCorpus("corner_mem_rw.fir")},
      {"corner_mux_deep", readCorpus("corner_mux_deep.fir")},
      {"corner_zero_width", readCorpus("corner_zero_width.fir")},
      {"corner_mem_two_writers", readCorpus("corner_mem_two_writers.fir")},
  };
  for (uint64_t seed : {41ull, 42ull, 43ull})
    texts.emplace_back("random" + std::to_string(seed), designs::randomDesignFirrtl(seed));
  return texts;
}

// Level of each position: the longest path over placementEdges() ending
// there, counted in positions (sources are level 1). Relaxed to a fixpoint,
// so it assumes nothing about edge order; at most n passes, so a (broken)
// cyclic edge set cannot hang the test.
std::vector<size_t> dependencyLevels(const CondPartSchedule& sched) {
  const size_t n = sched.parts.size();
  std::vector<size_t> level(n, 1);
  const auto edges = core::placementEdges(sched);
  bool changed = true;
  for (size_t pass = 0; changed && pass <= n; pass++) {
    changed = false;
    for (const auto& [u, v] : edges) {
      size_t& lv = level[static_cast<size_t>(v)];
      if (lv < level[static_cast<size_t>(u)] + 1) {
        lv = level[static_cast<size_t>(u)] + 1;
        changed = true;
      }
    }
  }
  return level;
}

// The dependency depth, which bounds the super-steps any placement may need.
size_t dependencyDepth(const CondPartSchedule& sched) {
  size_t longest = 0;
  for (size_t d : dependencyLevels(sched)) longest = std::max(longest, d);
  return longest;
}

// The ordering rules placementEdges() states, checked against the schedule
// they come from: each of the two edge families is present, nothing else
// is, and every edge is a sorted, unique, forward edge of the schedule. No
// memory with two or more write ports has an elided write.
void checkEdgeRules(const SimIR& ir, const CondPartSchedule& sched, const std::string& what) {
  const int32_t n = static_cast<int32_t>(sched.parts.size());
  auto edges = core::placementEdges(sched);
  std::set<std::pair<int32_t, int32_t>> have(edges.begin(), edges.end());
  EXPECT_EQ(have.size(), edges.size()) << what << ": duplicate edges";
  EXPECT_TRUE(std::is_sorted(edges.begin(), edges.end())) << what;
  for (const auto& [u, v] : edges) {
    ASSERT_GE(u, 0) << what;
    ASSERT_LT(v, n) << what;
    EXPECT_LT(u, v) << what << ": edge " << u << "->" << v << " runs against schedule order";
  }

  std::set<std::pair<int32_t, int32_t>> expected;
  auto expectEdge = [&](int32_t u, int32_t v, const char* family) {
    expected.emplace(u, v);
    EXPECT_TRUE(have.count({u, v})) << what << ": missing " << family << " edge " << u
                                    << "->" << v;
  };
  for (int32_t pos = 0; pos < n; pos++) {
    const core::CondPart& part = sched.parts[static_cast<size_t>(pos)];
    // (1) Every output consumer runs after its producer.
    for (const core::PartOutput& o : part.outputs)
      for (int32_t c : o.consumers) expectEdge(pos, c, "producer->consumer");
    // (2) Every other partition woken by an elided state write reads the
    //     old value, so it is scheduled earlier and ordered before the writer.
    auto readersBeforeWriter = [&](const std::vector<int32_t>& wakeParts, const char* family) {
      for (int32_t r : wakeParts) {
        if (r == pos) continue;
        EXPECT_LT(r, pos) << what << ": " << family << " reader scheduled after its writer";
        expectEdge(r, pos, family);
      }
    };
    for (const core::SchedRegWrite& rw : part.regWrites)
      readersBeforeWriter(rw.wakeParts, "reg reader->writer");
    for (const core::SchedMemWrite& mw : part.memWrites) {
      readersBeforeWriter(mw.wakeParts, "mem reader->writer");
      EXPECT_EQ(ir.mems[static_cast<size_t>(mw.memIdx)].writers.size(), 1u)
          << what << ": elided write to a memory with several write ports";
    }
  }
  EXPECT_EQ(expected.size(), have.size()) << what << ": edge outside the two families";
}

// The full execution contract from placement.h, checked against the real
// edge set placementEdges() reconstructs from the schedule.
void checkPlacementContract(const CondPartSchedule& sched, const BspPlacement& p,
                            unsigned requestedThreads, const std::string& what) {
  const size_t n = sched.parts.size();
  ASSERT_EQ(p.threadOf.size(), n) << what;
  ASSERT_EQ(p.stepOf.size(), n) << what;
  EXPECT_GE(p.threads, 1u) << what;
  EXPECT_LE(p.threads, std::max<unsigned>(1, requestedThreads)) << what;
  EXPECT_LE(static_cast<size_t>(p.threads), std::max<size_t>(n, 1)) << what;

  // Super-steps never exceed the dependency depth — the whole point of the
  // placement is fewer barriers, not more.
  EXPECT_LE(p.numSteps(), std::max<size_t>(dependencyDepth(sched), 1)) << what;
  if (n > 0) {
    EXPECT_GE(p.numSteps(), 1u) << what;
  }

  // Every position placed exactly once, on the thread/step the maps say,
  // ascending within each per-thread run.
  std::vector<uint8_t> seen(n, 0);
  std::vector<uint64_t> perThread(p.threads, 0);
  for (size_t s = 0; s < p.steps.size(); s++) {
    ASSERT_EQ(p.steps[s].runs.size(), p.threads) << what;
    bool any = false;
    for (size_t t = 0; t < p.steps[s].runs.size(); t++) {
      const auto& run = p.steps[s].runs[t];
      for (size_t k = 0; k < run.size(); k++) {
        int32_t pos = run[k];
        ASSERT_GE(pos, 0) << what;
        ASSERT_LT(static_cast<size_t>(pos), n) << what;
        EXPECT_EQ(seen[static_cast<size_t>(pos)], 0) << what << ": position " << pos
                                                     << " placed twice";
        seen[static_cast<size_t>(pos)] = 1;
        EXPECT_EQ(p.threadOf[static_cast<size_t>(pos)], static_cast<int32_t>(t)) << what;
        EXPECT_EQ(p.stepOf[static_cast<size_t>(pos)], static_cast<int32_t>(s)) << what;
        if (k > 0) {
          EXPECT_LT(run[k - 1], pos) << what << ": run not ascending";
        }
        perThread[t]++;
        any = true;
      }
    }
    EXPECT_TRUE(any) << what << ": empty super-step " << s;
  }
  for (size_t pos = 0; pos < n; pos++)
    EXPECT_EQ(seen[pos], 1) << what << ": position " << pos << " unplaced";
  // Useful width: every thread the placement claims actually owns work.
  for (size_t t = 0; t < perThread.size(); t++)
    EXPECT_GT(perThread[t], 0u) << what << ": thread " << t << " empty";

  // Edge contract: cross-thread edges strictly ordered by super-step
  // (barrier between), same-thread edges covered by ascending local order.
  auto edges = core::placementEdges(sched);
  EXPECT_EQ(p.totalEdges, edges.size()) << what;
  size_t cross = 0;
  for (const auto& [u, v] : edges) {
    ASSERT_NE(u, v) << what;
    if (p.threadOf[static_cast<size_t>(u)] != p.threadOf[static_cast<size_t>(v)]) {
      cross++;
      EXPECT_LT(p.stepOf[static_cast<size_t>(u)], p.stepOf[static_cast<size_t>(v)])
          << what << ": cross-thread edge " << u << "->" << v << " not barrier-separated";
    } else {
      EXPECT_LE(p.stepOf[static_cast<size_t>(u)], p.stepOf[static_cast<size_t>(v)])
          << what << ": same-thread edge " << u << "->" << v << " runs backwards";
      if (p.stepOf[static_cast<size_t>(u)] == p.stepOf[static_cast<size_t>(v)]) {
        EXPECT_LT(u, v) << what << ": same-step edge must follow schedule order";
      }
    }
  }
  EXPECT_EQ(p.crossEdges, cross) << what;
  EXPECT_LE(p.crossEdges, p.totalEdges) << what;
}

TEST(Placement, ContractHoldsAcrossDesignsAndWidths) {
  for (const auto& [name, text] : allDesignTexts()) {
    SimIR ir = sim::buildFromFirrtl(text);
    CondPartSchedule sched = core::buildSchedule(core::Netlist::build(ir));
    for (unsigned threads : {1u, 2u, 3u, 4u, 8u, 64u}) {
      PlacementOptions opts;
      opts.threads = threads;
      BspPlacement p = core::buildPlacement(sched, opts);
      checkPlacementContract(sched, p, threads,
                             name + "/t" + std::to_string(threads));
    }
  }
}

TEST(Placement, ContractHoldsWithoutElision) {
  // Elision off removes the reader->writer and same-mem hazard edge
  // families; the comb edges and the placement contract must still hold.
  for (const auto& [name, text] : allDesignTexts()) {
    SimIR ir = sim::buildFromFirrtl(text);
    ScheduleOptions sopts;
    sopts.stateElision = false;
    CondPartSchedule sched = core::buildSchedule(core::Netlist::build(ir), sopts);
    PlacementOptions opts;
    opts.threads = 4;
    checkPlacementContract(sched, core::buildPlacement(sched, opts), 4, name + "/noelide");
  }
}

TEST(Levelization, InvariantsHoldAcrossDesignsAndGranularities) {
  // The dependency order of partitions (the levelization a placement
  // coarsens into super-steps) is exactly the placementEdges() rules.
  auto texts = allDesignTexts();
  for (uint64_t seed : {21ull, 22ull, 23ull, 24ull})
    texts.emplace_back("random" + std::to_string(seed), designs::randomDesignFirrtl(seed));
  for (const auto& [name, text] : texts) {
    SimIR ir = sim::buildFromFirrtl(text);
    core::Netlist nl = core::Netlist::build(ir);
    for (uint32_t cp : {0u, 4u, 64u}) {
      ScheduleOptions opts;
      opts.partition.smallThreshold = cp;
      checkEdgeRules(ir, core::buildSchedule(nl, opts), name + "/cp" + std::to_string(cp));
    }
    // Elision off: only the producer->consumer family remains.
    ScheduleOptions noElide;
    noElide.stateElision = false;
    checkEdgeRules(ir, core::buildSchedule(nl, noElide), name + "/noelide");
  }
}

TEST(Placement, EdgesAreSortedDedupedAndMatchLevelization) {
  for (const auto& [name, text] : allDesignTexts()) {
    SimIR ir = sim::buildFromFirrtl(text);
    CondPartSchedule sched = core::buildSchedule(core::Netlist::build(ir));
    auto edges = core::placementEdges(sched);
    std::set<std::pair<int32_t, int32_t>> uniq(edges.begin(), edges.end());
    EXPECT_EQ(uniq.size(), edges.size()) << name << ": duplicate edges";
    EXPECT_TRUE(std::is_sorted(edges.begin(), edges.end())) << name;
    // Every edge family the engine relies on is a forward edge of the
    // schedule order (readers precede writers; consumers follow producers),
    // and its endpoints sit on strictly increasing dependency levels.
    const std::vector<size_t> level = dependencyLevels(sched);
    for (const auto& [u, v] : edges) {
      EXPECT_LT(u, v) << name << ": placement edge runs against schedule order";
      EXPECT_LT(level[static_cast<size_t>(u)], level[static_cast<size_t>(v)])
          << name << ": edge endpoints share a level";
    }
  }
}

TEST(Placement, DeterministicAcrossCalls) {
  SimIR ir = sim::buildFromFirrtl(designs::tinySoCFirrtl(designs::socTiny()));
  CondPartSchedule sched = core::buildSchedule(core::Netlist::build(ir));
  PlacementOptions opts;
  opts.threads = 4;
  BspPlacement a = core::buildPlacement(sched, opts);
  BspPlacement b = core::buildPlacement(sched, opts);
  EXPECT_EQ(a.threadOf, b.threadOf);
  EXPECT_EQ(a.stepOf, b.stepOf);
  EXPECT_EQ(a.threads, b.threads);
  EXPECT_EQ(a.crossEdges, b.crossEdges);
  EXPECT_EQ(a.threadCost, b.threadCost);
  ASSERT_EQ(a.steps.size(), b.steps.size());
  for (size_t s = 0; s < a.steps.size(); s++) EXPECT_EQ(a.steps[s].runs, b.steps[s].runs);
}

TEST(Placement, CoarsensDeepLevelizations) {
  // The motivating pathology: tinysoc's dependency depth is dozens of
  // partitions but the placement should need far fewer barriers. On one
  // thread it must collapse to a single super-step (no cross edges at all).
  SimIR ir = sim::buildFromFirrtl(designs::tinySoCFirrtl(designs::socTiny()));
  CondPartSchedule sched = core::buildSchedule(core::Netlist::build(ir));
  const size_t depth = dependencyDepth(sched);
  ASSERT_GT(depth, 8u);

  PlacementOptions one;
  one.threads = 1;
  BspPlacement p1 = core::buildPlacement(sched, one);
  EXPECT_EQ(p1.numSteps(), 1u);
  EXPECT_EQ(p1.crossEdges, 0u);

  PlacementOptions four;
  four.threads = 4;
  BspPlacement p4 = core::buildPlacement(sched, four);
  EXPECT_LT(p4.numSteps(), depth) << "placement did not coarsen the dependency depth";
}

TEST(Placement, ProfiledCostsRebalanceLoad) {
  // partCost is an optional hint: a wildly skewed cost vector must still
  // yield a valid placement, and per-thread costs must sum to totalCost.
  SimIR ir = sim::buildFromFirrtl(designs::gatedBanksFirrtl(16, 16));
  CondPartSchedule sched = core::buildSchedule(core::Netlist::build(ir));
  PlacementOptions opts;
  opts.threads = 4;
  opts.partCost.assign(sched.parts.size(), 1);
  for (size_t i = 0; i < opts.partCost.size(); i += 3) opts.partCost[i] = 1000;
  BspPlacement p = core::buildPlacement(sched, opts);
  checkPlacementContract(sched, p, 4, "skewed-cost");
  uint64_t sum = 0;
  for (uint64_t c : p.threadCost) sum += c;
  EXPECT_EQ(sum, p.totalCost);
  EXPECT_GE(p.loadImbalance, 1.0);
}

// --- Serial vs placed-engine identity -------------------------------------

sim::StimulusFn cyclicStimulus(uint64_t seed) {
  return [seed](Engine& e, uint64_t cycle) {
    int idx = 0;
    for (int32_t in : e.ir().inputs) {
      const auto& sig = e.ir().signals[static_cast<size_t>(in)];
      idx++;
      if (sig.name == "reset") {
        e.poke("reset", cycle < 2 ? 1 : 0);
        continue;
      }
      Rng draw(seed ^ (cycle * 0x9e3779b97f4a7c15ULL) ^ (static_cast<uint64_t>(idx) << 32));
      e.poke(sig.name, draw.nextChance(0.3) ? draw.next() : 0);
    }
  };
}

void expectStatsEqual(const sim::EngineStats& a, const sim::EngineStats& b,
                      const std::string& what) {
  EXPECT_EQ(a.cycles, b.cycles) << what;
  EXPECT_EQ(a.opsEvaluated, b.opsEvaluated) << what;
  EXPECT_EQ(a.partitionChecks, b.partitionChecks) << what;
  EXPECT_EQ(a.partitionActivations, b.partitionActivations) << what;
  EXPECT_EQ(a.outputComparisons, b.outputComparisons) << what;
  EXPECT_EQ(a.triggerSets, b.triggerSets) << what;
  EXPECT_EQ(a.signalsChangedTotal, b.signalsChangedTotal) << what;
}

void expectProfilesEqual(const core::ActivityProfile& a, const core::ActivityProfile& b,
                         const std::string& what) {
  EXPECT_EQ(a.profiledCycles, b.profiledCycles) << what;
  EXPECT_EQ(a.activationsPerWindow, b.activationsPerWindow) << what;
  ASSERT_EQ(a.parts.size(), b.parts.size()) << what;
  for (size_t pos = 0; pos < a.parts.size(); pos++) {
    EXPECT_EQ(a.parts[pos].activations, b.parts[pos].activations) << what << " part " << pos;
    EXPECT_EQ(a.parts[pos].opsEvaluated, b.parts[pos].opsEvaluated) << what << " part " << pos;
    EXPECT_EQ(a.parts[pos].wakesIssued, b.parts[pos].wakesIssued) << what << " part " << pos;
  }
}

TEST(PlacedEngine, ForcedPooledPathMatchesSerialBitsAndStats) {
  // setSerialCutoff(0) disables the low-activity inline fallback, so every
  // cycle exercises mailbox routing, the counting barrier, and per-lane
  // counter merging — under tsan this is the strongest race check we have.
  // Profiling is on in both engines: every partition's activations, ops
  // and wakes, and the activity timeline, must match the serial run too.
  // Wake bits live 64 to a word, so lanes update words they share with
  // other lanes; at least one design must place two lanes' positions in
  // one word, or tsan never sees those shared-word updates.
  bool sharedWakeWord = false;
  for (const auto& [name, text] : allDesignTexts()) {
    SimIR ir = sim::buildFromFirrtl(text);
    CondPartSchedule sched = core::buildSchedule(core::Netlist::build(ir));
    ActivityEngine serial(core::CompiledCcss::compile(sim::CompiledDesign::compile(ir), sched));
    ParallelActivityEngine par(core::CompiledCcss::compile(sim::CompiledDesign::compile(ir), sched), 4);
    par.setSerialCutoff(0);
    ASSERT_EQ(par.serialCutoff(), 0u);
    const std::vector<int32_t>& owner = par.placement().threadOf;
    for (size_t pos = 1; pos < owner.size(); pos++)
      if (pos % 64 != 0 && owner[pos] != owner[pos - 1]) sharedWakeWord = true;
    for (ActivityEngine* e : {&serial, static_cast<ActivityEngine*>(&par)}) {
      e->setProfileWindow(16);
      e->setProfiling(true);
    }

    auto stim = cyclicStimulus(1234);
    for (uint64_t c = 0; c < 120; c++) {
      stim(serial, c);
      stim(par, c);
      serial.tick();
      par.tick();
      for (int32_t o : ir.outputs)
        ASSERT_EQ(serial.peekSig(o), par.peekSig(o)) << name << " cycle " << c;
    }
    expectStatsEqual(serial.stats(), par.stats(), name);
    EXPECT_EQ(serial.effectiveActivity(), par.effectiveActivity()) << name;
    expectProfilesEqual(serial.profile(), par.profile(), name);
  }
  EXPECT_TRUE(sharedWakeWord);
}

TEST(PlacedEngine, SameMemoryElidedWritersKeepSerialCommitOrder) {
  // The corpus memory has two write ports fed by independent logic. Neither
  // is elided: both commit in the global phase in port order. When they
  // write one row in the same cycle, port 1 wins in serial CCSS, in the
  // placed engine and in the full-cycle reference alike.
  SimIR ir = sim::buildFromFirrtl(readCorpus("corner_mem_two_writers.fir"));
  CondPartSchedule sched = core::buildSchedule(core::Netlist::build(ir));
  for (const core::CondPart& part : sched.parts)
    EXPECT_TRUE(part.memWrites.empty()) << "write of a two-port memory elided";
  ASSERT_EQ(sched.deferredMemWrites.size(), 2u);
  EXPECT_EQ(sched.deferredMemWrites[0].writerIdx, 0);
  EXPECT_EQ(sched.deferredMemWrites[1].writerIdx, 1);

  ActivityEngine serial(core::CompiledCcss::compile(sim::CompiledDesign::compile(ir), sched));
  ParallelActivityEngine par(core::CompiledCcss::compile(sim::CompiledDesign::compile(ir), sched), 4);
  par.setSerialCutoff(0);
  checkPlacementContract(sched, par.placement(), 4, "corner_mem_two_writers");
  sim::FullCycleEngine full(sim::CompiledDesign::compile(ir));

  Rng draw(99);
  size_t collisions = 0;
  for (uint64_t c = 0; c < 200; c++) {
    const uint64_t a0 = draw.nextBelow(4), a1 = draw.nextBelow(4);
    const uint64_t e0 = draw.nextBelow(4) != 0, e1 = draw.nextBelow(4) != 0;
    const uint64_t d0 = draw.nextBelow(256), d1 = draw.nextBelow(256);
    const uint64_t ra = draw.nextBelow(4);
    if (e0 && e1 && a0 == a1) collisions++;
    for (Engine* e : {static_cast<Engine*>(&serial), static_cast<Engine*>(&par),
                      static_cast<Engine*>(&full)}) {
      e->poke("reset", 0);
      e->poke("a0", a0);
      e->poke("a1", a1);
      e->poke("e0", e0);
      e->poke("e1", e1);
      e->poke("d0", d0);
      e->poke("d1", d1);
      e->poke("ra", ra);
      e->tick();
    }
    ASSERT_EQ(full.peek("q"), serial.peek("q")) << "cycle " << c;
    ASSERT_EQ(full.peek("q"), par.peek("q")) << "cycle " << c;
  }
  EXPECT_GT(collisions, 0u) << "stimulus never wrote one row from both ports";
  expectStatsEqual(serial.stats(), par.stats(), "corner_mem_two_writers");
}

TEST(PlacedEngine, SerialCutoffPathSwitchIsInvisible) {
  // A huge cutoff forces the inline-serial path every cycle; the default
  // engine mixes paths by activity. All three must agree bit-for-bit and
  // counter-for-counter — path selection is a pure perf decision.
  SimIR ir = sim::buildFromFirrtl(designs::gatedBanksFirrtl(16, 16));
  CondPartSchedule sched = core::buildSchedule(core::Netlist::build(ir));
  ParallelActivityEngine pooled(core::CompiledCcss::compile(sim::CompiledDesign::compile(ir), sched), 4);
  pooled.setSerialCutoff(0);
  ParallelActivityEngine inlineOnly(core::CompiledCcss::compile(sim::CompiledDesign::compile(ir), sched), 4);
  inlineOnly.setSerialCutoff(UINT64_MAX);
  ParallelActivityEngine mixed(core::CompiledCcss::compile(sim::CompiledDesign::compile(ir), sched), 4);

  auto stim = cyclicStimulus(777);
  for (uint64_t c = 0; c < 200; c++) {
    for (ParallelActivityEngine* e : {&pooled, &inlineOnly, &mixed}) {
      stim(*e, c);
      e->tick();
    }
    for (int32_t o : ir.outputs) {
      ASSERT_EQ(pooled.peekSig(o), inlineOnly.peekSig(o)) << "cycle " << c;
      ASSERT_EQ(pooled.peekSig(o), mixed.peekSig(o)) << "cycle " << c;
    }
  }
  expectStatsEqual(pooled.stats(), inlineOnly.stats(), "pooled vs inline");
  expectStatsEqual(pooled.stats(), mixed.stats(), "pooled vs mixed");
}

TEST(PlacedEngine, EnginePlacementMatchesStandaloneBuild) {
  // The engine must expose exactly the placement buildPlacement() computes
  // for its effective width — tools (essentc --stats-json) rely on it.
  SimIR ir = sim::buildFromFirrtl(designs::systolicFirrtl(designs::SystolicConfig{}));
  CondPartSchedule sched = core::buildSchedule(core::Netlist::build(ir));
  ParallelActivityEngine eng(core::CompiledCcss::compile(sim::CompiledDesign::compile(ir), sched), 3);
  PlacementOptions opts;
  opts.threads = eng.threadCount();
  BspPlacement expect = core::buildPlacement(sched, opts);
  const BspPlacement& got = eng.placement();
  EXPECT_EQ(got.threadOf, expect.threadOf);
  EXPECT_EQ(got.stepOf, expect.stepOf);
  EXPECT_EQ(got.threads, expect.threads);
  checkPlacementContract(eng.schedule(), got, 3, "engine placement");
}

}  // namespace
}  // namespace essent
