// Parallel execution tests: thread-pool fork/join semantics and exact
// equivalence (signals AND work counters) between the serial and parallel
// CCSS engines. The ordering rules that make the placed sweep race-free
// are checked in test_placement.cpp. Labelled `par` so the tsan preset can
// run just this group.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>

#include "core/activity_engine.h"
#include "core/parallel_engine.h"
#include "designs/blocks.h"
#include "designs/gcd.h"
#include "designs/systolic.h"
#include "designs/tinysoc.h"
#include "sim/compile.h"
#include "sim/full_cycle.h"
#include "sim/harness.h"
#include "support/rng.h"
#include "support/threadpool.h"
#include "workloads/driver.h"

namespace essent {
namespace {

using core::ActivityEngine;
using core::CondPartSchedule;
using core::ParallelActivityEngine;
using core::ScheduleOptions;
using sim::compareEngines;
using sim::Engine;
using sim::FullCycleEngine;
using sim::SimIR;
using support::ThreadPool;

// --- ThreadPool -----------------------------------------------------------

TEST(ThreadPool, SingleLaneRunsInlineOnCaller) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.numThreads(), 1u);
  unsigned ran = 0;
  std::thread::id caller = std::this_thread::get_id();
  pool.run([&](unsigned lane) {
    EXPECT_EQ(lane, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ran++;
  });
  EXPECT_EQ(ran, 1u);
}

TEST(ThreadPool, EveryLaneRunsExactlyOncePerFork) {
  ThreadPool pool(4);
  std::vector<std::atomic<uint32_t>> hits(4);
  pool.run([&](unsigned lane) { hits[lane].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1u);
}

TEST(ThreadPool, ReusableAcrossManyForksWithFullJoin) {
  // The join barrier must be complete: after run() returns, every lane's
  // side effects are visible. 2000 forks also exercises the epoch
  // spin/yield/park transitions repeatedly.
  ThreadPool pool(3);
  uint64_t total = 0;
  std::vector<uint64_t> laneSum(3, 0);
  for (uint64_t f = 0; f < 2000; f++) {
    pool.run([&, f](unsigned lane) { laneSum[lane] += f; });
    total += 3 * f;  // plain reads: join is the synchronization point
    uint64_t sum = laneSum[0] + laneSum[1] + laneSum[2];
    ASSERT_EQ(sum, total) << "fork " << f;
  }
}

TEST(ThreadPool, SharedCursorDistributesAllItems) {
  ThreadPool pool(4);
  constexpr size_t kItems = 10000;
  std::vector<uint8_t> claimed(kItems, 0);
  std::atomic<size_t> cursor{0};
  pool.run([&](unsigned) {
    for (;;) {
      size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= kItems) return;
      claimed[i]++;
    }
  });
  for (size_t i = 0; i < kItems; i++) ASSERT_EQ(claimed[i], 1) << i;
}

TEST(ThreadPool, DefaultThreadCountHonorsEnv) {
  setenv("ESSENT_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool::defaultThreadCount(), 3u);
  unsetenv("ESSENT_THREADS");
  EXPECT_GE(ThreadPool::defaultThreadCount(), 1u);
}

// --- Serial vs parallel engine equivalence --------------------------------

// Same stimulus idiom as test_engines_equiv.cpp: deterministic per (cycle,
// input) so every engine sees identical pokes.
sim::StimulusFn randomStimulus(uint64_t seed, double toggleP) {
  auto held = std::make_shared<
      std::unordered_map<const Engine*, std::unordered_map<int, uint64_t>>>();
  return [seed, held, toggleP](Engine& e, uint64_t cycle) {
    auto& mine = (*held)[&e];
    int idx = 0;
    for (int32_t in : e.ir().inputs) {
      const auto& sig = e.ir().signals[static_cast<size_t>(in)];
      idx++;
      if (sig.name == "reset") {
        e.poke("reset", cycle < 2 ? 1 : 0);
        continue;
      }
      Rng draw(seed ^ (cycle * 0x9e3779b97f4a7c15ULL) ^ (static_cast<uint64_t>(idx) << 32));
      auto [it, inserted] = mine.emplace(idx, 0);
      if (inserted || draw.nextChance(toggleP)) it->second = draw.next();
      e.poke(sig.name, it->second);
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

class ParallelEquiv : public ::testing::TestWithParam<unsigned> {};

TEST_P(ParallelEquiv, MatchesSerialSignalsAndExactCounters) {
  // The parallel engine does the same work in a different interleaving, so
  // not just every signal but every WORK COUNTER must match the serial
  // engine exactly — the strongest determinism statement we can test.
  const unsigned threads = GetParam();
  for (const std::string& text :
       {designs::gatedBanksFirrtl(16, 16), designs::gcdFirrtl(16),
        designs::systolicFirrtl(designs::SystolicConfig{}),
        designs::randomDesignFirrtl(31), designs::randomDesignFirrtl(32)}) {
    SimIR ir = sim::buildFromFirrtl(text);
    CondPartSchedule sched = core::buildSchedule(core::Netlist::build(ir));
    ActivityEngine serial(core::CompiledCcss::compile(sim::CompiledDesign::compile(ir), sched));
    ParallelActivityEngine par(core::CompiledCcss::compile(sim::CompiledDesign::compile(ir), sched), threads);
    // Effective width clamps to the placement's useful width (one lane per
    // partition) — tiny designs may expose fewer partitions than lanes.
    EXPECT_EQ(par.threadCount(),
              std::min<unsigned>(threads, static_cast<unsigned>(sched.numPartitions())));

    auto stim = randomStimulus(threads * 1000 + 7, 0.3);
    for (uint64_t c = 0; c < 150; c++) {
      stim(serial, c);
      stim(par, c);
      serial.tick();
      par.tick();
      for (int32_t o : ir.outputs)
        ASSERT_EQ(serial.peekSig(o), par.peekSig(o)) << ir.name << " cycle " << c;
    }
    expectStatsEqual(serial.stats(), par.stats(), ir.name);
    EXPECT_EQ(serial.effectiveActivity(), par.effectiveActivity()) << ir.name;
  }
}

TEST_P(ParallelEquiv, MatchesFullCycleReference) {
  const unsigned threads = GetParam();
  for (uint64_t seed : {81ull, 82ull, 83ull}) {
    SimIR ir = sim::buildFromFirrtl(designs::randomDesignFirrtl(seed));
    FullCycleEngine ref(sim::CompiledDesign::compile(ir));
    ParallelActivityEngine par(core::CompiledCcss::compile(sim::CompiledDesign::compile(ir), ScheduleOptions{}), threads);
    auto m = compareEngines(ref, par, 120, randomStimulus(seed, 0.25));
    EXPECT_FALSE(m.has_value()) << "threads=" << threads << " seed=" << seed << ": "
                                << m->describe();
  }
}

TEST_P(ParallelEquiv, WorkloadRunsBitExact) {
  const unsigned threads = GetParam();
  SimIR ir = sim::buildFromFirrtl(designs::tinySoCFirrtl(designs::socTiny()));
  CondPartSchedule sched = core::buildSchedule(core::Netlist::build(ir));
  auto prog = workloads::dhrystoneProgram(8);

  ActivityEngine serial(core::CompiledCcss::compile(sim::CompiledDesign::compile(ir), sched));
  workloads::loadProgram(serial, prog);
  auto rs = workloads::runWorkload(serial, 20000);

  ParallelActivityEngine par(core::CompiledCcss::compile(sim::CompiledDesign::compile(ir), sched), threads);
  workloads::loadProgram(par, prog);
  auto rp = workloads::runWorkload(par, 20000);

  EXPECT_TRUE(rp.halted);
  EXPECT_EQ(rs.cycles, rp.cycles);
  EXPECT_EQ(rs.result, rp.result);
  EXPECT_EQ(rs.instret, rp.instret);
  EXPECT_EQ(serial.printOutput(), par.printOutput());
  expectStatsEqual(rs.stats, rp.stats, "tinysoc workload");
}

TEST_P(ParallelEquiv, ProfilingCountersMergeExactly) {
  // Per-lane counters merged at cycle end must satisfy the same obs
  // invariants the serial engine guarantees: per-partition profile sums
  // equal the global stats, with profiling not perturbing simulation.
  const unsigned threads = GetParam();
  SimIR ir = sim::buildFromFirrtl(designs::gatedBanksFirrtl(16, 16));
  CondPartSchedule sched = core::buildSchedule(core::Netlist::build(ir));

  ParallelActivityEngine plain(core::CompiledCcss::compile(sim::CompiledDesign::compile(ir), sched), threads);
  ParallelActivityEngine profiled(core::CompiledCcss::compile(sim::CompiledDesign::compile(ir), sched), threads);
  profiled.setProfiling(true);
  for (uint64_t c = 0; c < 400; c++) {
    for (Engine* e : {static_cast<Engine*>(&plain), static_cast<Engine*>(&profiled)}) {
      e->poke("reset", c < 2);
      e->poke("bankSel", c % 5 == 0 ? c % 16 : 999);
      e->poke("wdata", c * 13);
    }
    plain.tick();
    profiled.tick();
  }
  for (int32_t o : ir.outputs) EXPECT_EQ(plain.peekSig(o), profiled.peekSig(o));
  expectStatsEqual(plain.stats(), profiled.stats(), "profiling transparency");

  const core::ActivityProfile& prof = profiled.profile();
  ASSERT_EQ(prof.parts.size(), profiled.schedule().numPartitions());
  uint64_t ops = 0, acts = 0, wakes = 0;
  for (const core::PartitionProfile& pp : prof.parts) {
    ops += pp.opsEvaluated;
    acts += pp.activations;
    wakes += pp.wakesIssued;
  }
  EXPECT_EQ(ops, profiled.stats().opsEvaluated);
  EXPECT_EQ(acts, profiled.stats().partitionActivations);
  // triggerSets also counts input-sweep and phase-2 wakes, which happen
  // outside any partition run; the profile only sees in-partition wakes.
  EXPECT_LE(wakes, profiled.stats().triggerSets);
  EXPECT_GT(wakes, 0u);
  EXPECT_EQ(prof.profiledCycles, profiled.stats().cycles);
  uint64_t timeline = std::accumulate(prof.activationsPerWindow.begin(),
                                      prof.activationsPerWindow.end(), uint64_t{0});
  EXPECT_EQ(timeline, acts);
}

INSTANTIATE_TEST_SUITE_P(Threads, ParallelEquiv, ::testing::Values(2u, 4u),
                         [](const ::testing::TestParamInfo<unsigned>& info) {
                           // Appending sidesteps GCC 12's false -Wrestrict
                           // on `"t" + std::string`.
                           std::string name = "t";
                           name += std::to_string(info.param);
                           return name;
                         });

TEST(ParallelEngine, ZeroThreadsUsesDefaultCount) {
  setenv("ESSENT_THREADS", "2", 1);
  SimIR ir = sim::buildFromFirrtl(designs::gcdFirrtl(8));
  ParallelActivityEngine eng(core::CompiledCcss::compile(sim::CompiledDesign::compile(ir), ScheduleOptions{}), 0);
  EXPECT_EQ(eng.threadCount(), 2u);
  unsetenv("ESSENT_THREADS");
}

TEST(ParallelEngine, ResetStateReplaysIdentically) {
  SimIR ir = sim::buildFromFirrtl(designs::gatedBanksFirrtl(8, 16));
  CondPartSchedule sched = core::buildSchedule(core::Netlist::build(ir));
  ParallelActivityEngine eng(core::CompiledCcss::compile(sim::CompiledDesign::compile(ir), sched), 2);
  auto run = [&] {
    std::vector<uint64_t> trace;
    for (uint64_t c = 0; c < 60; c++) {
      eng.poke("reset", c < 2);
      eng.poke("bankSel", c % 3 ? 999 : c % 8);
      eng.poke("wdata", c + 1);
      eng.tick();
      for (int32_t o : ir.outputs) trace.push_back(eng.peekSig(o));
    }
    return trace;
  };
  auto first = run();
  eng.resetState();
  EXPECT_EQ(run(), first);
}

}  // namespace
}  // namespace essent
