// Wave-parallel execution tests: thread-pool fork/join semantics, the
// levelization invariants that make lock-free partition sweeps safe, and
// exact equivalence (signals AND work counters) between the serial and
// parallel CCSS engines. Labelled `par` so the tsan preset can run just
// this group.
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

// --- Levelization invariants ---------------------------------------------
//
// The race-freedom argument for the wave-parallel sweep rests on three
// structural properties of the levelization; check them on every design
// shape we have (see docs/PARALLEL.md for why each one matters).

void checkLevelizationInvariants(const CondPartSchedule& sched, const std::string& what) {
  const size_t n = sched.parts.size();
  ASSERT_EQ(sched.levelOf.size(), n) << what;

  // Waves partition the schedule positions, ascending within each wave,
  // and agree with levelOf.
  std::vector<uint8_t> seen(n, 0);
  for (size_t l = 0; l < sched.waves.size(); l++) {
    EXPECT_FALSE(sched.waves[l].empty()) << what << ": empty wave " << l;
    for (size_t k = 0; k < sched.waves[l].size(); k++) {
      int32_t pos = sched.waves[l][k];
      ASSERT_GE(pos, 0);
      ASSERT_LT(static_cast<size_t>(pos), n);
      EXPECT_EQ(sched.levelOf[static_cast<size_t>(pos)], static_cast<int32_t>(l)) << what;
      EXPECT_EQ(seen[static_cast<size_t>(pos)], 0) << what << ": position listed twice";
      seen[static_cast<size_t>(pos)] = 1;
      if (k > 0) {
        EXPECT_LT(sched.waves[l][k - 1], pos) << what << ": wave not ascending";
      }
    }
  }
  for (size_t pos = 0; pos < n; pos++) EXPECT_EQ(seen[pos], 1) << what << ": position unplaced";

  std::vector<std::vector<size_t>> memWriters;  // memIdx -> positions, schedule order
  for (size_t pos = 0; pos < n; pos++) {
    const core::CondPart& part = sched.parts[pos];
    const int32_t myLevel = sched.levelOf[pos];

    // (1) Combinational wakes cross to a STRICTLY later wave: a consumer
    //     woken mid-wave must not be swept concurrently in the same wave.
    for (const core::PartOutput& o : part.outputs)
      for (int32_t c : o.consumers)
        EXPECT_GT(sched.levelOf[static_cast<size_t>(c)], myLevel)
            << what << ": output consumer not in a later wave";

    // (2) Elided state wakes target this partition or a STRICTLY earlier
    //     wave (readers are scheduled before the writer): setting those
    //     flags can never race with a same-wave test-and-clear.
    for (const core::SchedRegWrite& rw : part.regWrites)
      for (int32_t w : rw.wakeParts)
        EXPECT_TRUE(w == static_cast<int32_t>(pos) ||
                    sched.levelOf[static_cast<size_t>(w)] < myLevel)
            << what << ": reg wake target in same/later wave";
    for (const core::SchedMemWrite& mw : part.memWrites) {
      for (int32_t w : mw.wakeParts)
        EXPECT_TRUE(w == static_cast<int32_t>(pos) ||
                    sched.levelOf[static_cast<size_t>(w)] < myLevel)
            << what << ": mem wake target in same/later wave";
      size_t mem = static_cast<size_t>(mw.memIdx);
      if (memWriters.size() <= mem) memWriters.resize(mem + 1);
      memWriters[mem].push_back(pos);
    }
  }

  // (3) Two partitions with elided writes to the same memory never share a
  //     wave (they may hit the same row): the hazard chain must have
  //     separated them, in schedule order.
  for (const auto& writers : memWriters)
    for (size_t i = 1; i < writers.size(); i++)
      EXPECT_LT(sched.levelOf[writers[i - 1]], sched.levelOf[writers[i]])
          << what << ": same-mem elided writers share a wave";
}

TEST(Levelization, InvariantsHoldAcrossDesignsAndGranularities) {
  std::vector<std::pair<std::string, std::string>> texts = {
      {"gatedBanks", designs::gatedBanksFirrtl(16, 16)},
      {"gcd", designs::gcdFirrtl(16)},
      {"pipeline", designs::pipelineFirrtl(6, 16)},
      {"systolic", designs::systolicFirrtl(designs::SystolicConfig{})},
      {"tinysoc", designs::tinySoCFirrtl(designs::socTiny())},
  };
  for (uint64_t seed : {21ull, 22ull, 23ull, 24ull})
    texts.emplace_back("random" + std::to_string(seed), designs::randomDesignFirrtl(seed));

  for (const auto& [name, text] : texts) {
    SimIR ir = sim::buildFromFirrtl(text);
    core::Netlist nl = core::Netlist::build(ir);
    for (uint32_t cp : {0u, 4u, 64u}) {
      ScheduleOptions opts;
      opts.partition.smallThreshold = cp;
      CondPartSchedule sched = core::buildSchedule(nl, opts);
      checkLevelizationInvariants(sched, name + "/cp" + std::to_string(cp));
    }
    // Elision off: no in-partition state writes, so invariant (2)/(3) are
    // vacuous but (1) and the wave partition must still hold.
    ScheduleOptions noElide;
    noElide.stateElision = false;
    checkLevelizationInvariants(core::buildSchedule(nl, noElide), name + "/noelide");
  }
}

TEST(Levelization, CriticalPathExportedAndBounded) {
  SimIR ir = sim::buildFromFirrtl(designs::tinySoCFirrtl(designs::socTiny()));
  CondPartSchedule sched = core::buildSchedule(core::Netlist::build(ir));
  EXPECT_GT(sched.numLevels(), 0u);
  EXPECT_LE(sched.numLevels(), sched.parts.size());
  size_t widest = 0;
  for (const auto& w : sched.waves) widest = std::max(widest, w.size());
  EXPECT_EQ(sched.maxWaveWidth(), widest);
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
