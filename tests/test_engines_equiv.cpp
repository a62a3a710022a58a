// Cross-engine equivalence: the central correctness property of the
// reproduction. For randomized designs and stimulus, the full-cycle engine
// (reference), the levelized event-driven engine, and the CCSS activity
// engine must agree bit-for-bit on every named signal, every cycle, along
// with printf output and stop behaviour — across partitioner settings,
// elision on/off, and optimization on/off.
#include <gtest/gtest.h>

#include "core/activity_engine.h"
#include "core/parallel_engine.h"
#include "designs/blocks.h"
#include "designs/gcd.h"
#include "designs/tinysoc.h"
#include "sim/compile.h"
#include "sim/event_driven.h"
#include "sim/full_cycle.h"
#include "sim/harness.h"
#include "support/rng.h"
#include "support/strutil.h"
#include "workloads/driver.h"

namespace essent {
namespace {

using core::ActivityEngine;
using core::ParallelActivityEngine;
using core::ScheduleOptions;
using sim::compareEngines;
using sim::Engine;
using sim::EventDrivenEngine;
using sim::FullCycleEngine;
using sim::SimIR;

// Random input stimulus: each input changes with probability `toggleP` per
// cycle (low values model low activity factors). The draw for a given
// (cycle, input) is a pure function of the seed, so the same stimulus object
// drives multiple engines identically — compareEngines calls it once per
// engine per cycle.
sim::StimulusFn randomStimulus(uint64_t seed, double toggleP) {
  auto held = std::make_shared<std::unordered_map<const Engine*, std::unordered_map<int, uint64_t>>>();
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

struct EquivCase {
  uint64_t seed;
  double toggleP;
};

class RandomEquiv : public ::testing::TestWithParam<EquivCase> {};

TEST_P(RandomEquiv, AllEnginesAgree) {
  auto [seed, toggleP] = GetParam();
  designs::RandomDesignConfig cfg;
  cfg.numNodes = 70;
  std::string text = designs::randomDesignFirrtl(seed, cfg);
  SimIR ir = sim::buildFromFirrtl(text);

  FullCycleEngine ref(sim::CompiledDesign::compile(ir));
  EventDrivenEngine ev(sim::CompiledDesign::compile(ir));
  ActivityEngine act(core::CompiledCcss::compile(sim::CompiledDesign::compile(ir), ScheduleOptions{}));

  auto m1 = compareEngines(ref, ev, 120, randomStimulus(seed * 31 + 1, toggleP));
  EXPECT_FALSE(m1.has_value()) << "event-driven: " << m1->describe() << "\n" << text;

  FullCycleEngine ref2(sim::CompiledDesign::compile(ir));
  auto m2 = compareEngines(ref2, act, 120, randomStimulus(seed * 31 + 1, toggleP));
  EXPECT_FALSE(m2.has_value()) << "ccss: " << m2->describe() << "\n" << text;

  // The placed parallel engine must agree signal-for-signal too, at both a
  // narrow and a wide pool.
  for (unsigned threads : {2u, 4u}) {
    FullCycleEngine ref3(sim::CompiledDesign::compile(ir));
    ParallelActivityEngine par(core::CompiledCcss::compile(sim::CompiledDesign::compile(ir), ScheduleOptions{}), threads);
    auto m3 = compareEngines(ref3, par, 120, randomStimulus(seed * 31 + 1, toggleP));
    EXPECT_FALSE(m3.has_value()) << "ccss-par t" << threads << ": " << m3->describe() << "\n"
                                 << text;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, RandomEquiv,
    ::testing::Values(EquivCase{1, 0.5}, EquivCase{2, 0.1}, EquivCase{3, 0.9},
                      EquivCase{4, 0.02}, EquivCase{5, 0.5}, EquivCase{6, 0.1},
                      EquivCase{7, 0.3}, EquivCase{8, 0.02}, EquivCase{9, 1.0},
                      EquivCase{10, 0.25}, EquivCase{11, 0.05}, EquivCase{12, 0.6}),
    [](const ::testing::TestParamInfo<EquivCase>& info) {
      return strfmt("seed%llu_p%d", static_cast<unsigned long long>(info.param.seed),
                    static_cast<int>(info.param.toggleP * 100));
    });

// The CCSS engine must agree across partitioning granularities and with the
// unoptimized (Baseline) IR.
class CpEquiv : public ::testing::TestWithParam<uint32_t> {};

TEST_P(CpEquiv, CcssMatchesReferenceAtEveryCp) {
  uint32_t cp = GetParam();
  for (uint64_t seed : {41ull, 42ull, 43ull}) {
    SimIR ir = sim::buildFromFirrtl(designs::randomDesignFirrtl(seed));
    FullCycleEngine ref(sim::CompiledDesign::compile(ir));
    ScheduleOptions opts;
    opts.partition.smallThreshold = cp;
    ActivityEngine act(core::CompiledCcss::compile(sim::CompiledDesign::compile(ir), opts));
    auto m = compareEngines(ref, act, 100, randomStimulus(seed, 0.2));
    EXPECT_FALSE(m.has_value()) << "cp=" << cp << " seed=" << seed << ": " << m->describe();

    // Granularity changes reshape the placement; the parallel engine must stay
    // correct at every C_p, including the degenerate fine partitioning.
    FullCycleEngine ref2(sim::CompiledDesign::compile(ir));
    ParallelActivityEngine par(core::CompiledCcss::compile(sim::CompiledDesign::compile(ir), opts), 2);
    auto mp = compareEngines(ref2, par, 100, randomStimulus(seed, 0.2));
    EXPECT_FALSE(mp.has_value()) << "par cp=" << cp << " seed=" << seed << ": " << mp->describe();
  }
}

INSTANTIATE_TEST_SUITE_P(Granularity, CpEquiv, ::testing::Values(0u, 1u, 2u, 4u, 8u, 16u, 64u),
                         [](const ::testing::TestParamInfo<uint32_t>& info) {
                           return strfmt("cp%u", info.param);
                         });

TEST(AblationEquiv, ElisionOffStillCorrect) {
  for (uint64_t seed : {51ull, 52ull, 53ull, 54ull}) {
    SimIR ir = sim::buildFromFirrtl(designs::randomDesignFirrtl(seed));
    FullCycleEngine ref(sim::CompiledDesign::compile(ir));
    ScheduleOptions opts;
    opts.stateElision = false;
    ActivityEngine act(core::CompiledCcss::compile(sim::CompiledDesign::compile(ir), opts));
    auto m = compareEngines(ref, act, 100, randomStimulus(seed, 0.3));
    EXPECT_FALSE(m.has_value()) << m->describe();
  }
}

TEST(AblationEquiv, BaselineIrMatchesOptimizedIr) {
  // Same design built with and without compiler optimizations must produce
  // identical named-signal traces (optimizations are semantics-preserving).
  for (uint64_t seed : {61ull, 62ull, 63ull}) {
    std::string text = designs::randomDesignFirrtl(seed);
    sim::BuildOptions raw;
    raw.constProp = raw.cse = raw.dce = false;
    SimIR rawIr = sim::buildFromFirrtl(text, raw);
    SimIR optIr = sim::buildFromFirrtl(text);
    EXPECT_GE(rawIr.ops.size(), optIr.ops.size());
    FullCycleEngine a(sim::CompiledDesign::compile(rawIr));
    FullCycleEngine b(sim::CompiledDesign::compile(optIr));
    auto m = compareEngines(a, b, 80, randomStimulus(seed, 0.4));
    EXPECT_FALSE(m.has_value()) << m->describe();
  }
}

TEST(AblationEquiv, WideValueDesigns) {
  designs::RandomDesignConfig cfg;
  cfg.useWide = true;
  cfg.maxWidth = 90;
  cfg.numNodes = 50;
  for (uint64_t seed : {71ull, 72ull}) {
    SimIR ir = sim::buildFromFirrtl(designs::randomDesignFirrtl(seed, cfg));
    FullCycleEngine ref(sim::CompiledDesign::compile(ir));
    ActivityEngine act(core::CompiledCcss::compile(sim::CompiledDesign::compile(ir), ScheduleOptions{}));
    auto m = compareEngines(ref, act, 60, randomStimulus(seed, 0.3));
    EXPECT_FALSE(m.has_value()) << m->describe();
  }
}

TEST(GcdEquiv, AllEnginesComputeGcd) {
  SimIR ir = sim::buildFromFirrtl(designs::gcdFirrtl(16));
  FullCycleEngine fc(sim::CompiledDesign::compile(ir));
  EventDrivenEngine ev(sim::CompiledDesign::compile(ir));
  ActivityEngine act(core::CompiledCcss::compile(sim::CompiledDesign::compile(ir), ScheduleOptions{}));
  for (Engine* e : std::initializer_list<Engine*>{&fc, &ev, &act}) {
    e->poke("reset", 0);
    e->poke("a", 1071);
    e->poke("b", 462);
    e->poke("load", 1);
    e->tick();  // outputs still reflect pre-load state
    e->poke("load", 0);
    e->tick();
    for (int i = 0; i < 200 && e->peek("valid") == 0; i++) e->tick();
    EXPECT_EQ(e->peek("result"), 21u) << e->name();
  }
}

// --- TinySoC: functional correctness against the host reference model and
// engine equivalence while running real programs. ---

TEST(TinySoC, DhrystoneMatchesReferenceModel) {
  SimIR ir = sim::buildFromFirrtl(designs::tinySoCFirrtl(designs::socTiny()));
  FullCycleEngine eng(sim::CompiledDesign::compile(ir));
  auto prog = workloads::dhrystoneProgram(16);
  workloads::loadProgram(eng, prog);
  auto res = workloads::runWorkload(eng, 50000);
  EXPECT_TRUE(res.halted);
  EXPECT_EQ(res.result, workloads::dhrystoneExpected(16));
  EXPECT_GT(res.instret, 16u * 10);
}

TEST(TinySoC, MatmulMatchesReferenceModel) {
  SimIR ir = sim::buildFromFirrtl(designs::tinySoCFirrtl(designs::socTiny()));
  FullCycleEngine eng(sim::CompiledDesign::compile(ir));
  auto prog = workloads::matmulProgram(3, 1);
  workloads::loadProgram(eng, prog);
  auto res = workloads::runWorkload(eng, 100000);
  EXPECT_TRUE(res.halted);
  EXPECT_EQ(res.result, workloads::matmulExpected(3, 1));
}

TEST(TinySoC, PchaseMatchesReferenceModel) {
  SimIR ir = sim::buildFromFirrtl(designs::tinySoCFirrtl(designs::socTiny()));
  FullCycleEngine eng(sim::CompiledDesign::compile(ir));
  auto prog = workloads::pchaseProgram(16, 2);
  workloads::loadProgram(eng, prog);
  auto res = workloads::runWorkload(eng, 50000);
  EXPECT_TRUE(res.halted);
  EXPECT_EQ(res.result, workloads::pchaseExpected(16, 2));
}

TEST(TinySoC, AllEnginesAgreeOnWorkload) {
  SimIR ir = sim::buildFromFirrtl(designs::tinySoCFirrtl(designs::socTiny()));
  auto prog = workloads::dhrystoneProgram(8);

  auto run = [&](Engine& e) {
    workloads::loadProgram(e, prog);
    return workloads::runWorkload(e, 20000);
  };
  FullCycleEngine fc(sim::CompiledDesign::compile(ir));
  EventDrivenEngine ev(sim::CompiledDesign::compile(ir));
  ActivityEngine act(core::CompiledCcss::compile(sim::CompiledDesign::compile(ir), ScheduleOptions{}));
  ParallelActivityEngine par(core::CompiledCcss::compile(sim::CompiledDesign::compile(ir), ScheduleOptions{}), 3);
  auto r1 = run(fc), r2 = run(ev), r3 = run(act), r4 = run(par);
  EXPECT_EQ(r1.cycles, r2.cycles);
  EXPECT_EQ(r1.cycles, r3.cycles);
  EXPECT_EQ(r1.result, r2.result);
  EXPECT_EQ(r1.result, r3.result);
  EXPECT_EQ(r1.instret, r3.instret);
  EXPECT_EQ(fc.printOutput(), act.printOutput());
  // The CCSS engine must actually have skipped work on this workload.
  EXPECT_LT(act.stats().opsEvaluated, fc.stats().opsEvaluated);
  // The parallel engine does identical work in a different interleaving.
  EXPECT_EQ(r4.cycles, r3.cycles);
  EXPECT_EQ(r4.result, r3.result);
  EXPECT_EQ(r4.instret, r3.instret);
  EXPECT_EQ(par.printOutput(), act.printOutput());
  EXPECT_EQ(r4.stats.opsEvaluated, r3.stats.opsEvaluated);
  EXPECT_EQ(r4.stats.triggerSets, r3.stats.triggerSets);
}

TEST(TinySoC, PchaseHasLowerEffectiveActivityThanDhrystone) {
  SimIR ir = sim::buildFromFirrtl(designs::tinySoCFirrtl(designs::socTiny()));
  auto measure = [&](const workloads::Program& p) {
    ActivityEngine eng(core::CompiledCcss::compile(sim::CompiledDesign::compile(ir), ScheduleOptions{}));
    workloads::loadProgram(eng, p);
    workloads::runWorkload(eng, 60000);
    return eng.effectiveActivity();
  };
  double dhry = measure(workloads::dhrystoneProgram(32));
  double pch = measure(workloads::pchaseProgram(32, 4));
  // Dependent-load stalls freeze the core: pchase must show lower activity.
  EXPECT_LT(pch, dhry);
  EXPECT_LT(pch, 1.0);
}

}  // namespace
}  // namespace essent
