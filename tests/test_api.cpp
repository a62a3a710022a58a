// Engine-conformance suite for the public API (`ctest -L api`): every
// in-process EngineKind constructed through sim::makeEngine on the shipped
// examples, cross-checked signal-for-signal against the full-cycle
// reference, plus EngineStats invariants, reset semantics, factory name
// parsing, and SimFarm determinism (farm(N) must be bit-identical to N
// solo runs — run under TSan by the tsan preset).
//
// Deliberately includes only the public <essent/...> headers: if this file
// stops compiling, the stable surface (docs/API.md) broke.
#include <gtest/gtest.h>

#include <essent/engine.h>
#include <essent/farm.h>
#include <essent/options.h>
#include <essent/results.h>
#include <essent/vcd.h>

#include <fstream>
#include <sstream>
#include <stdexcept>

#ifndef EXAMPLES_DIR
#error "EXAMPLES_DIR must be defined by the build"
#endif
#ifndef FUZZ_CORPUS_DIR
#error "FUZZ_CORPUS_DIR must be defined by the build"
#endif

namespace {

using namespace essent;

std::string readExample(const char* name) {
  std::ifstream f(std::string(EXAMPLES_DIR) + "/" + name);
  EXPECT_TRUE(f.good()) << "missing example " << name;
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

std::shared_ptr<const sim::CompiledDesign> compileExample(const char* name) {
  return sim::CompiledDesign::compile(sim::buildFromFirrtl(readExample(name)));
}

// Exercises both designs' inputs: GCD gets restarting operand pairs,
// CounterBanks a rotating bank select with duty-cycled enable.
void driveExample(sim::Engine& eng, uint64_t cycle) {
  if (cycle < 2) {
    eng.poke("reset", 1);
    return;
  }
  eng.poke("reset", 0);
  if (eng.ir().findSignal("start") >= 0) {  // gcd.fir
    eng.poke("start", cycle % 16 == 2 ? 1 : 0);
    eng.poke("a", 18 + 7 * (cycle / 16));
    eng.poke("b", 12 + 5 * (cycle / 16));
  } else {  // counterbanks.fir
    eng.poke("en", cycle % 3 != 0 ? 1 : 0);
    eng.poke("sel", (cycle / 5) % 4);
  }
}

std::vector<std::pair<std::string, std::string>> finalOutputs(const sim::Engine& eng) {
  std::vector<std::pair<std::string, std::string>> out;
  const sim::SimIR& ir = eng.ir();
  for (int32_t o : ir.outputs)
    out.emplace_back(ir.signals[static_cast<size_t>(o)].name, eng.peekSigBV(o).toHexString());
  return out;
}

const char* kExamples[] = {"gcd.fir", "counterbanks.fir"};

TEST(ApiFactory, ConstructsEveryInProcessKind) {
  for (const char* ex : kExamples) {
    auto design = compileExample(ex);
    for (sim::EngineKind k : sim::inProcessEngineKinds()) {
      auto eng = sim::makeEngine(k, design);
      ASSERT_NE(eng, nullptr) << ex << " " << sim::engineKindName(k);
      // CcssPar may gracefully degrade to the serial engine on small hosts,
      // in which case it reports the serial long name.
      if (k != sim::EngineKind::CcssPar) {
        EXPECT_STREQ(eng->name(), sim::engineKindLongName(k)) << ex;
      }
      eng->tick();
      EXPECT_EQ(eng->stats().cycles, 1u);
    }
  }
}

TEST(ApiFactory, RejectsCodegen) {
  auto design = compileExample("gcd.fir");
  EXPECT_THROW(sim::makeEngine(sim::EngineKind::Codegen, design), std::invalid_argument);
}

TEST(ApiFactory, KindNamesParseRoundTrip) {
  for (sim::EngineKind k : sim::allEngineKinds()) {
    sim::EngineKind parsed;
    ASSERT_TRUE(sim::parseEngineKind(sim::engineKindName(k), parsed));
    EXPECT_EQ(parsed, k);
    ASSERT_TRUE(sim::parseEngineKind(sim::engineKindLongName(k), parsed));
    EXPECT_EQ(parsed, k);
  }
  sim::EngineKind parsed;
  EXPECT_FALSE(sim::parseEngineKind("verilator", parsed));
  EXPECT_FALSE(sim::parseEngineKind("", parsed));
}

TEST(ApiConformance, AllKindsMatchFullCycleReference) {
  for (const char* ex : kExamples) {
    auto design = compileExample(ex);
    for (sim::EngineKind k : sim::inProcessEngineKinds()) {
      if (k == sim::EngineKind::FullCycle) continue;
      auto ref = sim::makeEngine(sim::EngineKind::FullCycle, design);
      auto dut = sim::makeEngine(k, design);
      auto mismatch = sim::compareEngines(*ref, *dut, 300, driveExample);
      EXPECT_FALSE(mismatch.has_value())
          << ex << " " << sim::engineKindName(k) << ": " << mismatch->describe();
    }
  }
}

TEST(ApiConformance, StatsInvariants) {
  auto design = compileExample("counterbanks.fir");
  for (sim::EngineKind k : sim::inProcessEngineKinds()) {
    auto eng = sim::makeEngine(k, design);
    sim::RunResult res = sim::runEngine(*eng, 500, driveExample);
    EXPECT_EQ(res.cycles, 500u) << sim::engineKindName(k);
    EXPECT_EQ(res.stats.cycles, 500u);
    EXPECT_GT(res.stats.opsEvaluated, 0u);
    EXPECT_LE(res.stats.partitionActivations, res.stats.partitionChecks);
    if (auto* act = dynamic_cast<core::ActivityEngine*>(eng.get())) {
      EXPECT_GE(act->effectiveActivity(), 0.0);
      EXPECT_LE(act->effectiveActivity(), 1.0);
      // The design is enable-gated: the CCSS engine must be skipping work.
      EXPECT_LT(res.stats.opsEvaluated, 500u * design->ir.ops.size());
    }
  }
}

TEST(ApiConformance, ResetReturnsEveryKindToIdenticalState) {
  auto design = compileExample("gcd.fir");
  for (sim::EngineKind k : sim::inProcessEngineKinds()) {
    // Run a while, then hold reset: registers must come back to the same
    // values a fresh instance reaches after the same reset pulse.
    auto dirty = sim::makeEngine(k, design);
    sim::runEngine(*dirty, 100, driveExample);
    dirty->poke("start", 0);
    dirty->poke("reset", 1);
    dirty->tick();
    dirty->tick();

    auto fresh = sim::makeEngine(k, design);
    fresh->poke("start", 0);
    fresh->poke("reset", 1);
    fresh->tick();
    fresh->tick();

    EXPECT_EQ(finalOutputs(*dirty), finalOutputs(*fresh)) << sim::engineKindName(k);
    EXPECT_EQ(dirty->peek("busy"), 0u);
  }
}

TEST(ApiSharedStructure, DerivedStructureIsBuiltOncePerDesign) {
  auto design = compileExample("counterbanks.fir");
  core::ScheduleOptions so;
  auto a = core::CompiledCcss::get(design, so);
  auto b = core::CompiledCcss::get(design, so);
  // Cache hit: the same immutable schedule body (the wrapper pairing it
  // with the design is rebuilt per call, so compare the cached body).
  EXPECT_EQ(a->body.get(), b->body.get());
  // Different schedule-affecting options must NOT alias.
  core::ScheduleOptions other;
  other.partition.smallThreshold = 2;
  auto c = core::CompiledCcss::get(design, other);
  EXPECT_NE(a->body.get(), c->body.get());
  // Engines constructed from the shared design alias its structure.
  auto e1 = sim::makeEngine(sim::EngineKind::Ccss, design);
  auto e2 = sim::makeEngine(sim::EngineKind::Ccss, design);
  EXPECT_EQ(&e1->design()->ir, &e2->design()->ir);
}

std::vector<core::FarmJob> farmJobs(size_t n, uint64_t cycles) {
  std::vector<core::FarmJob> jobs(n);
  for (size_t i = 0; i < n; i++) {
    jobs[i].name = "inst" + std::to_string(i);
    jobs[i].maxCycles = cycles;
    // Phase-shifted stimulus so instances diverge from each other.
    jobs[i].stimulus = [i](sim::Engine& eng, uint64_t cycle) {
      driveExample(eng, cycle + 3 * i);
    };
  }
  return jobs;
}

TEST(ApiFarm, BitIdenticalToSoloRuns) {
  for (const char* ex : kExamples) {
    auto design = compileExample(ex);
    for (sim::EngineKind k : {sim::EngineKind::FullCycle, sim::EngineKind::Ccss}) {
      std::vector<core::FarmJob> jobs = farmJobs(8, 400);

      core::FarmOptions fo;
      fo.kind = k;
      fo.workers = 4;
      core::SimFarm farm(design, fo);
      core::FarmReport report = farm.run(jobs);
      ASSERT_TRUE(report.allOk());
      ASSERT_EQ(report.instances.size(), jobs.size());

      for (size_t i = 0; i < jobs.size(); i++) {
        auto solo = sim::makeEngine(k, design);
        sim::RunResult res = sim::runEngine(*solo, jobs[i].maxCycles, jobs[i].stimulus);
        const core::FarmInstanceResult& inst = report.instances[i];
        EXPECT_EQ(inst.cycles, res.cycles) << ex << " inst " << i;
        EXPECT_EQ(inst.stopped, res.stopped);
        EXPECT_EQ(inst.exitCode, res.exitCode);
        EXPECT_EQ(inst.outputs, finalOutputs(*solo)) << ex << " inst " << i;
        EXPECT_EQ(inst.printOutput, solo->printOutput());
        // Work counters are deterministic too — same ops, same skips.
        EXPECT_EQ(inst.stats.opsEvaluated, res.stats.opsEvaluated);
        EXPECT_EQ(inst.stats.partitionActivations, res.stats.partitionActivations);
      }
    }
  }
}

TEST(ApiFarm, WorkerCountDoesNotChangeResults) {
  auto design = compileExample("counterbanks.fir");
  std::vector<core::FarmJob> jobs = farmJobs(6, 300);
  std::vector<core::FarmReport> reports;
  for (unsigned workers : {1u, 2u, 6u}) {
    core::FarmOptions fo;
    fo.workers = workers;
    core::SimFarm farm(design, fo);
    reports.push_back(farm.run(jobs));
    ASSERT_TRUE(reports.back().allOk());
  }
  for (size_t w = 1; w < reports.size(); w++)
    for (size_t i = 0; i < jobs.size(); i++) {
      EXPECT_EQ(reports[w].instances[i].outputs, reports[0].instances[i].outputs);
      EXPECT_EQ(reports[w].instances[i].stats.opsEvaluated,
                reports[0].instances[i].stats.opsEvaluated);
    }
}

TEST(ApiFarm, AggregatesAreConsistent) {
  auto design = compileExample("counterbanks.fir");
  std::vector<core::FarmJob> jobs = farmJobs(5, 200);
  core::SimFarm farm(design, {});
  core::FarmReport report = farm.run(jobs);
  uint64_t sum = 0;
  for (const auto& inst : report.instances) sum += inst.cycles;
  EXPECT_EQ(report.totalCycles, sum);
  EXPECT_EQ(report.totalCycles, 5u * 200u);
  EXPECT_GE(report.workers, 1u);
  EXPECT_GT(report.wallSeconds, 0.0);
  EXPECT_GT(report.instancesPerSec, 0.0);
  EXPECT_GT(report.aggregateCyclesPerSec, 0.0);
}

TEST(ApiFarm, InstanceErrorsAreTrappedNotFatal) {
  auto design = compileExample("counterbanks.fir");
  std::vector<core::FarmJob> jobs = farmJobs(3, 100);
  jobs[1].init = [](sim::Engine&) { throw std::runtime_error("bad instance"); };
  core::SimFarm farm(design, {});
  core::FarmReport report = farm.run(jobs);
  EXPECT_FALSE(report.allOk());
  EXPECT_NE(report.instances[1].error.find("bad instance"), std::string::npos);
  EXPECT_TRUE(report.instances[0].error.empty());
  EXPECT_TRUE(report.instances[2].error.empty());
  EXPECT_EQ(report.instances[0].cycles, 100u);
}

TEST(ApiFarm, RejectsCodegenAndNullDesign) {
  auto design = compileExample("gcd.fir");
  core::FarmOptions fo;
  fo.kind = sim::EngineKind::Codegen;
  EXPECT_THROW(core::SimFarm(design, fo), std::invalid_argument);
  EXPECT_THROW(core::SimFarm(nullptr, {}), std::invalid_argument);
}

TEST(ApiFarm, EmptyBatchIsANoop) {
  core::SimFarm farm(compileExample("gcd.fir"), {});
  core::FarmReport report = farm.run({});
  EXPECT_TRUE(report.instances.empty());
  EXPECT_EQ(report.totalCycles, 0u);
}

// --- SIMD lane engine conformance (docs/SIMD.md) -------------------------

std::string readCorpus(const char* name) {
  std::ifstream f(std::string(FUZZ_CORPUS_DIR) + "/" + name);
  EXPECT_TRUE(f.good()) << "missing corpus file " << name;
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

// Generic divergent stimulus: every input gets a lane- and cycle-dependent
// value (poke masks to the port width), so it works unchanged on the
// examples and on fuzz-corpus corner circuits.
void driveLaneMix(sim::Engine& eng, uint64_t cycle, unsigned lane) {
  const sim::SimIR& ir = eng.ir();
  for (size_t i = 0; i < ir.inputs.size(); i++) {
    const auto& sig = ir.signals[static_cast<size_t>(ir.inputs[i])];
    if (sig.name == "reset") {
      eng.poke("reset", cycle < 2 ? 1 : 0);
      continue;
    }
    eng.poke(sig.name, (cycle * 2654435761ull + lane * 40503ull) >> (i % 13));
  }
}

TEST(ApiLane, GroupsBitIdenticalToSoloCcssAcrossLaneCounts) {
  const std::pair<const char*, std::string> designsUnderTest[] = {
      {"gcd.fir", readExample("gcd.fir")},
      {"counterbanks.fir", readExample("counterbanks.fir")},
      {"corner_mux_deep.fir", readCorpus("corner_mux_deep.fir")},
  };
  for (const auto& [name, text] : designsUnderTest) {
    auto design = sim::CompiledDesign::compile(sim::buildFromFirrtl(text));
    auto ccss = core::CompiledCcss::get(design, core::ScheduleOptions{});
    for (unsigned lanes : {1u, 4u, 8u, 64u}) {
      core::LaneEngine group(ccss, lanes);
      std::vector<std::unique_ptr<sim::Engine>> solo;
      for (unsigned l = 0; l < lanes; l++)
        solo.push_back(sim::makeEngine(sim::EngineKind::Ccss, design));

      const uint64_t cycles = lanes == 64 ? 60 : 200;
      for (uint64_t c = 0; c < cycles; c++) {
        for (unsigned l = 0; l < lanes; l++) {
          driveLaneMix(group.lane(l), c, l);
          driveLaneMix(*solo[l], c, l);
        }
        group.tick();
        for (unsigned l = 0; l < lanes; l++) solo[l]->tick();
      }
      for (unsigned l = 0; l < lanes; l++) {
        const sim::Engine& a = group.lane(l);
        const sim::Engine& b = *solo[l];
        EXPECT_EQ(finalOutputs(a), finalOutputs(b))
            << name << " lanes=" << lanes << " lane " << l;
        // Per-lane counters mirror the solo engine exactly, and obey the
        // same invariants every kind does.
        EXPECT_EQ(a.stats().cycles, b.stats().cycles);
        EXPECT_EQ(a.stats().opsEvaluated, b.stats().opsEvaluated)
            << name << " lanes=" << lanes << " lane " << l;
        EXPECT_EQ(a.stats().partitionActivations, b.stats().partitionActivations);
        EXPECT_EQ(a.stats().partitionChecks, b.stats().partitionChecks);
        EXPECT_LE(a.stats().partitionActivations, a.stats().partitionChecks);
        EXPECT_GE(group.laneEffectiveActivity(l), 0.0);
        EXPECT_LE(group.laneEffectiveActivity(l), 1.0);
      }
    }
  }
}

TEST(ApiLane, EarlyStopRetiresLanesIndependently) {
  auto design = sim::CompiledDesign::compile(sim::buildFromFirrtl(R"(
circuit S :
  module S :
    input clock : Clock
    input reset : UInt<1>
    input target : UInt<8>
    reg c : UInt<8>, clock with : (reset => (reset, UInt<8>(0)))
    c <= tail(add(c, UInt<8>(1)), 1)
    stop(clock, eq(c, target), 1)
)"));
  core::LaneEngine group(core::CompiledCcss::get(design, core::ScheduleOptions{}), 8);
  for (unsigned l = 0; l < 8; l++) {
    group.lane(l).poke("reset", 0);
    group.lane(l).poke("target", 3 + 2 * l);
  }
  uint64_t lastMask = group.liveMask();
  EXPECT_EQ(lastMask, 0xffu);
  while (group.liveMask() != 0) {
    group.tick();
    // The live mask only ever loses lanes, in target order.
    EXPECT_EQ(group.liveMask() & ~lastMask, 0u);
    lastMask = group.liveMask();
  }
  for (unsigned l = 0; l < 8; l++) {
    EXPECT_TRUE(group.lane(l).stopped()) << l;
    EXPECT_EQ(group.lane(l).stats().cycles, 4u + 2 * l) << l;
  }
}

TEST(ApiLane, BroadcastEngineTracksScalarThroughFactory) {
  auto design = compileExample("counterbanks.fir");
  sim::EngineOptions eo;
  eo.lanes = 8;
  auto lane = sim::makeEngine(sim::EngineKind::Lane, design, eo);
  auto ref = sim::makeEngine(sim::EngineKind::Ccss, design);
  auto mismatch = sim::compareEngines(*ref, *lane, 300, driveExample);
  EXPECT_FALSE(mismatch.has_value()) << mismatch->describe();
}

}  // namespace
