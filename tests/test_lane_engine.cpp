// Lane-engine suite (`ctest -L lane`): SoA layout invariants, per-lane
// bit-identity against solo ActivityEngine runs under divergent stimulus,
// forced-tier SIMD equivalence (portable vs AVX2 vs AVX-512 must agree to
// the bit, with each other and with the scalar evaluator on every fast op),
// early-stop lane retirement, snapshot/randomize compatibility
// with the scalar layout, and the SimFarm lane-group path (blocks,
// remainders, per-lane error fallback).
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/activity_engine.h"
#include "core/lane_engine.h"
#include "core/lane_simd.h"
#include "core/sim_farm.h"
#include "designs/blocks.h"
#include "sim/compile.h"
#include "sim/engine_factory.h"
#include "sim/harness.h"
#include "sim/op_eval.h"

namespace {

using namespace essent;

std::shared_ptr<const sim::CompiledDesign> compileText(const std::string& firrtl) {
  return sim::CompiledDesign::compile(sim::buildFromFirrtl(firrtl));
}

std::shared_ptr<const core::CompiledCcss> ccssOf(
    const std::shared_ptr<const sim::CompiledDesign>& design) {
  return core::CompiledCcss::get(design, core::ScheduleOptions{});
}

// Divergent per-lane stimulus for GatedBanks: each lane selects a different
// (mostly idle) bank with its own data pattern, so lanes genuinely disagree
// on which partitions wake each cycle.
void driveBanksLane(sim::Engine& eng, uint64_t cycle, unsigned lane) {
  eng.poke("reset", cycle < 2 ? 1 : 0);
  eng.poke("bankSel", cycle % 7 == lane % 7 ? (cycle + lane) % 8 : 999);
  eng.poke("wdata", 1 + lane * 17 + cycle % 5);
}

// Every named signal of every lane, in hex, plus the lane's counters — a
// full bit-identity signature.
std::string laneSignature(sim::Engine& eng) {
  std::ostringstream ss;
  const sim::SimIR& ir = eng.ir();
  for (size_t s = 0; s < ir.signals.size(); s++) {
    if (ir.signals[s].name.empty()) continue;
    ss << ir.signals[s].name << "=" << eng.peekSigBV(static_cast<int32_t>(s)).toHexString()
       << "\n";
  }
  const sim::EngineStats& st = eng.stats();
  ss << "cycles=" << st.cycles << " ops=" << st.opsEvaluated
     << " checks=" << st.partitionChecks << " acts=" << st.partitionActivations
     << " cmp=" << st.outputComparisons << " trig=" << st.triggerSets
     << " chg=" << st.signalsChangedTotal << "\n";
  ss << "stopped=" << eng.stopped() << " exit=" << eng.exitCode() << "\n";
  ss << eng.printOutput();
  return ss.str();
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

TEST(LaneLayout, PacksOneBitSignalsAndPadsStride) {
  auto design = compileText(designs::gatedBanksFirrtl(8, 16));
  for (unsigned lanes : {1u, 4u, 8u, 11u, 64u}) {
    core::LaneStateLayout lay =
        core::LaneStateLayout::build(design->ir, design->layout, lanes);
    EXPECT_EQ(lay.lanes, lanes);
    if (lanes == 1) {
      EXPECT_EQ(lay.stride, 1u);
    } else {
      EXPECT_EQ(lay.stride % 8, 0u) << "stride must stay SIMD-aligned";
      EXPECT_GE(lay.stride, lanes);
    }
    size_t packedCount = 0;
    for (size_t s = 0; s < design->ir.signals.size(); s++) {
      const uint32_t w = design->ir.signals[s].width;
      if (w <= 1) {
        EXPECT_TRUE(lay.isPacked(static_cast<int32_t>(s))) << design->ir.signals[s].name;
        packedCount++;
      } else {
        EXPECT_FALSE(lay.isPacked(static_cast<int32_t>(s))) << design->ir.signals[s].name;
      }
      EXPECT_LT(lay.off[s], lay.totalWords);
    }
    EXPECT_GT(packedCount, 0u) << "design has 1-bit nets (reset, when conditions)";
  }
}

TEST(LaneLayout, ProgramIsCachedPerStride) {
  auto design = compileText(designs::gatedBanksFirrtl(4, 8));
  auto a = core::LaneProgram::get(design, 8);
  auto b = core::LaneProgram::get(design, 8);
  EXPECT_EQ(a.get(), b.get()) << "same stride must hit the extension cache";
  auto c = core::LaneProgram::get(design, 64);
  EXPECT_NE(a.get(), c.get());
  // lanes 2..8 share stride 8, so they share one program too.
  auto d = core::LaneProgram::get(design, 2);
  EXPECT_EQ(a.get(), d.get());
}

TEST(LaneConformance, DivergentLanesBitIdenticalToSoloCcss) {
  auto design = compileText(designs::gatedBanksFirrtl(8, 16));
  auto ccss = ccssOf(design);
  for (unsigned lanes : {1u, 4u, 8u}) {
    core::LaneEngine group(ccss, lanes);
    std::vector<std::unique_ptr<core::ActivityEngine>> solo;
    for (unsigned l = 0; l < lanes; l++)
      solo.push_back(std::make_unique<core::ActivityEngine>(ccss));

    for (uint64_t c = 0; c < 300; c++) {
      for (unsigned l = 0; l < lanes; l++) {
        driveBanksLane(group.lane(l), c, l);
        driveBanksLane(*solo[l], c, l);
      }
      group.tick();
      for (unsigned l = 0; l < lanes; l++) solo[l]->tick();
      // Spot-check the output every cycle; full signature at the end.
      for (unsigned l = 0; l < lanes; l++)
        ASSERT_EQ(group.lane(l).peek("sum"), solo[l]->peek("sum"))
            << "lanes=" << lanes << " lane " << l << " cycle " << c;
    }
    for (unsigned l = 0; l < lanes; l++) {
      const std::string what =
          "lanes=" + std::to_string(lanes) + " lane " + std::to_string(l);
      EXPECT_EQ(laneSignature(group.lane(l)), laneSignature(*solo[l])) << what;
      expectStatsEqual(group.lane(l).stats(), solo[l]->stats(), what);
      EXPECT_DOUBLE_EQ(group.laneEffectiveActivity(l), solo[l]->effectiveActivity())
          << what;
    }
  }
}

TEST(LaneConformance, MemoriesMatchSoloIncludingLatencyOne) {
  // Same-cycle write+read against latency-0 and latency-1 memories, with
  // per-lane divergent addresses/enables (the per-lane SlowBV/MemRead path).
  auto design = compileText(R"(
circuit LaneMem :
  module LaneMem :
    input clock : Clock
    input reset : UInt<1>
    input addr : UInt<3>
    input wdata : UInt<8>
    input wen : UInt<1>
    output r0 : UInt<8>
    output r1 : UInt<8>
    mem m0 :
      data-type => UInt<8>
      depth => 8
      read-latency => 0
      write-latency => 1
      read-under-write => undefined
      reader => r
      writer => w
    m0.r.addr <= addr
    m0.r.en <= UInt<1>(1)
    m0.r.clk <= clock
    m0.w.addr <= addr
    m0.w.en <= wen
    m0.w.clk <= clock
    m0.w.data <= wdata
    m0.w.mask <= UInt<1>(1)
    mem m1 :
      data-type => UInt<8>
      depth => 8
      read-latency => 1
      write-latency => 1
      read-under-write => undefined
      reader => r
      writer => w
    m1.r.addr <= addr
    m1.r.en <= UInt<1>(1)
    m1.r.clk <= clock
    m1.w.addr <= addr
    m1.w.en <= wen
    m1.w.clk <= clock
    m1.w.data <= wdata
    m1.w.mask <= UInt<1>(1)
    r0 <= m0.r.data
    r1 <= m1.r.data
)");
  auto ccss = ccssOf(design);
  const unsigned lanes = 4;
  core::LaneEngine group(ccss, lanes);
  std::vector<std::unique_ptr<core::ActivityEngine>> solo;
  for (unsigned l = 0; l < lanes; l++)
    solo.push_back(std::make_unique<core::ActivityEngine>(ccss));

  auto drive = [](sim::Engine& e, uint64_t c, unsigned l) {
    e.poke("reset", 0);
    e.poke("addr", (c + l) % 8);
    e.poke("wdata", (17 * l + c) & 0xff);
    e.poke("wen", (c + l) % 3 != 0 ? 1 : 0);
  };
  for (uint64_t c = 0; c < 64; c++) {
    for (unsigned l = 0; l < lanes; l++) {
      drive(group.lane(l), c, l);
      drive(*solo[l], c, l);
    }
    group.tick();
    for (unsigned l = 0; l < lanes; l++) {
      solo[l]->tick();
      ASSERT_EQ(group.lane(l).peek("r0"), solo[l]->peek("r0")) << "lane " << l << " @" << c;
      ASSERT_EQ(group.lane(l).peek("r1"), solo[l]->peek("r1")) << "lane " << l << " @" << c;
    }
  }
  for (unsigned l = 0; l < lanes; l++)
    for (uint64_t a = 0; a < 8; a++) {
      EXPECT_EQ(group.lane(l).peekMem("m0", a), solo[l]->peekMem("m0", a));
      EXPECT_EQ(group.lane(l).peekMem("m1", a), solo[l]->peekMem("m1", a));
    }
}

TEST(LaneConformance, PrintfOutputIsPerLane) {
  auto design = compileText(R"(
circuit P :
  module P :
    input clock : Clock
    input v : UInt<8>
    input en : UInt<1>
    printf(clock, en, "v=%d\n", v)
)");
  auto ccss = ccssOf(design);
  const unsigned lanes = 3;
  core::LaneEngine group(ccss, lanes);
  std::vector<std::unique_ptr<core::ActivityEngine>> solo;
  for (unsigned l = 0; l < lanes; l++)
    solo.push_back(std::make_unique<core::ActivityEngine>(ccss));
  for (uint64_t c = 0; c < 10; c++) {
    for (unsigned l = 0; l < lanes; l++) {
      group.lane(l).poke("v", 10 * l + c);
      group.lane(l).poke("en", (c + l) % 2);
      solo[l]->poke("v", 10 * l + c);
      solo[l]->poke("en", (c + l) % 2);
    }
    group.tick();
    for (unsigned l = 0; l < lanes; l++) solo[l]->tick();
  }
  for (unsigned l = 0; l < lanes; l++) {
    EXPECT_EQ(group.lane(l).printOutput(), solo[l]->printOutput()) << "lane " << l;
    EXPECT_FALSE(group.lane(l).printOutput().empty());
  }
  EXPECT_NE(group.lane(0).printOutput(), group.lane(1).printOutput());
}

TEST(LaneRetire, EarlyStopFreezesOnlyThatLane) {
  // Each lane stops when its counter reaches a per-lane target; survivors
  // keep counting and the stopped lane's state freezes.
  auto design = compileText(R"(
circuit S :
  module S :
    input clock : Clock
    input reset : UInt<1>
    input target : UInt<8>
    output cnt : UInt<8>
    reg c : UInt<8>, clock with : (reset => (reset, UInt<8>(0)))
    c <= tail(add(c, UInt<8>(1)), 1)
    cnt <= c
    stop(clock, eq(c, target), 3)
)");
  auto ccss = ccssOf(design);
  const unsigned lanes = 4;
  core::LaneEngine group(ccss, lanes);
  for (unsigned l = 0; l < lanes; l++) {
    group.lane(l).poke("reset", 0);
    group.lane(l).poke("target", 5 + 4 * l);  // stops at cycle 6, 10, 14, 18
  }
  EXPECT_EQ(group.liveMask(), 0xfu);

  uint64_t ticks = 0;
  while (group.liveMask() != 0 && ticks < 100) {
    group.tick();
    ticks++;
  }
  EXPECT_EQ(ticks, 18u) << "group runs until the last lane stops";
  for (unsigned l = 0; l < lanes; l++) {
    EXPECT_TRUE(group.lane(l).stopped()) << "lane " << l;
    EXPECT_EQ(group.lane(l).exitCode(), 3);
    EXPECT_EQ(group.lane(l).stats().cycles, 6u + 4 * l) << "lane " << l;
    // Identical to a solo run of the same stimulus — including the frozen
    // post-stop register state.
    core::ActivityEngine solo(ccss);
    solo.poke("reset", 0);
    solo.poke("target", 5 + 4 * l);
    sim::RunResult res = sim::runEngine(solo, 100);
    EXPECT_TRUE(res.stopped);
    EXPECT_EQ(res.cycles, group.lane(l).stats().cycles);
    EXPECT_EQ(group.lane(l).peek("cnt"), solo.peek("cnt")) << "lane " << l;
    expectStatsEqual(group.lane(l).stats(), solo.stats(), "lane " + std::to_string(l));
  }

  // Ticking an all-retired group is a no-op.
  const uint64_t before = group.groupTicks();
  group.tick();
  EXPECT_EQ(group.lane(0).stats().cycles, 6u);
  EXPECT_EQ(group.groupTicks(), before + 1);
}

TEST(LaneRetire, ExternalRetireFreezesState) {
  auto design = compileText(designs::counterFirrtl(8));
  auto ccss = ccssOf(design);
  core::LaneEngine group(ccss, 2);
  for (unsigned l = 0; l < 2; l++) {
    group.lane(l).poke("reset", 0);
    group.lane(l).poke("en", 1);
  }
  for (int i = 0; i < 5; i++) group.tick();
  const uint64_t frozen = group.lane(0).peek("count");
  group.retireLane(0);
  EXPECT_FALSE(group.laneLive(0));
  for (int i = 0; i < 5; i++) group.tick();
  EXPECT_EQ(group.lane(0).peek("count"), frozen) << "retired lane must not advance";
  EXPECT_EQ(group.lane(1).peek("count"), frozen + 5) << "live lane keeps counting";
  EXPECT_EQ(group.lane(0).stats().cycles, 5u);
  EXPECT_EQ(group.lane(1).stats().cycles, 10u);
}

TEST(LaneSimd, ForcedTiersAreBitIdentical) {
  auto design = compileText(designs::gatedBanksFirrtl(8, 32));
  auto ccss = ccssOf(design);
  std::vector<std::string> signatures;
  std::vector<std::string> backends;
  for (core::LaneSimdTier t : {core::LaneSimdTier::Portable, core::LaneSimdTier::Avx2,
                               core::LaneSimdTier::Avx512}) {
    core::laneSimdForceTier(t);
    core::LaneEngine group(ccss, 8);
    backends.push_back(group.simdBackend());
    for (uint64_t c = 0; c < 200; c++) {
      for (unsigned l = 0; l < 8; l++) driveBanksLane(group.lane(l), c, l);
      group.tick();
    }
    std::ostringstream sig;
    for (unsigned l = 0; l < 8; l++) sig << laneSignature(group.lane(l));
    signatures.push_back(sig.str());
  }
  core::laneSimdResetTier();
  ASSERT_EQ(signatures.size(), 3u);
  EXPECT_EQ(signatures[1], signatures[0]) << backends[1] << " vs " << backends[0];
  EXPECT_EQ(signatures[2], signatures[0]) << backends[2] << " vs " << backends[0];
  EXPECT_EQ(backends[0], "portable") << "forcing portable must always stick";
}

TEST(LaneSimd, TierNamesAndClamping) {
  EXPECT_STREQ(core::laneSimdTierName(core::LaneSimdTier::Portable), "portable");
  EXPECT_STREQ(core::laneSimdTierName(core::LaneSimdTier::Avx2), "avx2");
  EXPECT_STREQ(core::laneSimdTierName(core::LaneSimdTier::Avx512), "avx512");
  // Forcing a tier the build/CPU lacks clamps downward, never upward.
  core::laneSimdForceTier(core::LaneSimdTier::Avx512);
  core::LaneSimdTier got = core::laneSimdTier();
  EXPECT_TRUE(got == core::LaneSimdTier::Avx512 || got == core::LaneSimdTier::Avx2 ||
              got == core::LaneSimdTier::Portable);
  core::laneSimdForceTier(core::LaneSimdTier::Portable);
  EXPECT_EQ(core::laneSimdTier(), core::LaneSimdTier::Portable);
  core::laneSimdResetTier();
}

// Every tier's wide kernel against the scalar evaluator, op by op: every
// fast OpCode (Const and MemRead are the lane engine's own), signed and
// unsigned, at widths 1..64, on edge operands (0, 1, all-ones = -1, the sign
// bit, shift amounts at and past the width), at strides 1, 8 and 64. Each
// call must write exactly n lanes.
TEST(LaneSimd, EveryTierMatchesScalarOnEveryFastOp) {
  using sim::OpCode;
  const sim::SimIR ir;  // evalFastScalar reads it only for Const
  constexpr uint64_t kSentinel = 0xdeadbeefcafef00dULL;
  for (core::LaneSimdTier tier : {core::LaneSimdTier::Portable, core::LaneSimdTier::Avx2,
                                  core::LaneSimdTier::Avx512}) {
    core::laneSimdForceTier(tier);
    const core::LaneWideFn kernel = core::laneWideKernel();
    const std::string tierName = core::laneSimdBackendName();
    size_t mismatches = 0;
    for (int k = 0; k <= static_cast<int>(OpCode::MemRead); k++) {
      const auto code = static_cast<OpCode>(k);
      if (code == OpCode::Const || code == OpCode::MemRead) continue;
      for (uint32_t w : {1u, 7u, 32u, 63u, 64u}) {
        const uint64_t m = sim::maskW(w);
        std::vector<uint64_t> values = {0, 1, m, uint64_t{1} << (w - 1), w, w + 1, 63, 64,
                                        0x5a5a5a5a5a5a5a5aULL};
        for (uint64_t& v : values) v &= m;
        // (imm0, imm1): shift amounts for Shl/Shr, a kept-bit count for
        // Head, hi/lo for Bits; the other ops ignore them.
        std::vector<std::pair<int64_t, int64_t>> imms = {{0, 0}};
        if (code == OpCode::Shl || code == OpCode::Shr)
          imms = {{0, 0}, {1, 0}, {w - 1, 0}, {w, 0}, {w + 1, 0}, {64, 0}, {100, 0}};
        else if (code == OpCode::Head)
          imms = {{1, 0}, {w / 2 + 1, 0}, {w, 0}};
        else if (code == OpCode::Bits)
          imms = {{w - 1, 0}, {w - 1, w - 1}, {w / 2, w / 4}};
        for (bool isSigned : {false, true})
          for (auto [imm0, imm1] : imms) {
            sim::ExecOp op{};
            op.code = code;
            op.signedOp = isSigned;
            op.fast = true;
            op.destW = op.aW = op.bW = op.cW = w;
            op.imm0 = imm0;
            op.imm1 = imm1;
            // Every (a, b, c) triple of edge values, n lanes per call.
            const size_t nv = values.size(), triples = nv * nv * nv;
            for (uint32_t n : {1u, 8u, 64u}) {
              std::vector<uint64_t> a(n), b(n), c(n), d(n + 8);
              for (size_t t0 = 0; t0 < triples; t0 += n) {
                for (uint32_t l = 0; l < n; l++) {
                  const size_t t = (t0 + l) % triples;
                  a[l] = values[t / (nv * nv)];
                  b[l] = values[(t / nv) % nv];
                  c[l] = values[t % nv];
                }
                std::fill(d.begin(), d.end(), kSentinel);
                kernel(op, d.data(), a.data(), b.data(), c.data(), n);
                for (uint32_t l = 0; l < n + 8; l++) {
                  const uint64_t want =
                      l < n ? sim::evalFastScalar(ir, op, a[l], b[l], c[l]) & m : kSentinel;
                  if (d[l] == want || mismatches++ > 0) continue;  // report the first
                  ADD_FAILURE() << tierName << " " << sim::opCodeName(code)
                                << (isSigned ? " signed" : " unsigned") << " w=" << w
                                << " imm=" << imm0 << "," << imm1 << " n=" << n << " lane " << l
                                << ": a=" << a[l % n] << " b=" << b[l % n] << " c=" << c[l % n]
                                << " got " << d[l] << " want " << want;
                }
              }
            }
          }
      }
    }
    EXPECT_EQ(mismatches, 0u) << tierName;
  }
  core::laneSimdResetTier();
}

TEST(LaneView, TickThrowsAndAccessorsValidate) {
  auto design = compileText(designs::counterFirrtl(8));
  core::LaneEngine group(ccssOf(design), 2);
  EXPECT_THROW(group.lane(0).tick(), std::logic_error);
  EXPECT_THROW(group.lane(0).peekMem("nosuch", 0), std::out_of_range);
  EXPECT_THROW((void)group.lane(5), std::out_of_range);
  EXPECT_EQ(dynamic_cast<core::LaneView&>(group.lane(1)).laneIndex(), 1u);
}

TEST(LaneState, SnapshotsInterchangeWithScalarEngines) {
  auto design = compileText(designs::gatedBanksFirrtl(4, 16));
  auto ccss = ccssOf(design);
  core::LaneEngine group(ccss, 4);
  for (uint64_t c = 0; c < 50; c++) {
    for (unsigned l = 0; l < 4; l++) driveBanksLane(group.lane(l), c, l);
    group.tick();
  }
  // Lane snapshot -> scalar engine: same visible state.
  for (unsigned l = 0; l < 4; l++) {
    sim::Engine::Snapshot snap = group.lane(l).saveState();
    core::ActivityEngine scalar(ccss);
    scalar.restoreState(snap);
    EXPECT_EQ(scalar.peek("sum"), group.lane(l).peek("sum")) << "lane " << l;
  }
  // Scalar snapshot -> a different lane: state transplants across lanes.
  sim::Engine::Snapshot fromLane3 = group.lane(3).saveState();
  group.lane(0).restoreState(fromLane3);
  EXPECT_EQ(group.lane(0).peek("sum"), group.lane(3).peek("sum"));
  // A mismatched snapshot is rejected.
  sim::Engine::Snapshot bad = fromLane3;
  bad.vals.pop_back();
  EXPECT_THROW(group.lane(0).restoreState(bad), std::invalid_argument);
}

TEST(LaneState, RandomizeMatchesScalarDrawSequence) {
  auto design = compileText(designs::gatedBanksFirrtl(4, 16));
  auto ccss = ccssOf(design);
  core::LaneEngine group(ccss, 4);
  for (unsigned l = 0; l < 4; l++) {
    group.lane(l).randomizeState(42 + l);
    core::ActivityEngine scalar(ccss);
    scalar.randomizeState(42 + l);
    for (size_t s = 0; s < design->ir.signals.size(); s++)
      ASSERT_EQ(group.lane(l).peekSigBV(static_cast<int32_t>(s)).toHexString(),
                scalar.peekSigBV(static_cast<int32_t>(s)).toHexString())
          << "lane " << l << " signal " << design->ir.signals[s].name;
  }
}

TEST(LaneState, ResetStateRestoresFreshLane) {
  auto design = compileText(designs::counterFirrtl(8));
  auto ccss = ccssOf(design);
  core::LaneEngine group(ccss, 2);
  for (unsigned l = 0; l < 2; l++) {
    group.lane(l).poke("reset", 0);
    group.lane(l).poke("en", 1);
  }
  for (int i = 0; i < 10; i++) group.tick();
  EXPECT_GT(group.lane(0).peek("count"), 0u);
  group.lane(0).resetState();
  EXPECT_EQ(group.lane(0).peek("count"), 0u);
  EXPECT_EQ(group.lane(0).stats().cycles, 0u);
  EXPECT_TRUE(group.laneLive(0));
  // Lane 1 is untouched by lane 0's reset (CCSS output nodes lag the
  // register commit by one evaluation, so 10 ticks show 9).
  EXPECT_EQ(group.lane(1).peek("count"), 9u);
  // After reset, the lane tracks the same trajectory as a fresh solo run.
  group.lane(0).poke("reset", 0);
  group.lane(0).poke("en", 1);
  for (int i = 0; i < 3; i++) group.tick();
  core::ActivityEngine fresh(ccss);
  fresh.poke("reset", 0);
  fresh.poke("en", 1);
  for (int i = 0; i < 3; i++) fresh.tick();
  EXPECT_EQ(group.lane(0).peek("count"), fresh.peek("count"));
}

TEST(LaneState, ResetRearmsEveryPartitionOfAnIdleGroup) {
  // Both lanes idle (no bank selected), so no partition of the group has a
  // pending wake; resetting lane 0 must re-arm all of them for it, since a
  // fresh engine's first tick evaluates everything.
  auto design = compileText(designs::gatedBanksFirrtl(4, 16));
  auto ccss = ccssOf(design);
  auto idle = [](sim::Engine& eng) {
    eng.poke("reset", 0);
    eng.poke("bankSel", 999);
    eng.poke("wdata", 5);
  };
  core::LaneEngine group(ccss, 2);
  for (int i = 0; i < 20; i++) {
    for (unsigned l = 0; l < 2; l++) idle(group.lane(l));
    group.tick();
  }
  group.lane(0).resetState();
  core::ActivityEngine fresh(ccss);
  for (int i = 0; i < 3; i++) {
    for (unsigned l = 0; l < 2; l++) idle(group.lane(l));
    idle(fresh);
    group.tick();
    fresh.tick();
  }
  EXPECT_EQ(fresh.stats().partitionActivations, fresh.schedule().numPartitions());
  expectStatsEqual(group.lane(0).stats(), fresh.stats(), "reset lane");
  EXPECT_EQ(group.lane(0).peek("sum"), fresh.peek("sum"));
}

TEST(LaneCounters, MaskedSkipsAccountForIdleLanes) {
  // One lane active, seven idle: executed partitions carry mostly-empty
  // masks, so maskedLaneSkips must dominate and group-level skip counters
  // must reconcile with per-lane checks.
  auto design = compileText(designs::gatedBanksFirrtl(8, 16));
  auto ccss = ccssOf(design);
  core::LaneEngine group(ccss, 8);
  for (uint64_t c = 0; c < 100; c++) {
    for (unsigned l = 0; l < 8; l++) {
      group.lane(l).poke("reset", c < 2 ? 1 : 0);
      // Only lane 0 ever touches a real bank.
      group.lane(l).poke("bankSel", l == 0 ? c % 8 : 999);
      group.lane(l).poke("wdata", 7);
    }
    group.tick();
  }
  EXPECT_EQ(group.groupTicks(), 100u);
  EXPECT_GT(group.groupPartitionRuns(), 0u);
  EXPECT_GT(group.groupPartitionSkips(), 0u);
  EXPECT_GT(group.maskedLaneSkips(), 0u) << "idle lanes must ride along masked";
  // Every tick covers every position once: it either runs or is skipped.
  EXPECT_EQ(group.groupPartitionRuns() + group.groupPartitionSkips(),
            100 * ccss->body->sched.numPartitions());
  // Lane 0 does more work than the idle lanes, and per-lane activity is
  // exact: idle lanes' activations stay at their solo-run level.
  EXPECT_GT(group.lane(0).stats().partitionActivations,
            group.lane(3).stats().partitionActivations);
  EXPECT_GT(group.laneEffectiveActivity(0), group.laneEffectiveActivity(3));
}

std::vector<core::FarmJob> laneFarmJobs(size_t n, uint64_t cycles) {
  std::vector<core::FarmJob> jobs(n);
  for (size_t i = 0; i < n; i++) {
    jobs[i].name = "job" + std::to_string(i);
    jobs[i].maxCycles = cycles;
    jobs[i].stimulus = [i](sim::Engine& eng, uint64_t cycle) {
      driveBanksLane(eng, cycle, static_cast<unsigned>(i));
    };
  }
  return jobs;
}

TEST(LaneFarm, GroupsPlusRemainderBitIdenticalToScalarFarm) {
  auto design = compileText(designs::gatedBanksFirrtl(8, 16));
  std::vector<core::FarmJob> jobs = laneFarmJobs(11, 200);  // 2 groups of 4 + 3 singles

  core::FarmOptions laneOpts;
  laneOpts.kind = sim::EngineKind::Lane;
  laneOpts.engine.lanes = 4;
  laneOpts.workers = 2;
  core::SimFarm laneFarm(design, laneOpts);
  core::FarmReport laneReport = laneFarm.run(jobs);
  ASSERT_TRUE(laneReport.allOk());

  core::FarmOptions scalarOpts;
  scalarOpts.workers = 2;
  core::SimFarm scalarFarm(design, scalarOpts);
  core::FarmReport scalarReport = scalarFarm.run(jobs);
  ASSERT_TRUE(scalarReport.allOk());

  ASSERT_EQ(laneReport.instances.size(), jobs.size());
  for (size_t i = 0; i < jobs.size(); i++) {
    const auto& a = laneReport.instances[i];
    const auto& b = scalarReport.instances[i];
    EXPECT_EQ(a.cycles, b.cycles) << i;
    EXPECT_EQ(a.outputs, b.outputs) << i;
    EXPECT_EQ(a.stats.opsEvaluated, b.stats.opsEvaluated) << i;
    EXPECT_EQ(a.stats.partitionActivations, b.stats.partitionActivations) << i;
    EXPECT_DOUBLE_EQ(a.effectiveActivity, b.effectiveActivity) << i;
  }
  EXPECT_EQ(laneReport.lane.lanes, 4u);
  EXPECT_EQ(laneReport.lane.groups, 2u);
  EXPECT_EQ(laneReport.lane.scalarFallbacks, 3u) << "remainder singles";
  EXPECT_FALSE(laneReport.lane.simdBackend.empty());
  EXPECT_GT(laneReport.lane.groupPartitionRuns, 0u);
  // Scalar farms report no lane section.
  EXPECT_EQ(scalarReport.lane.lanes, 0u);
}

TEST(LaneFarm, PerLaneErrorFallsBackToScalarRun) {
  auto design = compileText(designs::gatedBanksFirrtl(4, 16));
  std::vector<core::FarmJob> jobs = laneFarmJobs(4, 100);
  // Job 2 refuses to run on the lane engine but succeeds on the scalar
  // retry — the farm must deliver a clean result anyway.
  jobs[2].init = [](sim::Engine& eng) {
    if (std::string(eng.name()) == "essent-lane")
      throw std::runtime_error("lane allergy");
  };
  core::FarmOptions fo;
  fo.kind = sim::EngineKind::Lane;
  fo.engine.lanes = 4;
  core::SimFarm farm(design, fo);
  core::FarmReport report = farm.run(jobs);
  ASSERT_TRUE(report.allOk()) << (report.instances[2].error);
  EXPECT_GE(report.lane.scalarFallbacks, 1u);
  // And the fallback result still matches a solo scalar run.
  auto solo = sim::makeEngine(sim::EngineKind::Ccss, design);
  sim::RunResult res = sim::runEngine(*solo, 100, jobs[2].stimulus);
  EXPECT_EQ(report.instances[2].cycles, res.cycles);
  EXPECT_EQ(report.instances[2].stats.opsEvaluated, res.stats.opsEvaluated);
}

TEST(LaneFarm, UnrecoverableErrorIsTrappedPerJob) {
  auto design = compileText(designs::gatedBanksFirrtl(4, 16));
  std::vector<core::FarmJob> jobs = laneFarmJobs(4, 50);
  jobs[1].init = [](sim::Engine&) { throw std::runtime_error("always broken"); };
  core::FarmOptions fo;
  fo.kind = sim::EngineKind::Lane;
  fo.engine.lanes = 4;
  core::SimFarm farm(design, fo);
  core::FarmReport report = farm.run(jobs);
  EXPECT_FALSE(report.allOk());
  EXPECT_NE(report.instances[1].error.find("always broken"), std::string::npos);
  for (size_t i : {0u, 2u, 3u}) {
    EXPECT_TRUE(report.instances[i].error.empty()) << i;
    EXPECT_EQ(report.instances[i].cycles, 50u) << i;
  }
}

TEST(LaneBroadcast, MakeEngineWrapsGroupAndMatchesScalar) {
  auto design = compileText(designs::gatedBanksFirrtl(8, 16));
  sim::EngineOptions eo;
  eo.lanes = 8;
  auto lane = sim::makeEngine(sim::EngineKind::Lane, design, eo);
  auto* bc = dynamic_cast<core::LaneBroadcastEngine*>(lane.get());
  ASSERT_NE(bc, nullptr);
  EXPECT_EQ(bc->group().lanes(), 8u);

  auto scalar = sim::makeEngine(sim::EngineKind::Ccss, design);
  auto mismatch = sim::compareEngines(*scalar, *lane, 300, [](sim::Engine& e, uint64_t c) {
    driveBanksLane(e, c, 0);
  });
  EXPECT_FALSE(mismatch.has_value()) << mismatch->describe();
  EXPECT_DOUBLE_EQ(
      bc->effectiveActivity(),
      dynamic_cast<core::ActivityEngine*>(scalar.get())->effectiveActivity());
}

}  // namespace
