// Focused unit tests for the CCSS activity engine: skipping behaviour,
// trigger chains, the deferred (non-elided) state-update path, overhead
// counters, and side-effect semantics under partition sleep.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <string>
#include <vector>

#include "bank_reduction.h"
#include "core/activity_engine.h"
#include "core/lane_engine.h"
#include "core/parallel_engine.h"
#include "designs/blocks.h"
#include "designs/gcd.h"
#include "sim/compile.h"
#include "sim/full_cycle.h"
#include "sim/harness.h"
#include "support/wake_bits.h"

namespace essent::core {
namespace {

using sim::FullCycleEngine;
using sim::SimIR;

TEST(ActivityEngine, IdleDesignCostsNoOps) {
  SimIR ir = sim::buildFromFirrtl(designs::gatedBanksFirrtl(8, 16));
  ActivityEngine eng(core::CompiledCcss::compile(sim::CompiledDesign::compile(ir), ScheduleOptions{}));
  eng.poke("reset", 0);
  eng.poke("bankSel", 999);  // selects nothing
  eng.tick();                // first cycle evaluates everything
  uint64_t after1 = eng.stats().opsEvaluated;
  EXPECT_GT(after1, 0u);
  for (int i = 0; i < 50; i++) eng.tick();
  // Fully idle: zero additional op evaluations, but the static overhead
  // (activity checks) still accrues per cycle.
  EXPECT_EQ(eng.stats().opsEvaluated, after1);
  EXPECT_EQ(eng.stats().partitionChecks, 51 * eng.schedule().numPartitions());
  EXPECT_EQ(eng.stats().cycles, 51u);
}

TEST(ActivityEngine, InputChangeWakesOnlyItsCone) {
  SimIR ir = sim::buildFromFirrtl(designs::gatedBanksFirrtl(16, 16));
  ActivityEngine eng(core::CompiledCcss::compile(sim::CompiledDesign::compile(ir), ScheduleOptions{}));
  eng.poke("reset", 0);
  eng.poke("bankSel", 999);
  eng.tick();
  uint64_t base = eng.stats().opsEvaluated;
  // Touch one bank: only its partition chain (decode + bank + sum tree)
  // may evaluate, which is far less than the whole design.
  eng.poke("bankSel", 3);
  eng.poke("wdata", 42);
  eng.tick();
  uint64_t woke = eng.stats().opsEvaluated - base;
  EXPECT_GT(woke, 0u);
  EXPECT_LT(woke, ir.ops.size());
}

TEST(ActivityEngine, SelfFeedingRegisterStaysAwake) {
  // A free-running counter must keep its own partition awake forever via
  // the register's self-wakeup (the paper's feedback case).
  SimIR ir = sim::buildFromFirrtl(R"(
circuit C :
  module C :
    input clock : Clock
    output q : UInt<16>
    reg r : UInt<16>, clock
    r <= tail(add(r, UInt<16>(1)), 1)
    q <= r
)");
  ActivityEngine eng(core::CompiledCcss::compile(sim::CompiledDesign::compile(ir), ScheduleOptions{}));
  for (int i = 0; i < 100; i++) eng.tick();
  EXPECT_EQ(eng.peek("r"), 100u);
  EXPECT_EQ(eng.peek("q"), 99u);  // output reflects pre-update value
}

TEST(ActivityEngine, StableRegisterGoesToSleep) {
  // A register that saturates stops changing; its partition must sleep.
  SimIR ir = sim::buildFromFirrtl(R"(
circuit S :
  module S :
    input clock : Clock
    output q : UInt<4>
    reg r : UInt<4>, clock
    r <= mux(eq(r, UInt<4>(9)), r, tail(add(r, UInt<4>(1)), 1))
    q <= r
)");
  ActivityEngine eng(core::CompiledCcss::compile(sim::CompiledDesign::compile(ir), ScheduleOptions{}));
  for (int i = 0; i < 12; i++) eng.tick();
  EXPECT_EQ(eng.peek("r"), 9u);
  uint64_t ops = eng.stats().opsEvaluated;
  for (int i = 0; i < 50; i++) eng.tick();
  EXPECT_EQ(eng.peek("r"), 9u);
  EXPECT_EQ(eng.stats().opsEvaluated, ops);  // asleep once stable
}

TEST(ActivityEngine, DeferredRegisterPathIsCorrect) {
  // Hand-build a partitioning that makes elision illegal: the writer
  // partition also produces a combinational value consumed by a reader
  // partition (path writer -> reader), so the register must fall back to
  // the global phase-2 update.
  sim::BuildOptions raw;
  raw.constProp = raw.cse = raw.dce = false;
  SimIR ir = sim::buildFromFirrtl(R"(
circuit D :
  module D :
    input clock : Clock
    input in : UInt<8>
    output o : UInt<8>
    reg r : UInt<8>, clock
    node nxt = tail(add(r, in), 1)
    r <= nxt
    o <= xor(nxt, r)
)",
                                  raw);
  Netlist nl = Netlist::build(ir);

  // Partition 0: everything except the cone of output o; partition 1: o's
  // cone (xor + output copy). The nxt ops live with the register write.
  int32_t oSig = ir.findSignal("o");
  ASSERT_GE(oSig, 0);
  std::vector<int32_t> partOf(nl.nodes.size(), 0);
  // Mark o's defining op and its xor argument chain as partition 1.
  std::vector<int32_t> stack = {ir.signals[static_cast<size_t>(oSig)].defOp};
  std::vector<bool> inCone(ir.ops.size(), false);
  while (!stack.empty()) {
    int32_t opIdx = stack.back();
    stack.pop_back();
    if (opIdx < 0 || inCone[static_cast<size_t>(opIdx)]) continue;
    inCone[static_cast<size_t>(opIdx)] = true;
    const sim::Op& op = ir.ops[static_cast<size_t>(opIdx)];
    int n = op.numArgs();
    for (int k = 0; k < n; k++) {
      int32_t def = ir.signals[op.args[k]].defOp;
      // Stop at nxt (it belongs to the writer partition).
      if (def >= 0 && ir.signals[ir.ops[static_cast<size_t>(def)].dest].name != "nxt")
        stack.push_back(def);
    }
  }
  for (size_t i = 0; i < ir.ops.size(); i++)
    if (inCone[i]) partOf[static_cast<size_t>(nl.nodeOfOp[i])] = 1;

  Partitioning p;
  p.partOf = partOf;
  p.members.resize(2);
  for (size_t n = 0; n < partOf.size(); n++) p.members[static_cast<size_t>(partOf[n])].push_back(static_cast<int32_t>(n));
  p.partGraph = graph::condense(nl.g, p.partOf, 2);
  ASSERT_TRUE(p.partGraph.isAcyclic());
  p.schedule = *p.partGraph.topoSort();

  CondPartSchedule sched = buildScheduleFrom(nl, p, true);
  // The register cannot be elided: its write partition feeds the reader.
  EXPECT_EQ(sched.deferredRegs.size(), 1u);
  EXPECT_EQ(sched.elidedRegs, 0u);

  ActivityEngine act(core::CompiledCcss::compile(sim::CompiledDesign::compile(ir), sched));
  FullCycleEngine ref(sim::CompiledDesign::compile(ir));
  auto mismatch = sim::compareEngines(ref, act, 60, [](sim::Engine& e, uint64_t c) {
    e.poke("in", (c * 7 + 3) & 0xff);
  });
  EXPECT_FALSE(mismatch.has_value()) << mismatch->describe();
}

TEST(ActivityEngine, PrintfFiresEveryCycleWhileEnabled) {
  // The enable is a constant 1: even though no partition is active after
  // the first cycle, the printf must fire every cycle (global side-effect
  // check over stale-but-correct values).
  SimIR ir = sim::buildFromFirrtl(R"(
circuit P :
  module P :
    input clock : Clock
    input v : UInt<4>
    printf(clock, UInt<1>(1), "%d.", v)
)");
  ActivityEngine eng(core::CompiledCcss::compile(sim::CompiledDesign::compile(ir), ScheduleOptions{}));
  eng.poke("v", 7);
  for (int i = 0; i < 4; i++) eng.tick();
  EXPECT_EQ(eng.printOutput(), "7.7.7.7.");
}

TEST(ActivityEngine, CountersDecomposeSanely) {
  SimIR ir = sim::buildFromFirrtl(designs::aluArrayFirrtl(16, 16));
  ActivityEngine eng(core::CompiledCcss::compile(sim::CompiledDesign::compile(ir), ScheduleOptions{}));
  eng.poke("reset", 0);
  for (int c = 0; c < 30; c++) {
    eng.poke("opa", static_cast<uint64_t>(c));
    eng.poke("opb", static_cast<uint64_t>(c * 3));
    eng.poke("sel", static_cast<uint64_t>(c % 8));
    eng.tick();
  }
  const auto& st = eng.stats();
  EXPECT_EQ(st.cycles, 30u);
  EXPECT_EQ(st.partitionChecks, 30 * eng.schedule().numPartitions());
  EXPECT_LE(st.partitionActivations, st.partitionChecks);
  EXPECT_GT(st.opsEvaluated, 0u);
  EXPECT_LE(st.opsEvaluated, ir.ops.size() * 30);
  EXPECT_GT(st.outputComparisons, 0u);
  EXPECT_GE(eng.effectiveActivity(), 0.0);
  EXPECT_LE(eng.effectiveActivity(), 1.0);
}

TEST(ActivityEngine, ResetStateRestartsCleanly) {
  SimIR ir = sim::buildFromFirrtl(designs::counterFirrtl(8));
  ActivityEngine eng(core::CompiledCcss::compile(sim::CompiledDesign::compile(ir), ScheduleOptions{}));
  eng.poke("reset", 0);
  eng.poke("en", 1);
  for (int i = 0; i < 7; i++) eng.tick();
  EXPECT_EQ(eng.peek("r"), 7u);
  eng.resetState();
  EXPECT_EQ(eng.peek("r"), 0u);
  EXPECT_EQ(eng.cycleCount(), 0u);
  // Must behave exactly like a fresh engine.
  eng.poke("reset", 0);
  eng.poke("en", 1);
  for (int i = 0; i < 5; i++) eng.tick();
  EXPECT_EQ(eng.peek("r"), 5u);
}

TEST(ActivityEngine, MemoryWriteWakesReaders) {
  SimIR ir = sim::buildFromFirrtl(R"(
circuit M :
  module M :
    input clock : Clock
    input wen : UInt<1>
    input waddr : UInt<3>
    input wdata : UInt<8>
    input raddr : UInt<3>
    output rdata : UInt<8>
    mem t :
      data-type => UInt<8>
      depth => 8
      read-latency => 0
      write-latency => 1
      reader => r
      writer => w
    t.r.addr <= raddr
    t.r.en <= UInt<1>(1)
    t.r.clk <= clock
    t.w.addr <= waddr
    t.w.en <= wen
    t.w.clk <= clock
    t.w.data <= wdata
    t.w.mask <= UInt<1>(1)
    rdata <= t.r.data
)");
  ActivityEngine eng(core::CompiledCcss::compile(sim::CompiledDesign::compile(ir), ScheduleOptions{}));
  eng.poke("wen", 1);
  eng.poke("waddr", 2);
  eng.poke("wdata", 0xab);
  eng.poke("raddr", 2);
  eng.tick();
  eng.poke("wen", 0);
  eng.tick();  // the committed write must wake the read partition
  EXPECT_EQ(eng.peek("rdata"), 0xabu);
  // Steady state: nothing changes, reads go back to sleep.
  uint64_t ops = eng.stats().opsEvaluated;
  for (int i = 0; i < 20; i++) eng.tick();
  EXPECT_EQ(eng.stats().opsEvaluated, ops);
  EXPECT_EQ(eng.peek("rdata"), 0xabu);
}

TEST(ActivityEngine, FineAndMonolithicDegenerateSchedulesWork) {
  SimIR ir = sim::buildFromFirrtl(designs::gcdFirrtl(16));
  Netlist nl = Netlist::build(ir);
  for (auto mk : {&finePartitioning, &monolithicPartitioning}) {
    Partitioning p = mk(nl);
    CondPartSchedule sched = buildScheduleFrom(nl, p, true);
    ActivityEngine act(core::CompiledCcss::compile(sim::CompiledDesign::compile(ir), sched));
    FullCycleEngine ref(sim::CompiledDesign::compile(ir));
    auto mismatch = sim::compareEngines(ref, act, 80, [](sim::Engine& e, uint64_t c) {
      e.poke("reset", 0);
      e.poke("a", 1071);
      e.poke("b", 462);
      e.poke("load", c == 0);
    });
    EXPECT_FALSE(mismatch.has_value())
        << "parts=" << p.numPartitions() << ": " << mismatch->describe();
  }
}

TEST(WakeBits, SetAllLeavesTailBitsClear) {
  std::vector<uint64_t> bits;
  for (size_t n : {0u, 1u, 63u, 64u, 65u, 128u, 130u}) {
    support::setAllWakeBits(bits, n);
    ASSERT_EQ(bits.size(), (n + 63) / 64) << n;
    size_t count = 0;
    for (uint64_t w : bits) count += static_cast<size_t>(std::popcount(w));
    EXPECT_EQ(count, n) << n;
  }
}

TEST(WakeBits, SweepSeesLaterWakesAndDefersEarlierOnes) {
  // Positions 0..129: 63 wakes 64 across the word boundary and 64 wakes
  // 129 in the tail word, all in the same sweep; 65 wakes itself and 2 (an
  // earlier position in an earlier word), and 70 wakes 66 (earlier in the
  // same word): those three wait for the next sweep.
  std::vector<uint64_t> bits(3, 0);
  for (size_t pos : {63u, 65u, 70u}) support::setWakeBit(bits, pos);
  std::vector<size_t> visited;
  auto visit = [&](size_t pos) {
    visited.push_back(pos);
    if (pos == 63) support::setWakeBit(bits, 64);
    if (pos == 64) support::setWakeBit(bits, 129);
    if (pos == 65) {
      support::setWakeBit(bits, 65);
      support::setWakeBit(bits, 2);
    }
    if (pos == 70) support::setWakeBit(bits, 66);
  };
  support::sweepWakeBits(bits, visit);
  EXPECT_EQ(visited, (std::vector<size_t>{63, 64, 65, 70, 129}));
  visited.clear();
  support::sweepWakeBits(bits, visit);
  EXPECT_EQ(visited, (std::vector<size_t>{2, 65, 66}));
}

TEST(WakeBits, SharedTestAndClearTouchesOnlyItsBit) {
  // Positions 65 and 68 share word 1 (two lanes' bits in one word).
  std::vector<uint64_t> bits(2, 0);
  support::setWakeBitShared(bits, 65);
  support::setWakeBitShared(bits, 68);
  support::setWakeBitShared(bits, 68);  // already set: no change
  EXPECT_EQ(bits[1], support::wakeBitOf(65) | support::wakeBitOf(68));
  EXPECT_TRUE(support::testAndClearWakeBitShared(bits, 65));
  EXPECT_FALSE(support::testAndClearWakeBitShared(bits, 65));
  EXPECT_FALSE(support::testAndClearWakeBitShared(bits, 66));
  EXPECT_EQ(bits[1], support::wakeBitOf(68));
  EXPECT_EQ(bits[0], 0u);
}

// Partitioner step 1b seen from the engine: in the 8-bank XOR reduction
// only the toggling bank's tree and the output path run; the idle banks'
// trees, which share the output's MFFC, stay asleep. Full-cycle, CCSS,
// BSP and lane engines agree on the output every cycle, and the CCSS-family
// engines on every work counter.
TEST(ActivityEngine, IdleSubconesStayAsleep) {
  using tests::kReductionBanks;
  auto design = sim::CompiledDesign::compile(sim::buildFromFirrtl(tests::bankReductionFirrtl()));
  const SimIR& ir = design->ir;
  const core::Netlist nl = core::Netlist::build(ir);
  std::vector<size_t> treeOps;
  size_t allTreeOps = 0;
  for (int k = 0; k < kReductionBanks; k++) {
    treeOps.push_back(tests::bankTreeOps(ir, nl, k).size());
    allTreeOps += treeOps.back();
  }
  const size_t outputPathOps = ir.ops.size() - allTreeOps;

  auto ccss = CompiledCcss::compile(design, ScheduleOptions{});
  FullCycleEngine full(design);
  ActivityEngine serial(ccss);
  ParallelActivityEngine bsp(ccss, 2);
  LaneEngine lanes(ccss, 2);
  ActivityEngine soloLane1(ccss);  // lane 1's reference: a different bank toggles
  const int bank = 3, lane1Bank = 6;
  auto drive = [](sim::Engine& e, int toggling, uint64_t cycle) {
    for (int k = 0; k < kReductionBanks; k++)
      for (int i = 0; i < tests::kReductionBankRegs; i++)
        e.poke(tests::bankInput(k, i), k == toggling ? (cycle * 0x9e37 + i * 0x111 + 1) & 0xffff : 0);
  };
  std::vector<sim::Engine*> lane0Group = {&full, &serial, &bsp, &lanes.lane(0)};
  uint64_t before = 0;
  for (uint64_t c = 0; c < 64; c++) {
    for (sim::Engine* e : lane0Group) drive(*e, bank, c);
    drive(lanes.lane(1), lane1Bank, c);
    drive(soloLane1, lane1Bank, c);
    full.tick();
    serial.tick();
    bsp.tick();
    lanes.tick();
    soloLane1.tick();
    for (sim::Engine* e : lane0Group)
      ASSERT_EQ(e->peek("out"), full.peek("out")) << e->name() << " cycle " << c;
    ASSERT_EQ(lanes.lane(1).peek("out"), soloLane1.peek("out")) << "lane 1 cycle " << c;
    const uint64_t ops = serial.stats().opsEvaluated - before;
    before = serial.stats().opsEvaluated;
    if (c > 0) {
      EXPECT_LE(ops, treeOps[bank] + outputPathOps) << "cycle " << c;
    }
  }
  EXPECT_GT(full.peek("out"), 0u) << "the toggling bank must reach the output";

  auto expectSameWork = [](const sim::EngineStats& a, const sim::EngineStats& b,
                           const std::string& what) {
    EXPECT_EQ(a.cycles, b.cycles) << what;
    EXPECT_EQ(a.opsEvaluated, b.opsEvaluated) << what;
    EXPECT_EQ(a.partitionChecks, b.partitionChecks) << what;
    EXPECT_EQ(a.partitionActivations, b.partitionActivations) << what;
    EXPECT_EQ(a.outputComparisons, b.outputComparisons) << what;
    EXPECT_EQ(a.triggerSets, b.triggerSets) << what;
    EXPECT_EQ(a.signalsChangedTotal, b.signalsChangedTotal) << what;
  };
  expectSameWork(bsp.stats(), serial.stats(), "bsp");
  expectSameWork(lanes.lane(0).stats(), serial.stats(), "lane 0");
  expectSameWork(lanes.lane(1).stats(), soloLane1.stats(), "lane 1");
}

// --- Golden counters ---------------------------------------------------------
//
// A chain of shift-and-xor stages with an output tap per stage, so every
// stage is its own MFFC root and the schedule keeps long runs of the chain
// in consecutive positions: a change wakes each next stage in the same cycle
// (until the shifts drop it, at most 64 stages on), across the 63 -> 64 word
// boundary of the wake bitset. Each stage's register reloads from the stage
// `skip` ahead when four bits of that stage match, so register writes wake
// partitions at earlier positions (and themselves).
std::string wakeChainFirrtl(int stages, int skip) {
  auto n = [](const char* base, int i) {
    std::string name = base;  // appending sidesteps GCC 12's false -Wrestrict
    name += std::to_string(i);
    return name;
  };
  std::string t = "circuit W :\n  module W :\n    input clock : Clock\n    input in : UInt<64>\n";
  for (int i = 0; i < stages; i++) t += "    output " + n("o", i) + " : UInt<64>\n";
  for (int i = 0; i < stages; i++) t += "    reg " + n("r", i) + " : UInt<64>, clock\n";
  for (int i = 0; i < stages; i++) {
    const std::string prev = i == 0 ? "in" : n("a", i - 1);
    t += "    node " + n("a", i) + " = xor(shr(" + prev + ", 1), " + n("r", i) + ")\n";
    t += "    " + n("o", i) + " <= " + n("a", i) + "\n";
  }
  for (int i = 0; i < stages; i++) {
    const std::string src = n("a", (i + skip) % stages);
    t += "    " + n("r", i) + " <= mux(eq(bits(" + src + ", 3, 0), UInt<4>(" +
         std::to_string(i % 16) + ")), " + src + ", " + n("r", i) + ")\n";
  }
  return t;
}

// FNV-1a over every partition's activations, opsEvaluated and wakesIssued.
uint64_t profileDigest(const ActivityProfile& prof) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t v) {
    for (int b = 0; b < 8; b++) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (const PartitionProfile& pp : prof.parts) {
    mix(pp.activations);
    mix(pp.opsEvaluated);
    mix(pp.wakesIssued);
  }
  return h;
}

struct GoldenCounters {
  uint32_t cp;  // C_p (PartitionOptions::smallThreshold)
  uint64_t cycles, opsEvaluated, partitionChecks, partitionActivations;
  uint64_t outputComparisons, triggerSets, signalsChangedTotal;
  std::vector<uint64_t> activationsPerWindow;
  std::vector<uint64_t> partActivations;  // per schedule position
  uint64_t profileDigest;
};

// Recorded from the one-byte-per-position sweep the wake bitset replaced:
// the word-at-a-time sweep must run exactly the same partitions, in the
// same cycles, as the flag-at-a-time sweep did.
const GoldenCounters kWakeChainGolden[] = {
    {1, 96, 30691, 30336, 8771, 8771, 8983, 0,
     {1585, 1396, 1376, 1470, 1512, 1432},
     {1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 33, 36, 37, 38,
      38, 41, 42, 43, 44, 45, 45, 49, 50, 52, 56, 59, 60, 60, 62, 63, 65, 66, 70, 71,
      73, 73, 73, 77, 78, 77, 79, 79, 81, 82, 81, 84, 85, 85, 85, 85, 85, 85, 86, 87,
      87, 87, 87, 88, 88, 89, 89, 89, 89, 87, 86, 85, 83, 74, 62, 32, 32, 32, 32, 25,
      1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
      1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
      1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
      1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 3,
      4, 6, 35, 8, 38, 12, 40, 13, 39, 15, 42, 15, 13, 12, 8, 6, 4, 3, 2, 2,
      1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
      1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
      1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
      1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 25, 32,
      33, 33, 35, 63, 75, 83, 86, 87, 87, 89, 89, 89, 88, 88, 87, 87, 87, 87, 86, 85,
      85, 85, 86, 85, 85, 85, 81, 82, 81, 79, 79, 77, 78, 77, 73, 73, 73, 70, 70, 66,
      65, 63, 62, 60, 60, 60, 57, 52, 51, 49, 44, 44, 44, 43, 42, 41},
     0x868f4fc82038d0b3ULL},
    {8, 96, 39774, 16032, 5553, 11672, 7224, 0,
     {992, 883, 871, 929, 969, 909},
     {1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 33, 36, 37, 38,
      38, 41, 42, 44, 44, 48, 46, 54, 50, 52, 56, 59, 60, 60, 62, 63, 65, 66, 71, 71,
      73, 73, 73, 77, 78, 78, 79, 80, 82, 82, 82, 84, 86, 85, 85, 86, 86, 86, 87, 88,
      87, 87, 87, 88, 88, 89, 89, 89, 89, 87, 89, 85, 83, 74, 62, 32, 87, 87, 87, 87,
      88, 88, 89, 89, 89, 87, 1, 86, 83, 75, 63, 35, 1, 1, 1, 1, 1, 1, 1, 1,
      1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
      1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
      1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 3,
      4, 6, 8, 12, 13, 15, 15},
     0xcc67607c698e9af5ULL},
};

TEST(ActivityEngine, WakeBitSweepMatchesGoldenCounters) {
  const SimIR ir = sim::buildFromFirrtl(wakeChainFirrtl(150, 5));
  for (const GoldenCounters& g : kWakeChainGolden) {
    const std::string what = "C_p=" + std::to_string(g.cp);
    ScheduleOptions opts;
    opts.partition.smallThreshold = g.cp;
    ActivityEngine eng(CompiledCcss::compile(sim::CompiledDesign::compile(ir), opts));
    eng.setProfileWindow(16);
    eng.setProfiling(true);
    for (uint64_t c = 0; c < 96; c++) {
      eng.poke("in", (c / 3 + 1) * 0x9e3779b97f4a7c15ULL);  // changes every third cycle
      eng.tick();
    }

    // The schedule shape the golden numbers are meant to cover.
    const CondPartSchedule& sched = eng.schedule();
    const ActivityProfile& prof = eng.profile();
    const size_t nparts = sched.parts.size();
    EXPECT_GT(nparts, 128u) << what;
    EXPECT_NE(nparts % 64, 0u) << what;
    bool crossWordWake = false, backwardRegWake = false;
    for (size_t pos = 63; pos + 1 < nparts; pos += 64)
      for (const PartOutput& o : sched.parts[pos].outputs)
        for (int32_t c : o.consumers)
          if (static_cast<size_t>(c) == pos + 1 && prof.parts[pos].wakesIssued > 0 &&
              prof.parts[pos + 1].activations > 0)
            crossWordWake = true;
    for (size_t pos = 0; pos < nparts; pos++)
      for (const SchedRegWrite& rw : sched.parts[pos].regWrites)
        for (int32_t c : rw.wakeParts)
          if (static_cast<size_t>(c) <= pos && prof.parts[pos].activations > 0)
            backwardRegWake = true;
    EXPECT_TRUE(crossWordWake) << what;
    EXPECT_TRUE(backwardRegWake) << what;

    const sim::EngineStats& st = eng.stats();
    EXPECT_EQ(st.cycles, g.cycles) << what;
    EXPECT_EQ(st.opsEvaluated, g.opsEvaluated) << what;
    EXPECT_EQ(st.partitionChecks, g.partitionChecks) << what;
    EXPECT_EQ(st.partitionActivations, g.partitionActivations) << what;
    EXPECT_EQ(st.outputComparisons, g.outputComparisons) << what;
    EXPECT_EQ(st.triggerSets, g.triggerSets) << what;
    EXPECT_EQ(st.signalsChangedTotal, g.signalsChangedTotal) << what;
    EXPECT_EQ(prof.profiledCycles, g.cycles) << what;
    EXPECT_EQ(prof.activationsPerWindow, g.activationsPerWindow) << what;
    ASSERT_EQ(nparts, g.partActivations.size()) << what;
    for (size_t pos = 0; pos < nparts; pos++)
      EXPECT_EQ(prof.parts[pos].activations, g.partActivations[pos]) << what << " part " << pos;
    EXPECT_EQ(profileDigest(prof), g.profileDigest) << what;
  }
}

}  // namespace
}  // namespace essent::core
