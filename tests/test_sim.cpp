// Tests for the SimIR builder, the IR optimizations, and the full-cycle /
// event-driven engines on hand-written designs.
#include <gtest/gtest.h>

#include "sim/compile.h"
#include "sim/event_driven.h"
#include "sim/full_cycle.h"
#include "sim/harness.h"
#include "sim/vcd.h"
#include "support/bvops.h"

#include <sstream>

namespace essent::sim {
namespace {

constexpr const char* kCounter = R"(
circuit Counter :
  module Counter :
    input clock : Clock
    input reset : UInt<1>
    input en : UInt<1>
    output count : UInt<8>
    reg r : UInt<8>, clock with : (reset => (reset, UInt<8>(0)))
    when en :
      r <= tail(add(r, UInt<8>(1)), 1)
    count <= r
)";

TEST(Builder, CounterStructure) {
  SimIR ir = buildFromFirrtl(kCounter);
  EXPECT_EQ(ir.name, "Counter");
  ASSERT_EQ(ir.regs.size(), 1u);
  EXPECT_EQ(ir.inputs.size(), 2u);  // reset, en (clock excluded)
  EXPECT_EQ(ir.outputs.size(), 1u);
  EXPECT_GE(ir.findSignal("r"), 0);
  EXPECT_GE(ir.findSignal("count"), 0);
  ir.validate();
}

TEST(Builder, BaselineDisablesOptimizations) {
  BuildOptions off;
  off.constProp = off.cse = off.dce = false;
  SimIR raw = buildFromFirrtl(kCounter, off);
  SimIR opt = buildFromFirrtl(kCounter);
  EXPECT_GE(raw.ops.size(), opt.ops.size());
  raw.validate();
}

TEST(FullCycle, CounterCounts) {
  SimIR ir = buildFromFirrtl(kCounter);
  FullCycleEngine eng(sim::CompiledDesign::compile(ir));
  eng.poke("reset", 1);
  eng.poke("en", 0);
  eng.tick();
  EXPECT_EQ(eng.peek("count"), 0u);
  eng.poke("reset", 0);
  eng.poke("en", 1);
  for (int i = 0; i < 10; i++) eng.tick();
  EXPECT_EQ(eng.peek("r"), 10u);
  eng.poke("en", 0);
  for (int i = 0; i < 5; i++) eng.tick();
  EXPECT_EQ(eng.peek("r"), 10u);
}

TEST(FullCycle, CounterWrapsAt256) {
  SimIR ir = buildFromFirrtl(kCounter);
  FullCycleEngine eng(sim::CompiledDesign::compile(ir));
  eng.poke("reset", 0);
  eng.poke("en", 1);
  for (int i = 0; i < 260; i++) eng.tick();
  EXPECT_EQ(eng.peek("r"), 4u);
}

constexpr const char* kGcd = R"(
circuit GCD :
  module GCD :
    input clock : Clock
    input reset : UInt<1>
    input a : UInt<16>
    input b : UInt<16>
    input load : UInt<1>
    output result : UInt<16>
    output valid : UInt<1>
    reg x : UInt<16>, clock with : (reset => (reset, UInt<16>(0)))
    reg y : UInt<16>, clock with : (reset => (reset, UInt<16>(0)))
    when load :
      x <= a
      y <= b
    else :
      when gt(x, y) :
        x <= tail(sub(x, y), 1)
      else :
        when neq(y, UInt<16>(0)) :
          y <= tail(sub(y, x), 1)
    result <= x
    valid <= eq(y, UInt<16>(0))
)";

TEST(FullCycle, GcdComputes) {
  SimIR ir = buildFromFirrtl(kGcd);
  FullCycleEngine eng(sim::CompiledDesign::compile(ir));
  eng.poke("reset", 0);
  eng.poke("a", 48);
  eng.poke("b", 36);
  eng.poke("load", 1);
  eng.tick();  // outputs here still reflect the pre-load state
  eng.poke("load", 0);
  eng.tick();  // first iteration on the loaded operands
  for (int i = 0; i < 100 && eng.peek("valid") == 0; i++) eng.tick();
  EXPECT_EQ(eng.peek("valid"), 1u);
  EXPECT_EQ(eng.peek("result"), 12u);
}

constexpr const char* kMemDesign = R"(
circuit Scratch :
  module Scratch :
    input clock : Clock
    input waddr : UInt<4>
    input wdata : UInt<32>
    input wen : UInt<1>
    input raddr : UInt<4>
    output rdata : UInt<32>
    mem table :
      data-type => UInt<32>
      depth => 16
      read-latency => 0
      write-latency => 1
      read-under-write => undefined
      reader => r
      writer => w
    table.r.addr <= raddr
    table.r.en <= UInt<1>(1)
    table.r.clk <= clock
    table.w.addr <= waddr
    table.w.en <= wen
    table.w.clk <= clock
    table.w.data <= wdata
    table.w.mask <= UInt<1>(1)
    rdata <= table.r.data
)";

TEST(FullCycle, MemoryWriteThenRead) {
  SimIR ir = buildFromFirrtl(kMemDesign);
  FullCycleEngine eng(sim::CompiledDesign::compile(ir));
  eng.poke("wen", 1);
  eng.poke("waddr", 5);
  eng.poke("wdata", 0xdeadbeef);
  eng.poke("raddr", 5);
  eng.tick();  // write commits at the cycle boundary; read saw old contents
  EXPECT_EQ(eng.peek("rdata"), 0u);
  eng.poke("wen", 0);
  eng.tick();
  EXPECT_EQ(eng.peek("rdata"), 0xdeadbeefu);
  // Unwritten cells stay zero.
  eng.poke("raddr", 6);
  eng.tick();
  EXPECT_EQ(eng.peek("rdata"), 0u);
}

TEST(FullCycle, MemoryLatencyOneRead) {
  std::string design = kMemDesign;
  design.replace(design.find("read-latency => 0"), 17, "read-latency => 1");
  SimIR ir = buildFromFirrtl(design);
  FullCycleEngine eng(sim::CompiledDesign::compile(ir));
  eng.poke("wen", 1);
  eng.poke("waddr", 3);
  eng.poke("wdata", 77);
  eng.poke("raddr", 3);
  eng.tick();  // cycle 1: write commits; read data register sampled old mem
  eng.poke("wen", 0);
  eng.tick();  // cycle 2: data register loads mem[3] as sampled in cycle 2
  eng.tick();  // cycle 3: registered value visible
  EXPECT_EQ(eng.peek("rdata"), 77u);
}

TEST(FullCycle, PrintfFiresWhenEnabled) {
  SimIR ir = buildFromFirrtl(R"(
circuit P :
  module P :
    input clock : Clock
    input en : UInt<1>
    input v : UInt<8>
    printf(clock, en, "v=%d x=%x b=%b\n", v, v, v)
)");
  FullCycleEngine eng(sim::CompiledDesign::compile(ir));
  eng.poke("en", 0);
  eng.poke("v", 5);
  eng.tick();
  EXPECT_TRUE(eng.printOutput().empty());
  eng.poke("en", 1);
  eng.poke("v", 10);
  eng.tick();
  EXPECT_EQ(eng.printOutput(), "v=10 x=a b=00001010\n");
}

TEST(FullCycle, StopSetsExitCode) {
  SimIR ir = buildFromFirrtl(R"(
circuit S :
  module S :
    input clock : Clock
    input reset : UInt<1>
    reg cnt : UInt<4>, clock with : (reset => (reset, UInt<4>(0)))
    cnt <= tail(add(cnt, UInt<4>(1)), 1)
    stop(clock, eq(cnt, UInt<4>(7)), 3)
)");
  FullCycleEngine eng(sim::CompiledDesign::compile(ir));
  eng.poke("reset", 0);
  RunResult res = runEngine(eng, 100);
  EXPECT_TRUE(res.stopped);
  EXPECT_EQ(res.exitCode, 3);
  EXPECT_EQ(res.cycles, 8u);  // cnt reaches 7 on the 8th evaluation
}

TEST(Optimizations, ConstPropFoldsConstantCone) {
  BuildOptions opts;
  opts.cse = opts.dce = false;
  SimIR ir = buildFromFirrtl(R"(
circuit C :
  module C :
    output o : UInt<8>
    node a = add(UInt<4>(3), UInt<4>(4))
    node b = mul(a, UInt<4>(2))
    o <= tail(b, 1)
)", opts);
  // After explicit constProp, the output-driving op chain is constant.
  constantPropagate(ir);
  FullCycleEngine eng(sim::CompiledDesign::compile(ir));
  eng.tick();
  EXPECT_EQ(eng.peek("o"), 14u);
  // Every op became Const or Copy-of-const.
  size_t arith = 0;
  for (const auto& op : ir.ops)
    if (op.code != OpCode::Const && op.code != OpCode::Copy) arith++;
  EXPECT_EQ(arith, 0u);
}

TEST(Optimizations, CseMergesDuplicateExprs) {
  BuildOptions raw;
  raw.constProp = raw.cse = raw.dce = false;
  SimIR ir = buildFromFirrtl(R"(
circuit D :
  module D :
    input a : UInt<8>
    input b : UInt<8>
    output x : UInt<9>
    output y : UInt<9>
    x <= add(a, b)
    y <= add(a, b)
)", raw);
  size_t before = ir.ops.size();
  OptStats st = eliminateCommonSubexprs(ir);
  EXPECT_GE(st.csesMerged, 1u);
  deadCodeEliminate(ir);
  EXPECT_LT(ir.ops.size(), before);
  ir.validate();
  FullCycleEngine eng(sim::CompiledDesign::compile(ir));
  eng.poke("a", 200);
  eng.poke("b", 100);
  eng.tick();
  EXPECT_EQ(eng.peek("x"), 300u);
  EXPECT_EQ(eng.peek("y"), 300u);
}

TEST(Optimizations, DceRemovesUnreadCone) {
  BuildOptions raw;
  raw.constProp = raw.cse = raw.dce = false;
  SimIR ir = buildFromFirrtl(R"(
circuit E :
  module E :
    input clock : Clock
    input a : UInt<8>
    output o : UInt<8>
    node unused = mul(a, a)
    reg deadreg : UInt<8>, clock
    deadreg <= a
    o <= a
)", raw);
  OptStats st = deadCodeEliminate(ir);
  EXPECT_GT(st.opsRemoved, 0u);
  EXPECT_TRUE(ir.regs.empty());  // deadreg feeds nothing
  ir.validate();
  FullCycleEngine eng(sim::CompiledDesign::compile(ir));
  eng.poke("a", 42);
  eng.tick();
  EXPECT_EQ(eng.peek("o"), 42u);
}

TEST(Builder, DetectsCombinationalCycle) {
  EXPECT_THROW(buildFromFirrtl(R"(
circuit L :
  module L :
    input a : UInt<1>
    output o : UInt<1>
    wire w1 : UInt<1>
    wire w2 : UInt<1>
    w1 <= and(w2, a)
    w2 <= or(w1, a)
    o <= w1
)"),
               BuildError);
}

// Every engine would sample an async reset at the clock edge, so the
// builder refuses it however the reset reaches the register: straight
// from a port (tests/corpus/bad/async_reset.fir), through a node alias,
// or through an instance port.
TEST(Builder, RejectsAsyncResetThroughAliases) {
  const char* viaNode = R"(
circuit A :
  module A :
    input clock : Clock
    input reset : AsyncReset
    input x : UInt<4>
    output y : UInt<4>
    node rst = reset
    reg r : UInt<4>, clock with : (reset => (rst, UInt<4>(0)))
    r <= x
    y <= r
)";
  const char* viaInstance = R"(
circuit A :
  module B :
    input clock : Clock
    input rst : AsyncReset
    input x : UInt<4>
    output y : UInt<4>
    reg r : UInt<4>, clock with : (reset => (rst, UInt<4>(0)))
    r <= x
    y <= r
  module A :
    input clock : Clock
    input reset : AsyncReset
    input x : UInt<4>
    output y : UInt<4>
    inst b of B
    b.clock <= clock
    b.rst <= reset
    b.x <= x
    y <= b.y
)";
  for (const char* fir : {viaNode, viaInstance}) {
    try {
      buildFromFirrtl(fir);
      ADD_FAILURE() << "async reset accepted:\n" << fir;
    } catch (const BuildError& e) {
      EXPECT_NE(std::string(e.what()).find("has an asynchronous reset"), std::string::npos)
          << e.what();
    }
  }
}

TEST(Builder, SignedArithmeticEndToEnd) {
  SimIR ir = buildFromFirrtl(R"(
circuit S :
  module S :
    input a : SInt<8>
    input b : SInt<8>
    output sum : SInt<9>
    output prod : SInt<16>
    output lt_out : UInt<1>
    sum <= add(a, b)
    prod <= mul(a, b)
    lt_out <= lt(a, b)
)");
  FullCycleEngine eng(sim::CompiledDesign::compile(ir));
  eng.pokeBV("a", BitVec::fromI64(8, -5));
  eng.pokeBV("b", BitVec::fromI64(8, 3));
  eng.tick();
  EXPECT_EQ(bvops::extend(eng.peekBV("sum"), true, 64).toI64(), -2);
  EXPECT_EQ(bvops::extend(eng.peekBV("prod"), true, 64).toI64(), -15);
  EXPECT_EQ(eng.peek("lt_out"), 1u);
}

TEST(Builder, WideValuesBeyond64Bits) {
  SimIR ir = buildFromFirrtl(R"(
circuit W :
  module W :
    input a : UInt<64>
    input b : UInt<64>
    output wide : UInt<128>
    output top : UInt<64>
    wire catted : UInt<128>
    catted <= cat(a, b)
    wide <= catted
    top <= bits(catted, 127, 64)
)");
  FullCycleEngine eng(sim::CompiledDesign::compile(ir));
  eng.poke("a", 0xdeadbeefcafebabeULL);
  eng.poke("b", 0x0123456789abcdefULL);
  eng.tick();
  EXPECT_EQ(eng.peekBV("wide").toHexString(), "deadbeefcafebabe0123456789abcdef");
  EXPECT_EQ(eng.peek("top"), 0xdeadbeefcafebabeULL);
}

TEST(EventDriven, MatchesFullCycleOnCounter) {
  SimIR ir = buildFromFirrtl(kCounter);
  FullCycleEngine a(sim::CompiledDesign::compile(ir));
  EventDrivenEngine b(sim::CompiledDesign::compile(ir));
  auto stim = [](Engine& e, uint64_t c) {
    e.poke("reset", c < 2 ? 1 : 0);
    e.poke("en", c % 3 != 0 ? 1 : 0);
  };
  auto mismatch = compareEngines(a, b, 50, stim);
  EXPECT_FALSE(mismatch.has_value()) << mismatch->describe();
}

TEST(EventDriven, SkipsWorkWhenIdle) {
  SimIR ir = buildFromFirrtl(kCounter);
  EventDrivenEngine eng(sim::CompiledDesign::compile(ir));
  eng.poke("reset", 0);
  eng.poke("en", 0);
  for (int i = 0; i < 10; i++) eng.tick();
  uint64_t opsAfterWarmup = eng.stats().opsEvaluated;
  for (int i = 0; i < 100; i++) eng.tick();
  // Design is completely idle: no further op evaluations at all.
  EXPECT_EQ(eng.stats().opsEvaluated, opsAfterWarmup);
}

TEST(Vcd, EmitsHeaderAndChangesOnly) {
  SimIR ir = buildFromFirrtl(kCounter);
  FullCycleEngine eng(sim::CompiledDesign::compile(ir));
  std::ostringstream out;
  VcdWriter vcd(out, eng);
  eng.poke("reset", 0);
  eng.poke("en", 1);
  eng.tick();
  vcd.sample(1);
  eng.poke("en", 0);
  eng.tick();
  vcd.sample(2);
  eng.tick();
  vcd.sample(3);  // nothing changed this cycle
  std::string text = out.str();
  EXPECT_NE(text.find("$enddefinitions"), std::string::npos);
  EXPECT_NE(text.find("$var wire 8"), std::string::npos);
  EXPECT_NE(text.find("#3"), std::string::npos);
  // The idle third sample emitted no value lines after its timestamp.
  size_t t3 = text.find("#3\n");
  EXPECT_EQ(text.substr(t3 + 3).find_first_not_of(" \n"), std::string::npos);
  EXPECT_GT(vcd.averageActivity(), 0.0);
  EXPECT_LT(vcd.averageActivity(), 1.0);
}

TEST(Harness, RunEngineStopsEarly) {
  SimIR ir = buildFromFirrtl(R"(
circuit S :
  module S :
    input clock : Clock
    input go : UInt<1>
    stop(clock, go, 1)
)");
  FullCycleEngine eng(sim::CompiledDesign::compile(ir));
  RunResult res = runEngine(eng, 100, [](Engine& e, uint64_t c) { e.poke("go", c == 4); });
  EXPECT_TRUE(res.stopped);
  EXPECT_EQ(res.cycles, 5u);
}

}  // namespace
}  // namespace essent::sim
