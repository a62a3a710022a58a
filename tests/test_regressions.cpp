// Regression corpus: tricky FIRRTL shapes exercised end-to-end through
// build + simulation, each checked either against hand-computed values or
// across engines. These pin down lowering semantics (last-connect, when
// scoping, zero-width values, cross-register feedback, latency-1 memories
// under CCSS, signed corner cases).
#include <gtest/gtest.h>

#include "core/activity_engine.h"
#include "sim/compile.h"
#include "sim/event_driven.h"
#include "sim/full_cycle.h"
#include "sim/harness.h"
#include "support/bvops.h"
#include "support/strutil.h"

namespace essent {
namespace {

using core::ActivityEngine;
using core::ScheduleOptions;
using sim::EventDrivenEngine;
using sim::FullCycleEngine;
using sim::SimIR;

// Runs the design on all three engines in lock step; returns the full-cycle
// engine value of `probe` after `cycles` ticks with the given stimulus.
uint64_t runAllEngines(const std::string& firrtl, uint64_t cycles, const sim::StimulusFn& stim,
                       const std::string& probe) {
  SimIR ir = sim::buildFromFirrtl(firrtl);
  FullCycleEngine fc(sim::CompiledDesign::compile(ir));
  EventDrivenEngine ev(sim::CompiledDesign::compile(ir));
  ActivityEngine act(core::CompiledCcss::compile(sim::CompiledDesign::compile(ir), ScheduleOptions{}));
  auto m1 = sim::compareEngines(fc, ev, cycles, stim);
  EXPECT_FALSE(m1.has_value()) << "event-driven: " << m1->describe();
  FullCycleEngine fc2(sim::CompiledDesign::compile(ir));
  auto m2 = sim::compareEngines(fc2, act, cycles, stim);
  EXPECT_FALSE(m2.has_value()) << "ccss: " << m2->describe();
  return fc.peek(probe);
}

TEST(Regression, DeepWhenNesting) {
  std::string design = R"(
circuit W :
  module W :
    input a : UInt<1>
    input b : UInt<1>
    input c : UInt<1>
    input d : UInt<1>
    output o : UInt<4>
    o <= UInt<4>(0)
    when a :
      o <= UInt<4>(1)
      when b :
        o <= UInt<4>(2)
        when c :
          o <= UInt<4>(3)
          when d :
            o <= UInt<4>(4)
          else :
            o <= UInt<4>(5)
        else :
          when d :
            o <= UInt<4>(6)
)";
  // a=1,b=1,c=0,d=1 -> inner else-when d: o=6
  uint64_t v = runAllEngines(design, 3, [](sim::Engine& e, uint64_t) {
    e.poke("a", 1);
    e.poke("b", 1);
    e.poke("c", 0);
    e.poke("d", 1);
  }, "o");
  EXPECT_EQ(v, 6u);
}

TEST(Regression, LastConnectAcrossWhens) {
  std::string design = R"(
circuit L :
  module L :
    input p : UInt<1>
    output o : UInt<8>
    o <= UInt<8>(1)
    when p :
      o <= UInt<8>(2)
    o <= UInt<8>(3)
)";
  // The trailing unconditional connect wins regardless of p.
  for (uint64_t pv : {0ull, 1ull}) {
    uint64_t v = runAllEngines(design, 2, [pv](sim::Engine& e, uint64_t) { e.poke("p", pv); },
                               "o");
    EXPECT_EQ(v, 3u);
  }
}

TEST(Regression, NodeDeclaredInsideWhen) {
  std::string design = R"(
circuit N :
  module N :
    input p : UInt<1>
    input x : UInt<8>
    output o : UInt<8>
    o <= UInt<8>(0)
    when p :
      node doubled = tail(add(x, x), 1)
      o <= doubled
)";
  uint64_t v = runAllEngines(design, 2, [](sim::Engine& e, uint64_t) {
    e.poke("p", 1);
    e.poke("x", 21);
  }, "o");
  EXPECT_EQ(v, 42u);
}

TEST(Regression, ZeroWidthValues) {
  SimIR ir = sim::buildFromFirrtl(R"(
circuit Z :
  module Z :
    input a : UInt<0>
    output o : UInt<8>
    output c : UInt<1>
    node padded = pad(a, 8)
    o <= padded
    c <= eq(a, UInt<0>(0))
)");
  FullCycleEngine eng(sim::CompiledDesign::compile(ir));
  eng.tick();
  EXPECT_EQ(eng.peek("o"), 0u);  // zero-width values always read 0
  EXPECT_EQ(eng.peek("c"), 1u);
}

TEST(Regression, CrossCoupledRegistersAreLegal) {
  // Feedback through *state* is fine (the split breaks the cycle): swap
  // registers every cycle.
  std::string design = R"(
circuit X :
  module X :
    input clock : Clock
    input reset : UInt<1>
    output a_out : UInt<8>
    output b_out : UInt<8>
    reg a : UInt<8>, clock with : (reset => (reset, UInt<8>(1)))
    reg b : UInt<8>, clock with : (reset => (reset, UInt<8>(2)))
    a <= b
    b <= a
    a_out <= a
    b_out <= b
)";
  uint64_t v = runAllEngines(design, 7, [](sim::Engine& e, uint64_t c) {
    e.poke("reset", c == 0);
  }, "a_out");
  // cycle 0: reset -> a=1,b=2; cycles 1..6: six swaps. a_out is the
  // combinational value computed *before* the sixth swap, i.e. a after five
  // swaps = 2.
  EXPECT_EQ(v, 2u);
}

TEST(Regression, RegisterLoadedFromRegisterTakesOldValue) {
  // Without a reset there is no mux between the registers: `b <= a` makes
  // a's register signal b's next value. Engines that commit registers one
  // by one must still shift by one stage per cycle, and swap without reset.
  std::string design = R"(
circuit S :
  module S :
    input clock : Clock
    input d : UInt<8>
    output o : UInt<8>
    output s : UInt<8>
    reg a : UInt<8>, clock
    reg b : UInt<8>, clock
    reg c : UInt<8>, clock
    reg x : UInt<8>, clock
    reg y : UInt<8>, clock
    a <= d
    b <= a
    c <= b
    o <= c
    x <= mux(eq(d, UInt<8>(1)), UInt<8>(7), y)
    y <= x
    s <= y
)";
  auto stim = [](sim::Engine& e, uint64_t c) { e.poke("d", c + 1); };
  // o reads c before the tick's commit, so tick 4 shows the d of tick 1.
  EXPECT_EQ(runAllEngines(design, 4, stim, "o"), 1u);
  EXPECT_EQ(runAllEngines(design, 6, stim, "o"), 3u);
  // x loads 7 on tick 1 and swaps with y after that: s shows 7 on tick 3.
  EXPECT_EQ(runAllEngines(design, 3, stim, "s"), 7u);
  EXPECT_EQ(runAllEngines(design, 4, stim, "s"), 0u);
}

TEST(Regression, Latency1MemoryUnderCcss) {
  std::string design = R"(
circuit M :
  module M :
    input clock : Clock
    input wen : UInt<1>
    input addr : UInt<3>
    input wdata : UInt<8>
    output rdata : UInt<8>
    mem t :
      data-type => UInt<8>
      depth => 8
      read-latency => 1
      write-latency => 1
      reader => r
      writer => w
    t.r.addr <= addr
    t.r.en <= UInt<1>(1)
    t.r.clk <= clock
    t.w.addr <= addr
    t.w.en <= wen
    t.w.clk <= clock
    t.w.data <= wdata
    t.w.mask <= UInt<1>(1)
    rdata <= t.r.data
)";
  runAllEngines(design, 50, [](sim::Engine& e, uint64_t c) {
    e.poke("wen", c % 3 == 0);
    e.poke("addr", c % 8);
    e.poke("wdata", (c * 17) & 0xff);
  }, "rdata");
}

TEST(Regression, SignedMinimumValues) {
  SimIR ir = sim::buildFromFirrtl(R"(
circuit S :
  module S :
    input a : SInt<8>
    output negv : SInt<9>
    output divv : SInt<9>
    output remv : SInt<8>
    negv <= neg(a)
    divv <= div(a, SInt<8>(-1))
    remv <= rem(a, SInt<8>(3))
)");
  FullCycleEngine eng(sim::CompiledDesign::compile(ir));
  eng.pokeBV("a", BitVec::fromI64(8, -128));
  eng.tick();
  // neg(-128) widens to 9 bits: +128.
  EXPECT_EQ(bvops::extend(eng.peekBV("negv"), true, 64).toI64(), 128);
  // -128 / -1 = +128 (representable in the widened 9-bit result).
  EXPECT_EQ(bvops::extend(eng.peekBV("divv"), true, 64).toI64(), 128);
  // rem keeps the dividend's sign: -128 rem 3 = -2.
  EXPECT_EQ(bvops::extend(eng.peekBV("remv"), true, 64).toI64(), -2);
}

TEST(Regression, DiamondInstanceHierarchy) {
  // Two instances of B, each instantiating C: names must stay disjoint and
  // values independent.
  std::string design = R"(
circuit Top :
  module C :
    input x : UInt<8>
    output y : UInt<8>
    y <= tail(add(x, UInt<8>(1)), 1)
  module B :
    input x : UInt<8>
    output y : UInt<8>
    inst c of C
    c.x <= tail(add(x, x), 1)
    y <= c.y
  module Top :
    input u : UInt<8>
    input v : UInt<8>
    output ou : UInt<8>
    output ov : UInt<8>
    inst b1 of B
    inst b2 of B
    b1.x <= u
    b2.x <= v
    ou <= b1.y
    ov <= b2.y
)";
  SimIR ir = sim::buildFromFirrtl(design);
  FullCycleEngine eng(sim::CompiledDesign::compile(ir));
  eng.poke("u", 10);
  eng.poke("v", 100);
  eng.tick();
  EXPECT_EQ(eng.peek("ou"), 21u);   // 2*10+1
  EXPECT_EQ(eng.peek("ov"), 201u);  // 2*100+1
}

TEST(Regression, MuxWithMismatchedArmWidths) {
  SimIR ir = sim::buildFromFirrtl(R"(
circuit M :
  module M :
    input s : UInt<1>
    output o : UInt<8>
    o <= mux(s, UInt<8>(200), UInt<3>(5))
)");
  FullCycleEngine eng(sim::CompiledDesign::compile(ir));
  eng.poke("s", 0);
  eng.tick();
  EXPECT_EQ(eng.peek("o"), 5u);
  eng.poke("s", 1);
  eng.tick();
  EXPECT_EQ(eng.peek("o"), 200u);
}

TEST(Regression, StopInsideWhenHonorsPathCondition) {
  SimIR ir = sim::buildFromFirrtl(R"(
circuit S :
  module S :
    input clock : Clock
    input go : UInt<1>
    input arm : UInt<1>
    when arm :
      stop(clock, go, 7)
)");
  FullCycleEngine eng(sim::CompiledDesign::compile(ir));
  eng.poke("go", 1);
  eng.poke("arm", 0);
  eng.tick();
  EXPECT_FALSE(eng.stopped());
  eng.poke("arm", 1);
  eng.tick();
  EXPECT_TRUE(eng.stopped());
  EXPECT_EQ(eng.exitCode(), 7);
}

TEST(Regression, ValidIfActsAsValue) {
  std::string design = R"(
circuit V :
  module V :
    input c : UInt<1>
    input x : UInt<8>
    output o : UInt<8>
    o <= validif(c, x)
)";
  uint64_t v = runAllEngines(design, 3, [](sim::Engine& e, uint64_t) {
    e.poke("c", 0);  // condition false: our defined semantics still yield x
    e.poke("x", 99);
  }, "o");
  EXPECT_EQ(v, 99u);
}

TEST(Regression, AssertFiresOnViolation) {
  SimIR ir = sim::buildFromFirrtl(R"(
circuit A :
  module A :
    input clock : Clock
    input v : UInt<8>
    input en : UInt<1>
    output o : UInt<8>
    assert(clock, lt(v, UInt<8>(100)), en, "v out of range")
    o <= v
)");
  FullCycleEngine eng(sim::CompiledDesign::compile(ir));
  eng.poke("v", 50);
  eng.poke("en", 1);
  eng.tick();
  EXPECT_FALSE(eng.stopped());
  eng.poke("v", 200);
  eng.poke("en", 0);  // disabled: no failure
  eng.tick();
  EXPECT_FALSE(eng.stopped());
  eng.poke("en", 1);
  eng.tick();
  EXPECT_TRUE(eng.stopped());
  EXPECT_EQ(eng.exitCode(), 65);
  EXPECT_NE(eng.printOutput().find("assertion failed: v out of range"), std::string::npos);
}

TEST(Regression, AssertInsideWhenHonorsPath) {
  std::string design = R"(
circuit A :
  module A :
    input clock : Clock
    input arm : UInt<1>
    input bad : UInt<1>
    output o : UInt<1>
    when arm :
      assert(clock, not(bad), UInt<1>(1), "armed failure")
    o <= bad
)";
  SimIR ir = sim::buildFromFirrtl(design);
  FullCycleEngine eng(sim::CompiledDesign::compile(ir));
  eng.poke("arm", 0);
  eng.poke("bad", 1);
  eng.tick();
  EXPECT_FALSE(eng.stopped());
  eng.poke("arm", 1);
  eng.tick();
  EXPECT_TRUE(eng.stopped());
  // All engines agree on assertion timing.
  SimIR ir2 = sim::buildFromFirrtl(design);
  FullCycleEngine a(sim::CompiledDesign::compile(ir2));
  ActivityEngine b(core::CompiledCcss::compile(sim::CompiledDesign::compile(ir2), ScheduleOptions{}));
  auto m = sim::compareEngines(a, b, 20, [](sim::Engine& e, uint64_t c) {
    e.poke("arm", c >= 5);
    e.poke("bad", c >= 8);
  });
  EXPECT_FALSE(m.has_value()) << m->describe();
}

TEST(Regression, HugeFanoutSignal) {
  // One input feeding 200 consumers: triggering tables must stay correct.
  std::string design = "circuit F :\n  module F :\n    input clock : Clock\n";
  design += "    input x : UInt<8>\n    output o : UInt<8>\n";
  for (int i = 0; i < 200; i++)
    design += strfmt("    node n%d = tail(add(x, UInt<8>(%d)), 1)\n", i, i);
  std::string acc = "n0";
  for (int i = 1; i < 200; i++) {
    design += strfmt("    node x%d = xor(%s, n%d)\n", i, acc.c_str(), i);
    acc = strfmt("x%d", i);
  }
  design += "    o <= " + acc + "\n";
  runAllEngines(design, 20, [](sim::Engine& e, uint64_t c) {
    e.poke("x", c % 4 == 0 ? c : 0);
  }, "o");
}

TEST(Regression, DivRemDshrByZeroAndPastWidth) {
  // Division edge cases must agree across engines AND match the FIRRTL
  // spec reading used throughout the repo: x/0 == 0, x%0 == x (truncated
  // to the result width), dynamic shift right by >= width == 0.
  std::string design = R"(
circuit D :
  module D :
    input clock : Clock
    input x : UInt<8>
    input sh : UInt<4>
    output dz : UInt<8>
    output rz : UInt<8>
    output shr : UInt<8>
    dz <= div(x, UInt<8>(0))
    rz <= rem(x, UInt<8>(0))
    shr <= dshr(x, sh)
)";
  SimIR ir = sim::buildFromFirrtl(design);
  FullCycleEngine fc(sim::CompiledDesign::compile(ir));
  fc.poke("x", 200);
  fc.poke("sh", 9);
  fc.tick();
  EXPECT_EQ(fc.peek("dz"), 0u);
  EXPECT_EQ(fc.peek("rz"), 200u);
  EXPECT_EQ(fc.peek("shr"), 0u);
  runAllEngines(design, 20, [](sim::Engine& e, uint64_t c) {
    e.poke("x", (c * 37) & 0xff);
    e.poke("sh", c % 16);
  }, "rz");
}

TEST(Regression, SignedRemInt64MinByMinusOne) {
  // INT64_MIN % -1 is UB in C++ (traps with SIGFPE on x86); both the
  // interpreter fast path and the emitted codegen guard the divisor. The
  // mathematical remainder is 0.
  std::string design = R"(
circuit R :
  module R :
    input a : SInt<64>
    input b : SInt<64>
    output o : SInt<64>
    o <= rem(a, b)
)";
  SimIR ir = sim::buildFromFirrtl(design);
  FullCycleEngine fc(sim::CompiledDesign::compile(ir));
  fc.pokeBV("a", BitVec::fromI64(64, INT64_MIN));
  fc.pokeBV("b", BitVec::fromI64(64, -1));
  fc.tick();
  EXPECT_EQ(fc.peekBV("o").toU64(), 0u);
  // Remainder sign follows the dividend.
  fc.pokeBV("b", BitVec::fromI64(64, 3));
  fc.tick();
  EXPECT_EQ(fc.peekBV("o").toI64(), -2);
  // And a divisor of 0 returns the dividend, even at INT64_MIN.
  fc.pokeBV("b", BitVec::fromI64(64, 0));
  fc.tick();
  EXPECT_EQ(fc.peekBV("o").toI64(), INT64_MIN);
  runAllEngines(design, 6, [](sim::Engine& e, uint64_t c) {
    e.pokeBV("a", BitVec::fromI64(64, c % 2 ? INT64_MIN : -7));
    e.pokeBV("b", BitVec::fromI64(64, static_cast<int64_t>(c) - 3));  // hits -1 and 0
  }, "o");
}

// The next three designs graduated from the differential fuzzer's corner
// generator (tests/corpus/ holds the same circuits as replayable .fir+.stim
// pairs; the essent_fuzz_tests suite replays them through all five engines).

TEST(Regression, FuzzCornerZeroWidthOps) {
  // UInt<0> flowing through pad/orr/eq/cat and into a register.
  std::string design = R"(
circuit CornerZW :
  module CornerZW :
    input clock : Clock
    input reset : UInt<1>
    input z : UInt<0>
    input a : UInt<8>
    output o : UInt<8>
    output rout : UInt<2>
    node zp = pad(z, 8)
    node zo = orr(z)
    node ze = eq(z, UInt<0>(0))
    node zc = cat(a, z)
    reg r : UInt<2>, clock with : (reset => (reset, UInt<2>(0)))
    r <= cat(ze, zo)
    o <= tail(add(zc, zp), 1)
    rout <= r
)";
  uint64_t v = runAllEngines(design, 8, [](sim::Engine& e, uint64_t c) {
    e.poke("reset", c < 2);
    e.poke("a", (0xff35 >> (c % 8)) & 0xff);
  }, "rout");
  // zo == 0 (orr of nothing), ze == 1 (0 == 0), so r settles at 0b10.
  EXPECT_EQ(v, 2u);
}

TEST(Regression, FuzzCornerDeeplyNestedMux) {
  // A 12-deep mux chain selected bit-by-bit: exercises partition nesting
  // in CCSS and mux short-circuiting in the event-driven engine.
  std::string design = "circuit M :\n  module M :\n    input clock : Clock\n";
  design += "    input s : UInt<12>\n    input a : UInt<8>\n    output o : UInt<8>\n";
  design += "    node m0 = mux(bits(s, 0, 0), a, not(a))\n";
  for (int i = 1; i < 12; i++)
    design += strfmt(
        "    node m%d = mux(bits(s, %d, %d), m%d, tail(add(m%d, UInt<8>(%d)), 1))\n",
        i, i, i, i - 1, i - 1, i);
  design += "    o <= m11\n";
  runAllEngines(design, 16, [](sim::Engine& e, uint64_t c) {
    e.poke("s", c == 0 ? 0 : (1u << (c % 12)));
    e.poke("a", 0x5a);
  }, "o");
  // Direct check of the all-else path: s == 0 -> o == ((~a)+1)+2+...+11.
  SimIR ir = sim::buildFromFirrtl(design);
  FullCycleEngine fc(sim::CompiledDesign::compile(ir));
  fc.poke("s", 0);
  fc.poke("a", 0x5a);
  fc.tick();
  EXPECT_EQ(fc.peek("o"), ((~0x5aull & 0xff) + 66) & 0xff);
}

TEST(Regression, FuzzCornerMemSameCycleReadWrite) {
  // Latency-0 and latency-1 memories written and read at the SAME address
  // in the same cycle: the latency-0 read must see the pre-write value
  // (write latency is 1), and the latency-1 read must pipeline by a cycle.
  std::string design = R"(
circuit CM :
  module CM :
    input clock : Clock
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
)";
  runAllEngines(design, 24, [](sim::Engine& e, uint64_t c) {
    e.poke("addr", (c / 2) % 8);  // revisit each address twice
    e.poke("wdata", (c * 11) & 0xff);
    e.poke("wen", c % 3 != 0);
  }, "r0");
}

}  // namespace
}  // namespace essent
