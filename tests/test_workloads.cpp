// Tests for the TinySoC assembler, the benchmark programs, and the workload
// driver (Table II infrastructure).
#include <gtest/gtest.h>

#include <stdexcept>

#include "designs/tinysoc.h"
#include "sim/compile.h"
#include "sim/full_cycle.h"
#include "workloads/assembler.h"
#include "workloads/driver.h"
#include "workloads/programs.h"

namespace essent::workloads {
namespace {

TEST(Assembler, EncodesFields) {
  // ADD x1, x2, x3 -> op=2 rd=1 rs=2 rt=3
  uint16_t w = encodeR(Opc::Add, 1, 2, 3);
  EXPECT_EQ(w >> 12, 2);
  EXPECT_EQ((w >> 9) & 7, 1u);
  EXPECT_EQ((w >> 6) & 7, 2u);
  EXPECT_EQ((w >> 3) & 7, 3u);
  // ADDI with negative immediate wraps into 6 bits.
  uint16_t i = encodeI(Opc::Addi, 1, 1, -1);
  EXPECT_EQ(i & 0x3f, 0x3fu);
  EXPECT_EQ(encodeJ(Opc::Jmp, 0x123) & 0xfff, 0x123u);
}

TEST(Assembler, RangeChecks) {
  EXPECT_THROW(encodeR(Opc::Add, 8, 0, 0), AsmError);
  EXPECT_THROW(encodeI(Opc::Addi, 0, 0, 40), AsmError);
  EXPECT_THROW(encodeI(Opc::Addi, 0, 0, -33), AsmError);
  EXPECT_THROW(encodeJ(Opc::Jmp, 5000), AsmError);
}

TEST(Assembler, ResolvesLabelsBackAndForward) {
  Asm a;
  a.label("start");
  a.addi(1, 0, 1);
  a.bne(1, 0, "end");   // forward
  a.jmp("start");       // backward
  a.label("end");
  a.halt();
  auto words = a.assemble();
  ASSERT_EQ(words.size(), 4u);
  // bne at index 1, target 3 -> offset +2
  EXPECT_EQ(words[1] & 0x3f, 2u);
  EXPECT_EQ(words[2] & 0xfff, 0u);
}

TEST(Assembler, UndefinedLabelThrows) {
  Asm a;
  a.jmp("nowhere");
  EXPECT_THROW(a.assemble(), AsmError);
}

TEST(Assembler, DuplicateLabelThrows) {
  Asm a;
  a.label("x");
  EXPECT_THROW(a.label("x"), AsmError);
}

TEST(Assembler, LiBuildsFullConstants) {
  // Verify li on the real core for several values.
  sim::SimIR ir = sim::buildFromFirrtl(designs::tinySoCFirrtl(designs::socTiny()));
  for (uint16_t value : {0u, 5u, 31u, 32u, 255u, 0x1234u, 0xffffu, 0x8000u}) {
    Asm a;
    a.li(1, value);
    a.sw(1, 0, 21);
    a.halt();
    Program p{"li", "", a.assemble(), {}};
    sim::FullCycleEngine eng(sim::CompiledDesign::compile(ir));
    loadProgram(eng, p);
    auto res = runWorkload(eng, 2000);
    ASSERT_TRUE(res.halted);
    EXPECT_EQ(res.result, value) << "li " << value;
  }
}

TEST(Programs, HaveDistinctCharacters) {
  auto d = dhrystoneProgram(8);
  auto m = matmulProgram(3, 1);
  auto p = pchaseProgram(16, 1);
  EXPECT_FALSE(d.code.empty());
  EXPECT_FALSE(m.code.empty());
  EXPECT_FALSE(p.code.empty());
  EXPECT_TRUE(m.data.size() >= 18u);   // two 3x3 matrices
  EXPECT_EQ(p.data.size(), 16u);       // the pointer chain
  // The pchase chain is a single cycle covering all nodes.
  std::map<uint16_t, uint16_t> chain(p.data.begin(), p.data.end());
  std::set<uint16_t> visited;
  uint16_t cur = 256;
  for (int i = 0; i < 16; i++) {
    visited.insert(cur);
    cur = chain.at(cur);
  }
  EXPECT_EQ(visited.size(), 16u);
  EXPECT_EQ(cur, 256u);  // returns to the head
}

TEST(Programs, ExpectedValuesAreStable) {
  // The host reference model must be deterministic.
  EXPECT_EQ(dhrystoneExpected(16), dhrystoneExpected(16));
  EXPECT_EQ(matmulExpected(3, 1), matmulExpected(3, 1));
  EXPECT_EQ(pchaseExpected(16, 2), pchaseExpected(16, 2));
  // And sensitive to parameters.
  EXPECT_NE(dhrystoneExpected(8), dhrystoneExpected(16));
}

TEST(Programs, RejectLoopCountsA16BitCounterCannotHold) {
  EXPECT_THROW(dhrystoneProgram(0), std::invalid_argument);
  EXPECT_THROW(dhrystoneProgram(65536), std::invalid_argument);
  EXPECT_NO_THROW(dhrystoneProgram(65535));
  EXPECT_THROW(matmulProgram(3, 0), std::invalid_argument);
  EXPECT_THROW(matmulProgram(3, 65536), std::invalid_argument);
  EXPECT_NO_THROW(matmulProgram(3, 65535));
  // pchase counts listLength x laps steps, computed without 32-bit wrap.
  EXPECT_THROW(pchaseProgram(64, 1536), std::invalid_argument);  // 98304 steps
  EXPECT_THROW(pchaseProgram(65536, 65536), std::invalid_argument);
  EXPECT_THROW(pchaseProgram(0, 8), std::invalid_argument);
  EXPECT_THROW(pchaseProgram(64, 0), std::invalid_argument);
  EXPECT_NO_THROW(pchaseProgram(64, 1023));  // 65472 steps
}

TEST(Driver, ReportsInstretAndCycles) {
  sim::SimIR ir = sim::buildFromFirrtl(designs::tinySoCFirrtl(designs::socTiny()));
  sim::FullCycleEngine eng(sim::CompiledDesign::compile(ir));
  auto prog = pchaseProgram(8, 1);
  loadProgram(eng, prog);
  auto res = runWorkload(eng, 10000);
  ASSERT_TRUE(res.halted);
  // 8 loads + overhead; every load stalls memLatency+1 cycles, so CPI > 1.
  EXPECT_GT(res.instret, 8u);
  EXPECT_GT(res.cycles, res.instret);
  EXPECT_EQ(res.result, pchaseExpected(8, 1));
}

TEST(Driver, WorkloadCycleCountsOrderLikeTable2) {
  // Relative cycle counts should mirror Table II's ordering:
  // dhrystone < matmul < pchase for comparable "iteration" scales.
  sim::SimIR ir = sim::buildFromFirrtl(designs::tinySoCFirrtl(designs::socTiny()));
  auto cyclesOf = [&](const Program& p) {
    sim::FullCycleEngine eng(sim::CompiledDesign::compile(ir));
    loadProgram(eng, p);
    return runWorkload(eng, 2000000).cycles;
  };
  uint64_t d = cyclesOf(dhrystoneProgram(32));
  uint64_t m = cyclesOf(matmulProgram(5, 2));
  uint64_t p = cyclesOf(pchaseProgram(64, 64));
  EXPECT_LT(d, m);
  EXPECT_LT(m, p);
}

TEST(Driver, MmioStartsAccelerator) {
  sim::SimIR ir = sim::buildFromFirrtl(designs::tinySoCFirrtl(designs::socTiny()));
  sim::FullCycleEngine eng(sim::CompiledDesign::compile(ir));
  Asm a;
  a.li(6, 0x8000);
  a.li(1, 0x1234);
  a.sw(1, 6, 0);  // start accel 0 with operand 0x1234
  a.lw(2, 6, 1);  // read busy
  a.sw(2, 0, 21);
  a.halt();
  Program p{"mmio", "", a.assemble(), {}};
  loadProgram(eng, p);
  auto res = runWorkload(eng, 1000);
  ASSERT_TRUE(res.halted);
  EXPECT_EQ(res.result, 1u);  // accel still busy right after start
  // status output reflects accel lane mixing (nonzero after running).
  EXPECT_NE(eng.peek("status"), 0u);
}

}  // namespace
}  // namespace essent::workloads
