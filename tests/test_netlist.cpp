// Tests for the computation netlist (core/netlist.h): state splitting,
// source-consumer bookkeeping, reader tracking, and sink identification —
// the graph facts the partitioner and elision analysis rely on.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/netlist.h"
#include "designs/blocks.h"
#include "sim/compile.h"

namespace essent::core {
namespace {

sim::SimIR build(const char* text) {
  sim::BuildOptions raw;
  raw.constProp = raw.cse = raw.dce = false;  // keep the netlist predictable
  return sim::buildFromFirrtl(text, raw);
}

TEST(Netlist, OpNodesMirrorOps) {
  sim::SimIR ir = build(R"(
circuit N :
  module N :
    input a : UInt<8>
    input b : UInt<8>
    output o : UInt<9>
    o <= add(a, b)
)");
  Netlist nl = Netlist::build(ir);
  ASSERT_EQ(nl.nodeOfOp.size(), ir.ops.size());
  for (size_t i = 0; i < ir.ops.size(); i++) {
    int32_t node = nl.nodeOfOp[i];
    ASSERT_GE(node, 0);
    EXPECT_EQ(nl.nodes[static_cast<size_t>(node)].kind, NodeKind::Op);
    EXPECT_EQ(nl.nodes[static_cast<size_t>(node)].index, static_cast<int32_t>(i));
  }
}

TEST(Netlist, InputsAreSourcesWithConsumers) {
  sim::SimIR ir = build(R"(
circuit N :
  module N :
    input a : UInt<8>
    output o1 : UInt<8>
    output o2 : UInt<8>
    o1 <= not(a)
    o2 <= tail(add(a, a), 1)
)");
  Netlist nl = Netlist::build(ir);
  int32_t a = ir.findSignal("a");
  ASSERT_GE(a, 0);
  EXPECT_EQ(nl.producerOf[static_cast<size_t>(a)], -1);
  // Both cones consume the input directly.
  EXPECT_EQ(nl.sourceConsumers[static_cast<size_t>(a)].size(), 2u);
}

TEST(Netlist, RegisterSplitBreaksFeedback) {
  sim::SimIR ir = build(R"(
circuit N :
  module N :
    input clock : Clock
    output q : UInt<8>
    reg r : UInt<8>, clock
    r <= tail(add(r, UInt<8>(1)), 1)
    q <= r
)");
  Netlist nl = Netlist::build(ir);
  EXPECT_TRUE(nl.g.isAcyclic());
  ASSERT_EQ(nl.regReaders.size(), 1u);
  // Readers: the add op and the q copy op both read the register output.
  EXPECT_EQ(nl.regReaders[0].size(), 2u);
  int32_t writeNode = nl.nodeOfRegWrite[0];
  ASSERT_GE(writeNode, 0);
  // The write node is a sink: no outgoing combinational edges.
  EXPECT_TRUE(nl.g.outNeighbors(writeNode).empty());
  auto sinks = nl.sinks();
  EXPECT_NE(std::find(sinks.begin(), sinks.end(), writeNode), sinks.end());
}

TEST(Netlist, RegToRegConnect) {
  // r2 <= r1 gives a RegWrite node that reads r1 through a Copy op: the
  // snapshot is combinational, so every engine computes it before any
  // register is written (no engine may hand r2 the new value of r1).
  sim::SimIR ir = build(R"(
circuit N :
  module N :
    input clock : Clock
    input d : UInt<4>
    output q : UInt<4>
    reg r1 : UInt<4>, clock
    reg r2 : UInt<4>, clock
    r1 <= d
    r2 <= r1
    q <= r2
)");
  Netlist nl = Netlist::build(ir);
  EXPECT_TRUE(nl.g.isAcyclic());
  // r1's only reader is the Copy op, whose only consumer is r2's write node.
  int32_t r1 = ir.findSignal("r1");
  int32_t r2 = ir.findSignal("r2");
  bool writeReadsR1 = false;
  for (size_t r = 0; r < ir.regs.size(); r++) {
    if (ir.regs[r].sig != r1) continue;
    ASSERT_EQ(nl.regReaders[r].size(), 1u);
    const int32_t reader = nl.regReaders[r][0];
    ASSERT_EQ(nl.nodes[static_cast<size_t>(reader)].kind, NodeKind::Op);
    EXPECT_EQ(ir.ops[static_cast<size_t>(nl.nodes[static_cast<size_t>(reader)].index)].code,
              sim::OpCode::Copy);
    for (int32_t consumer : nl.g.outNeighbors(reader)) {
      const NetNode& node = nl.nodes[static_cast<size_t>(consumer)];
      if (node.kind == NodeKind::RegWrite && ir.regs[static_cast<size_t>(node.index)].sig == r2)
        writeReadsR1 = true;
    }
  }
  EXPECT_TRUE(writeReadsR1);
}

TEST(Netlist, MemNodesAndReaders) {
  sim::SimIR ir = build(R"(
circuit N :
  module N :
    input clock : Clock
    input addr : UInt<3>
    input wen : UInt<1>
    input wdata : UInt<8>
    output o : UInt<8>
    mem t :
      data-type => UInt<8>
      depth => 8
      read-latency => 0
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
    o <= t.r.data
)");
  Netlist nl = Netlist::build(ir);
  ASSERT_EQ(nl.memReaders.size(), 1u);
  EXPECT_EQ(nl.memReaders[0].size(), 1u);  // one MemRead op
  ASSERT_EQ(nl.nodeOfMemWrite.size(), 1u);
  ASSERT_EQ(nl.nodeOfMemWrite[0].size(), 1u);
  int32_t writeNode = nl.nodeOfMemWrite[0][0];
  // The mem write node reads addr/en/data/mask (4 signals).
  EXPECT_EQ(nl.nodeReads[static_cast<size_t>(writeNode)].size(), 4u);
  EXPECT_TRUE(nl.g.outNeighbors(writeNode).empty());
}

TEST(Netlist, PrintAndStopAreSinks) {
  sim::SimIR ir = build(R"(
circuit N :
  module N :
    input clock : Clock
    input en : UInt<1>
    input v : UInt<8>
    printf(clock, en, "%d", v)
    stop(clock, en, 1)
)");
  Netlist nl = Netlist::build(ir);
  size_t prints = 0, stops = 0;
  for (const auto& n : nl.nodes) {
    if (n.kind == NodeKind::Print) prints++;
    if (n.kind == NodeKind::Stop) stops++;
  }
  EXPECT_EQ(prints, 1u);
  EXPECT_EQ(stops, 1u);
  // They anchor the cones of their enables/args (they appear as sinks).
  auto sinks = nl.sinks();
  EXPECT_GE(sinks.size(), 2u);
}

TEST(Netlist, NodeReadsAreDeduplicated) {
  sim::SimIR ir = build(R"(
circuit N :
  module N :
    input a : UInt<8>
    output o : UInt<16>
    o <= mul(a, a)
)");
  Netlist nl = Netlist::build(ir);
  // mul(a, a) reads `a` twice but the read list holds it once.
  int32_t a = ir.findSignal("a");
  for (size_t n = 0; n < nl.nodes.size(); n++) {
    const auto& reads = nl.nodeReads[n];
    EXPECT_LE(std::count(reads.begin(), reads.end(), a), 1);
  }
  EXPECT_EQ(nl.sourceConsumers[static_cast<size_t>(a)].size(), 1u);
}

TEST(Netlist, ScalesLinearly) {
  // Sanity guard: node/edge counts track design size.
  sim::SimIR small = sim::buildFromFirrtl(designs::aluArrayFirrtl(8, 16));
  sim::SimIR large = sim::buildFromFirrtl(designs::aluArrayFirrtl(32, 16));
  Netlist a = Netlist::build(small), b = Netlist::build(large);
  EXPECT_GT(b.g.numNodes(), 2 * a.g.numNodes());
  EXPECT_GT(b.g.numEdges(), 2 * a.g.numEdges());
}

}  // namespace
}  // namespace essent::core
