// Tests for the paper's core contribution: MFFC decomposition, the acyclic
// merge-based partitioner, the external-path merge test, state-element
// update elision, and the CCSS schedule. Includes the paper's Figure 2 and
// Figure 3 examples plus randomized acyclicity property sweeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "bank_reduction.h"
#include "core/elision.h"
#include "core/mffc.h"
#include "core/netlist.h"
#include "core/partitioner.h"
#include "core/schedule.h"
#include "designs/blocks.h"
#include "sim/compile.h"
#include "support/rng.h"

namespace essent::core {
namespace {

using graph::DiGraph;

TEST(Mffc, PaperFigure3Shape) {
  // Chain with a fanout: the MFFC of a node with multi-fanout members stops
  // at the fanout point, and a contained node's MFFC nests inside.
  //   0 -> 1 -> 3, 2 -> 3, 3 -> 4, 3 -> 5   (3 has two consumers)
  DiGraph g(6);
  g.addEdge(0, 1);
  g.addEdge(1, 3);
  g.addEdge(2, 3);
  g.addEdge(3, 4);
  g.addEdge(3, 5);
  auto m3 = mffcOf(g, 3);
  std::set<graph::NodeId> s3(m3.begin(), m3.end());
  EXPECT_EQ(s3, (std::set<graph::NodeId>{0, 1, 2, 3}));
  // MFFC(1) = {0, 1} is contained in MFFC(3).
  auto m1 = mffcOf(g, 1);
  std::set<graph::NodeId> s1(m1.begin(), m1.end());
  EXPECT_EQ(s1, (std::set<graph::NodeId>{0, 1}));
  for (auto n : s1) EXPECT_TRUE(s3.count(n));
  // MFFC of node 4: node 3 has external fanout (to 5), so MFFC(4) = {4}.
  auto m4 = mffcOf(g, 4);
  EXPECT_EQ(m4.size(), 1u);
}

TEST(Mffc, DecompositionCoversAllNodesDisjointly) {
  DiGraph g(7);
  g.addEdge(0, 2);
  g.addEdge(1, 2);
  g.addEdge(2, 3);
  g.addEdge(2, 4);
  g.addEdge(3, 5);
  g.addEdge(4, 6);
  int32_t parts = 0;
  auto partOf = mffcDecompose(g, &parts);
  EXPECT_GT(parts, 0);
  for (auto p : partOf) {
    EXPECT_GE(p, 0);
    EXPECT_LT(p, parts);
  }
  // Quotient graph must be acyclic.
  EXPECT_TRUE(graph::condense(g, partOf, parts).isAcyclic());
}

TEST(Mffc, DecompositionAcyclicOnRandomDags) {
  for (uint64_t seed = 1; seed <= 10; seed++) {
    Rng rng(seed);
    int n = 80;
    DiGraph g(n);
    for (int i = 0; i < n; i++)
      for (int j = i + 1; j < n; j++)
        if (rng.nextChance(0.06)) g.addEdge(i, j);
    int32_t parts = 0;
    auto partOf = mffcDecompose(g, &parts);
    EXPECT_TRUE(graph::condense(g, partOf, parts).isAcyclic()) << "seed " << seed;
  }
}

// Paper Figure 2: acyclic graph whose naive partitioning becomes cyclic.
// A -> C, C -> B, B -> D. Merging {A,B} and {C,D} creates a cycle; the
// external-path test must reject it, while {A,C}/{B,D} style merges pass.
TEST(Partitioner, ExternalPathTestRejectsFigure2Merge) {
  sim::SimIR ir = sim::buildFromFirrtl(R"(
circuit Fig2 :
  module Fig2 :
    input a : UInt<8>
    output o1 : UInt<8>
    output o2 : UInt<8>
    node c = not(a)
    node b = not(c)
    node d = not(b)
    o1 <= b
    o2 <= d
)",
                                       sim::BuildOptions{false, false, false});
  Netlist nl = Netlist::build(ir);
  // Partition fine, then check mergeability via partitionNetlist's internal
  // machinery indirectly: any partitioning it returns must be acyclic.
  for (uint32_t cp : {0u, 2u, 4u, 8u, 64u}) {
    PartitionOptions opts;
    opts.smallThreshold = cp;
    Partitioning p = partitionNetlist(nl, opts);
    EXPECT_TRUE(p.partGraph.isAcyclic());
  }
}

sim::SimIR buildDesign(const std::string& text, bool optimize = true) {
  sim::BuildOptions opts;
  if (!optimize) opts.constProp = opts.cse = opts.dce = false;
  return sim::buildFromFirrtl(text, opts);
}

TEST(Partitioner, ProducesAcyclicPartitionsOnDesigns) {
  std::vector<std::string> designs = {
      designs::counterFirrtl(16),
      designs::aluArrayFirrtl(8, 16),
      designs::pipelineFirrtl(12, 16),
      designs::gatedBanksFirrtl(16, 16),
  };
  for (const auto& text : designs) {
    sim::SimIR ir = buildDesign(text);
    Netlist nl = Netlist::build(ir);
    Partitioning p = partitionNetlist(nl);
    EXPECT_TRUE(p.partGraph.isAcyclic());
    // Every node assigned to exactly one partition (partitioning, not
    // clustering: no replication).
    std::vector<int> count(p.numPartitions(), 0);
    size_t total = 0;
    for (const auto& members : p.members) total += members.size();
    EXPECT_EQ(total, nl.nodes.size());
    for (int32_t part : p.partOf) {
      ASSERT_GE(part, 0);
      ASSERT_LT(static_cast<size_t>(part), p.numPartitions());
    }
    // Schedule is a permutation of partitions.
    std::set<int32_t> sched(p.schedule.begin(), p.schedule.end());
    EXPECT_EQ(sched.size(), p.numPartitions());
  }
}

TEST(Partitioner, CoarseningReducesPartitionCount) {
  sim::SimIR ir = buildDesign(designs::aluArrayFirrtl(32, 16));
  Netlist nl = Netlist::build(ir);
  PartitionOptions fine;
  fine.smallThreshold = 0;
  fine.phaseSingleParent = false;
  fine.phaseSmallSiblings = false;
  fine.phaseAnySibling = false;
  Partitioning mffcOnly = partitionNetlist(nl, fine);

  Partitioning merged = partitionNetlist(nl);  // default C_p = 8
  EXPECT_LT(merged.numPartitions(), mffcOnly.numPartitions());
  EXPECT_GT(merged.numPartitions(), 0u);
  // Merging must reduce (or keep) the cut.
  EXPECT_LE(merged.stats.cutEdges, mffcOnly.stats.cutEdges);
}

TEST(Partitioner, LargerCpYieldsFewerPartitions) {
  sim::SimIR ir = buildDesign(designs::gatedBanksFirrtl(32, 16));
  Netlist nl = Netlist::build(ir);
  size_t prev = SIZE_MAX;
  for (uint32_t cp : {2u, 8u, 32u}) {
    PartitionOptions opts;
    opts.smallThreshold = cp;
    Partitioning p = partitionNetlist(nl, opts);
    EXPECT_TRUE(p.partGraph.isAcyclic());
    EXPECT_LE(p.numPartitions(), prev);
    prev = p.numPartitions();
  }
}

TEST(Partitioner, RandomDesignsAlwaysAcyclic) {
  for (uint64_t seed = 1; seed <= 12; seed++) {
    designs::RandomDesignConfig cfg;
    cfg.numNodes = 80;
    sim::SimIR ir = buildDesign(designs::randomDesignFirrtl(seed, cfg));
    Netlist nl = Netlist::build(ir);
    for (uint32_t cp : {2u, 8u, 32u}) {
      PartitionOptions opts;
      opts.smallThreshold = cp;
      Partitioning p = partitionNetlist(nl, opts);
      EXPECT_TRUE(p.partGraph.isAcyclic()) << "seed " << seed << " cp " << cp;
    }
  }
}

// Step 1b: the XOR reduction over 8 register banks is one MFFC. Each bank's
// tree is an independent sub-cone and gets a partition of its own, so one
// bank's change no longer re-runs the other seven trees. A tree that also
// reads a node outside itself (the shared leaf `s`) stays with the output.
// C_p = 0 cuts too: the cut sizes are not C_p.
TEST(Partitioner, OversizedConeIsCutAtIndependentSubcones) {
  using tests::kReductionBanks;
  for (bool shared : {false, true}) {
    sim::SimIR ir = buildDesign(tests::bankReductionFirrtl(shared));
    Netlist nl = Netlist::build(ir);
    int32_t outOp = -1;
    for (size_t op = 0; op < ir.ops.size(); op++)
      if (ir.signals[static_cast<size_t>(ir.ops[op].dest)].name == "out")
        outOp = static_cast<int32_t>(op);
    ASSERT_GE(outOp, 0);
    for (uint32_t cp : {0u, 8u}) {
      const std::string what = std::string(shared ? "shared" : "plain") + " C_p=" +
                               std::to_string(cp);
      PartitionOptions opts;
      opts.smallThreshold = cp;
      Partitioning p = partitionNetlist(nl, opts);
      EXPECT_TRUE(p.partGraph.isAcyclic()) << what;
      EXPECT_EQ(p.stats.afterCut, p.stats.initialParts + p.stats.conesCut) << what;

      std::vector<std::set<int>> banksOf(p.numPartitions());
      for (int k = 0; k < kReductionBanks; k++) {
        std::set<int32_t> tree = tests::bankTreeOps(ir, nl, k);
        ASSERT_GE(tree.size(), 15u) << what << " bank " << k;
        for (int32_t op : tree)
          banksOf[static_cast<size_t>(p.partOf[static_cast<size_t>(nl.nodeOfOp[op])])].insert(k);
      }
      const size_t outPart = static_cast<size_t>(p.partOf[static_cast<size_t>(nl.nodeOfOp[outOp])]);
      for (size_t q = 0; q < banksOf.size(); q++) {
        if (q != outPart) {
          EXPECT_LE(banksOf[q].size(), 1u) << what << " partition " << q;
        }
      }
      if (!shared) {
        EXPECT_GE(p.stats.conesCut, static_cast<size_t>(kReductionBanks)) << what;
        EXPECT_TRUE(banksOf[outPart].empty()) << what;
      } else {
        EXPECT_EQ(banksOf[outPart], (std::set<int>{0, kReductionBanks - 1})) << what;
      }
    }
  }
}

TEST(Netlist, SplitsStateAndTracksReaders) {
  sim::SimIR ir = buildDesign(designs::counterFirrtl(8));
  Netlist nl = Netlist::build(ir);
  EXPECT_TRUE(nl.g.isAcyclic());  // register split guarantees this
  ASSERT_EQ(ir.regs.size(), 1u);
  // The counter register is read by its own increment logic.
  EXPECT_FALSE(nl.regReaders[0].empty());
  EXPECT_GE(nl.nodeOfRegWrite[0], 0);
  // Sinks exist (register write at minimum).
  EXPECT_FALSE(nl.sinks().empty());
}

TEST(Elision, CounterRegisterElidable) {
  sim::SimIR ir = buildDesign(designs::counterFirrtl(8));
  Netlist nl = Netlist::build(ir);
  Partitioning p = partitionNetlist(nl);
  ElisionResult e = analyzeElision(nl, p, true);
  // A simple counter's readers land with (or before) the writer; the
  // register must be elidable and the graph stays acyclic.
  EXPECT_TRUE(e.regElided[0]);
  EXPECT_TRUE(e.orderedPartGraph.isAcyclic());
  ElisionResult off = analyzeElision(nl, p, false);
  EXPECT_FALSE(off.regElided[0]);
}

TEST(Elision, OrderingEdgesKeepScheduleValid) {
  for (uint64_t seed = 20; seed < 28; seed++) {
    sim::SimIR ir = buildDesign(designs::randomDesignFirrtl(seed));
    Netlist nl = Netlist::build(ir);
    Partitioning p = partitionNetlist(nl);
    ElisionResult e = analyzeElision(nl, p, true);
    EXPECT_TRUE(e.orderedPartGraph.isAcyclic());
    EXPECT_EQ(e.schedule.size(), p.numPartitions());
    // Readers of each elided register appear no later than the writer.
    std::vector<int32_t> pos(p.numPartitions());
    for (size_t i = 0; i < e.schedule.size(); i++) pos[static_cast<size_t>(e.schedule[i])] = static_cast<int32_t>(i);
    for (size_t r = 0; r < ir.regs.size(); r++) {
      if (!e.regElided[r]) continue;
      int32_t wp = p.partOf[static_cast<size_t>(nl.nodeOfRegWrite[r])];
      for (int32_t reader : nl.regReaders[r]) {
        int32_t rp = p.partOf[static_cast<size_t>(reader)];
        EXPECT_LE(pos[static_cast<size_t>(rp)], pos[static_cast<size_t>(wp)]);
      }
    }
  }
}

TEST(Schedule, EveryOpScheduledExactlyOnce) {
  sim::SimIR ir = buildDesign(designs::aluArrayFirrtl(16, 24));
  Netlist nl = Netlist::build(ir);
  CondPartSchedule sched = buildSchedule(nl);
  std::vector<int> seen(ir.ops.size(), 0);
  for (const auto& part : sched.parts) {
    // Intra-partition op order must be ascending global topo order.
    EXPECT_TRUE(std::is_sorted(part.ops.begin(), part.ops.end()));
    for (int32_t op : part.ops) seen[static_cast<size_t>(op)]++;
  }
  for (int c : seen) EXPECT_EQ(c, 1);  // singular execution
  // Every register is either elided into a partition or deferred.
  size_t regCount = 0;
  for (const auto& part : sched.parts) regCount += part.regWrites.size();
  regCount += sched.deferredRegs.size();
  EXPECT_EQ(regCount, ir.regs.size());
}

TEST(Schedule, OutputConsumersPointForward) {
  sim::SimIR ir = buildDesign(designs::pipelineFirrtl(8, 16));
  Netlist nl = Netlist::build(ir);
  CondPartSchedule sched = buildSchedule(nl);
  for (size_t pos = 0; pos < sched.parts.size(); pos++) {
    for (const auto& o : sched.parts[pos].outputs) {
      for (int32_t c : o.consumers) {
        // Combinational consumers must execute after their producer.
        EXPECT_GT(c, static_cast<int32_t>(pos));
      }
    }
  }
}

}  // namespace
}  // namespace essent::core
