// Partition visualizer: runs the acyclic partitioner on a design and emits
// the partition graph as Graphviz DOT (one node per partition, sized by
// member count), plus a text summary of the merge phases.
//
// Usage:  ./build/examples/partition_viz [alu|pipeline|banks|gcd] [C_p] > out.dot
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/partitioner.h"
#include "designs/blocks.h"
#include "designs/gcd.h"
#include "sim/compile.h"

using namespace essent;

int main(int argc, char** argv) {
  const char* which = argc > 1 ? argv[1] : "alu";
  uint32_t cp = argc > 2 ? static_cast<uint32_t>(std::atoi(argv[2])) : 8;

  std::string firrtl;
  if (std::strcmp(which, "pipeline") == 0) firrtl = designs::pipelineFirrtl(16, 16);
  else if (std::strcmp(which, "banks") == 0) firrtl = designs::gatedBanksFirrtl(16, 16);
  else if (std::strcmp(which, "gcd") == 0) firrtl = designs::gcdFirrtl(16);
  else firrtl = designs::aluArrayFirrtl(16, 16);

  sim::SimIR ir = sim::buildFromFirrtl(firrtl);
  core::Netlist nl = core::Netlist::build(ir);
  core::PartitionOptions opts;
  opts.smallThreshold = cp;
  core::Partitioning p = core::partitionNetlist(nl, opts);

  std::fprintf(stderr,
               "design %s: %d nodes, %lld edges\n"
               "MFFC decomposition: %zu partitions\n"
               "after the oversized-cone cut (%zu sub-cones): %zu partitions\n"
               "after phase A (single-parent merges, %zu merges): %zu partitions\n"
               "after phase B (small-sibling merges, %zu merges): %zu partitions\n"
               "final (phase C: %zu merges, %zu rejected by external-path test): %zu "
               "partitions, %lld cut edges\n",
               which, nl.g.numNodes(), static_cast<long long>(nl.g.numEdges()),
               p.stats.initialParts, p.stats.conesCut, p.stats.afterCut, p.stats.mergesA, p.stats.afterSingleParent,
               p.stats.mergesB, p.stats.afterSmallSiblings, p.stats.mergesC,
               p.stats.rejectedMerges, p.stats.finalParts,
               static_cast<long long>(p.stats.cutEdges));

  std::printf("digraph partitions {\n  rankdir=TB;\n  node [shape=circle];\n");
  for (size_t i = 0; i < p.members.size(); i++) {
    double size = 0.3 + 0.12 * static_cast<double>(p.members[i].size());
    std::printf("  p%zu [label=\"%zu\\n(%zu)\", width=%.2f];\n", i, i, p.members[i].size(),
                size);
  }
  for (graph::NodeId v = 0; v < p.partGraph.numNodes(); v++)
    for (graph::NodeId w : p.partGraph.outNeighbors(v))
      std::printf("  p%d -> p%d;\n", v, w);
  std::printf("}\n");
  return 0;
}
