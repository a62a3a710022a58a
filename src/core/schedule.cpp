#include "core/schedule.h"

#include <algorithm>
#include <unordered_map>

#include "obs/phase_timer.h"

namespace essent::core {

namespace {

// Deduplicates and sorts a wake list for deterministic triggering.
std::vector<int32_t> dedupSorted(std::vector<int32_t> v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

}  // namespace

CondPartSchedule buildScheduleFrom(const Netlist& nl, const Partitioning& parts,
                                   bool stateElision) {
  obs::ScopedPhaseTimer phaseTimer("schedule");
  const sim::SimIR& ir = *nl.ir;
  ElisionResult elision = analyzeElision(nl, parts, stateElision);

  CondPartSchedule sched;
  sched.partitionStats = parts.stats;

  // Map partition id -> position in the final schedule.
  std::vector<int32_t> posOfPart(parts.numPartitions());
  for (size_t i = 0; i < elision.schedule.size(); i++)
    posOfPart[static_cast<size_t>(elision.schedule[i])] = static_cast<int32_t>(i);

  sched.parts.resize(parts.numPartitions());

  // Schedule-order position of the partition owning a node.
  auto posOfNode = [&](int32_t node) {
    return posOfPart[static_cast<size_t>(parts.partOf[static_cast<size_t>(node)])];
  };

  // Ops per partition, ascending global index (global op order is
  // topological, so its restriction to a partition is a valid evaluation
  // order within the partition).
  for (size_t node = 0; node < nl.nodes.size(); node++) {
    const NetNode& nn = nl.nodes[node];
    if (nn.kind != NodeKind::Op) continue;
    auto& ops = sched.parts[static_cast<size_t>(posOfNode(static_cast<int32_t>(node)))].ops;
    if (nn.index2 >= 0) {
      // Supernode: all members belong to this node's partition.
      for (int32_t m : ir.supers[static_cast<size_t>(nn.index2)]) ops.push_back(m);
    } else {
      ops.push_back(nn.index);
    }
  }
  for (auto& part : sched.parts) std::sort(part.ops.begin(), part.ops.end());

  // Partition outputs: combinationally produced signals consumed by a node
  // in another partition. Consumers are recorded as schedule positions so
  // the engine can set activity flags directly (push-direction triggering
  // with one flag write per consumer, OR-reduced per output in the engine).
  // Grouping goes through a signal-keyed index instead of a linear scan of
  // the producer's output list (which is quadratic for wide producers);
  // output order stays first-encounter, and dedupSorted below canonicalizes
  // the consumer lists.
  {
    std::unordered_map<int32_t, size_t> outIdxOfSig;  // sig -> index in its producer's outputs
    for (size_t node = 0; node < nl.nodes.size(); node++) {
      int32_t myPos = posOfNode(static_cast<int32_t>(node));
      for (int32_t sig : nl.nodeReads[node]) {
        int32_t producer = nl.producerOf[static_cast<size_t>(sig)];
        if (producer < 0) continue;  // sources handled via input/state triggers
        int32_t prodPos = posOfNode(producer);
        if (prodPos == myPos) continue;
        auto& outs = sched.parts[static_cast<size_t>(prodPos)].outputs;
        auto [it, inserted] = outIdxOfSig.emplace(sig, outs.size());
        if (inserted) {
          outs.push_back(PartOutput{sig, {myPos}});
        } else {
          outs[it->second].consumers.push_back(myPos);
        }
      }
    }
  }
  for (auto& part : sched.parts) {
    for (auto& o : part.outputs) o.consumers = dedupSorted(std::move(o.consumers));
    sched.totalOutputs += part.outputs.size();
  }

  // Register writes: elided ones execute at the end of their partition and
  // wake the register's reader partitions (which already ran this cycle —
  // the flags persist into the next cycle, including self-wakeups);
  // non-elided ones go to the global phase 2.
  for (size_t r = 0; r < ir.regs.size(); r++) {
    std::vector<int32_t> wake;
    for (int32_t reader : nl.regReaders[r]) wake.push_back(posOfNode(reader));
    SchedRegWrite rw{static_cast<int32_t>(r), dedupSorted(std::move(wake))};
    if (elision.regElided[r]) {
      int32_t pos = posOfNode(nl.nodeOfRegWrite[r]);
      sched.parts[static_cast<size_t>(pos)].regWrites.push_back(std::move(rw));
      sched.elidedRegs++;
    } else {
      sched.deferredRegs.push_back(std::move(rw));
    }
  }

  for (size_t m = 0; m < ir.mems.size(); m++) {
    std::vector<int32_t> wake;
    for (int32_t reader : nl.memReaders[m]) wake.push_back(posOfNode(reader));
    wake = dedupSorted(std::move(wake));
    for (size_t w = 0; w < ir.mems[m].writers.size(); w++) {
      SchedMemWrite mw{static_cast<int32_t>(m), static_cast<int32_t>(w), wake};
      if (elision.memWriteElided[m][w]) {
        int32_t pos = posOfNode(nl.nodeOfMemWrite[m][w]);
        sched.parts[static_cast<size_t>(pos)].memWrites.push_back(std::move(mw));
        sched.elidedMemWrites++;
      } else {
        sched.deferredMemWrites.push_back(std::move(mw));
      }
    }
  }

  // Input-change triggers.
  sched.inputConsumers.resize(ir.inputs.size());
  for (size_t i = 0; i < ir.inputs.size(); i++) {
    std::vector<int32_t> wake;
    for (int32_t node : nl.sourceConsumers[static_cast<size_t>(ir.inputs[i])])
      wake.push_back(posOfNode(node));
    sched.inputConsumers[i] = dedupSorted(std::move(wake));
  }

  return sched;
}

CondPartSchedule buildSchedule(const Netlist& nl, const ScheduleOptions& opts) {
  Partitioning parts = partitionNetlist(nl, opts.partition);
  return buildScheduleFrom(nl, parts, opts.stateElision);
}

}  // namespace essent::core
