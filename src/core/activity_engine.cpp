#include "core/activity_engine.h"

#include "obs/trace.h"
#include "sim/op_eval.h"
#include "support/wake_bits.h"

namespace essent::core {

using sim::ExecOp;
using sim::MemInfo;
using sim::RegInfo;

namespace {

std::shared_ptr<const CcssSchedule> buildCcssSchedule(const sim::CompiledDesign& design,
                                                      CondPartSchedule sched) {
  auto body = std::make_shared<CcssSchedule>();
  body->sched = std::move(sched);
  // Lay out the flat old-value save area, one slot span per output.
  uint32_t off = 0;
  body->partOutBase.reserve(body->sched.parts.size());
  for (const auto& part : body->sched.parts) {
    body->partOutBase.push_back(body->outputSaveOff.size());
    for (const auto& o : part.outputs) {
      body->outputSaveOff.push_back(off);
      off += design.layout.nwords[o.sig];
    }
  }
  body->saveWords = off;
  return body;
}

// Sequential tick phases are Busy on the calling thread, unless a pool.work
// span above it (a SimFarm worker running this engine) already claims them.
obs::TraceCat sequentialCat() {
  return obs::trace_detail::inPooledWork() ? obs::TraceCat::None : obs::TraceCat::Busy;
}

}  // namespace

std::shared_ptr<const CompiledCcss> CompiledCcss::compile(
    std::shared_ptr<const sim::CompiledDesign> design, CondPartSchedule sched) {
  auto cc = std::make_shared<CompiledCcss>();
  cc->body = buildCcssSchedule(*design, std::move(sched));
  cc->design = std::move(design);
  return cc;
}

std::shared_ptr<const CompiledCcss> CompiledCcss::compile(
    std::shared_ptr<const sim::CompiledDesign> design, const ScheduleOptions& opts) {
  CondPartSchedule sched = buildSchedule(Netlist::build(design->ir), opts);
  return compile(std::move(design), std::move(sched));
}

std::shared_ptr<const CompiledCcss> CompiledCcss::get(
    const std::shared_ptr<const sim::CompiledDesign>& design, const ScheduleOptions& opts) {
  // The key encodes every option the schedule build depends on.
  const PartitionOptions& po = opts.partition;
  std::string key = "ccss/cp=" + std::to_string(po.smallThreshold) +
                    "/pA=" + std::to_string(po.phaseSingleParent) +
                    "/pB=" + std::to_string(po.phaseSmallSiblings) +
                    "/pC=" + std::to_string(po.phaseAnySibling) +
                    "/elide=" + std::to_string(opts.stateElision);
  // Only the design-free schedule body lives in the cache (see
  // CcssSchedule); the wrapper pairing it with the design is rebuilt per
  // call and is two shared_ptr copies.
  auto cc = std::make_shared<CompiledCcss>();
  cc->body = design->getOrBuildExt<CcssSchedule>(key, [&design, &opts]() {
    return buildCcssSchedule(*design,
                             buildSchedule(Netlist::build(design->ir), opts));
  });
  cc->design = design;
  return cc;
}

ActivityEngine::ActivityEngine(std::shared_ptr<const CompiledCcss> ccss)
    : Engine(ccss->design),
      ccss_(std::move(ccss)),
      sched_(ccss_->body->sched),
      lanes_(1),
      lastActivations_(sched_.parts.size()),
      outputSaveOff_(ccss_->body->outputSaveOff),
      partOutBase_(ccss_->body->partOutBase) {
  support::setAllWakeBits(active_, sched_.parts.size());
  prevInputs_.assign(layout_.totalWords, 0);
  outputSave_.assign(ccss_->body->saveWords, 0);
  firstCycle_ = true;
}

void ActivityEngine::resetState() {
  Engine::resetState();
  support::setAllWakeBits(active_, sched_.parts.size());
  std::fill(prevInputs_.begin(), prevInputs_.end(), 0);
  std::fill(outputSave_.begin(), outputSave_.end(), 0);
  firstCycle_ = true;
  clearProfile();  // keep profile sums consistent with the zeroed stats_
}

void ActivityEngine::onStateClobbered() {
  support::setAllWakeBits(active_, sched_.parts.size());
  firstCycle_ = true;
}

void ActivityEngine::clearProfile() {
  prof_.profiledCycles = 0;
  prof_.activationsPerWindow.clear();
  std::fill(prof_.parts.begin(), prof_.parts.end(), PartitionProfile{});
}

void ActivityEngine::setProfiling(bool on) {
  profiling_ = on;
  if (on && prof_.parts.size() != sched_.parts.size())
    prof_.parts.assign(sched_.parts.size(), PartitionProfile{});
}

void ActivityEngine::setProfileWindow(uint32_t cycles) {
  prof_.windowCycles = cycles == 0 ? 1 : cycles;
  clearProfile();
}

void ActivityEngine::wake(const std::vector<int32_t>& parts, SweepLane& lane) {
  if (lane.outbox == nullptr) {
    for (int32_t p : parts) support::setWakeBit(active_, static_cast<size_t>(p));
  } else {
    // A lane sets just the bits it owns and posts every other wake to the
    // owner's mailbox. Another lane may own bits of the same word, so the
    // set is an atomic OR.
    for (int32_t p : parts) {
      const unsigned owner = static_cast<unsigned>(lane.ownerOf[p]);
      if (owner == lane.index)
        support::setWakeBitShared(active_, static_cast<size_t>(p));
      else
        lane.outbox[owner].push_back(p);
    }
  }
  lane.triggerSets += parts.size();
}

void ActivityEngine::applyRegWrite(const SchedRegWrite& rw, SweepLane& lane) {
  const RegInfo& r = ir_->regs[static_cast<size_t>(rw.regIdx)];
  lane.outputComparisons++;
  if (sigValsEqual(r.sig, r.next)) return;
  copySigWords(r.sig, r.next);
  // All readers already ran this cycle (ordering edges), so these flags
  // take effect next cycle — the paper's immediate-wakeup insight.
  wake(rw.wakeParts, lane);
}

void ActivityEngine::applyMemWrite(const SchedMemWrite& mw, SweepLane& lane) {
  const MemInfo& mem = ir_->mems[static_cast<size_t>(mw.memIdx)];
  const sim::MemWriter& w = mem.writers[static_cast<size_t>(mw.writerIdx)];
  if (state_.vals[layout_.offset[w.en]] == 0) return;
  if (state_.vals[layout_.offset[w.mask]] == 0) return;
  uint64_t addr = state_.vals[layout_.offset[w.addr]];
  if (addr >= mem.depth) return;
  uint32_t rw = state_.memRowWords[static_cast<size_t>(mw.memIdx)];
  uint32_t off = layout_.offset[w.data];
  auto& words = state_.memWords[static_cast<size_t>(mw.memIdx)];
  bool changed = false;
  lane.outputComparisons++;
  for (uint32_t i = 0; i < rw; i++) {
    if (words[addr * rw + i] != state_.vals[off + i]) {
      words[addr * rw + i] = state_.vals[off + i];
      changed = true;
    }
  }
  if (changed) wake(mw.wakeParts, lane);
}

void ActivityEngine::runPartition(size_t pos, SweepLane& lane) {
  obs::TraceSpan span("part", obs::TraceCat::None, obs::TraceDetail::Partition,
                      "part", pos);
  const CondPart& part = sched_.parts[pos];
  lane.activations++;
  const uint64_t wakesBefore = lane.triggerSets;

  // Save old output values.
  size_t outBase = partOutBase_[pos];
  for (size_t oi = 0; oi < part.outputs.size(); oi++) {
    const PartOutput& o = part.outputs[oi];
    uint32_t so = outputSaveOff_[outBase + oi];
    uint32_t vo = layout_.offset[o.sig];
    for (uint32_t i = 0; i < layout_.nwords[o.sig]; i++)
      outputSave_[so + i] = state_.vals[vo + i];
  }

  // Full-cycle style straight-line evaluation of the partition's ops;
  // combinational-loop supernodes (always wholly contained in one
  // partition) iterate to convergence.
  if (!ir_->hasCombLoops()) {
    for (int32_t opIdx : part.ops)
      sim::evalExecOp(*ir_, layout_, state_, exec_[static_cast<size_t>(opIdx)]);
  } else {
    for (size_t k = 0; k < part.ops.size();) {
      int32_t opIdx = part.ops[k];
      int32_t super = ir_->superOf(static_cast<size_t>(opIdx));
      if (super < 0) {
        sim::evalExecOp(*ir_, layout_, state_, exec_[static_cast<size_t>(opIdx)]);
        k++;
        continue;
      }
      size_t j = k;
      while (j < part.ops.size() &&
             ir_->superOf(static_cast<size_t>(part.ops[j])) == super)
        j++;
      sim::evalSuperRange(*ir_, layout_, state_, exec_.data() + opIdx, j - k);
      k = j;
    }
  }
  lane.opsEvaluated += part.ops.size();

  // Elided state updates (end of partition: every internal reader op has
  // already evaluated with the old value).
  for (const auto& rw : part.regWrites) applyRegWrite(rw, lane);
  for (const auto& mw : part.memWrites) applyMemWrite(mw, lane);

  // Push-direction triggering: wake consumers of changed outputs. The
  // change test is a branchless OR-reduction over the output's words.
  for (size_t oi = 0; oi < part.outputs.size(); oi++) {
    const PartOutput& o = part.outputs[oi];
    uint32_t so = outputSaveOff_[outBase + oi];
    uint32_t vo = layout_.offset[o.sig];
    uint64_t diff = 0;
    for (uint32_t i = 0; i < layout_.nwords[o.sig]; i++)
      diff |= outputSave_[so + i] ^ state_.vals[vo + i];
    lane.outputComparisons++;
    if (diff != 0) wake(o.consumers, lane);
  }

  if (profiling_) {
    // prof_.parts[pos] is touched only by the lane that runs pos.
    PartitionProfile& pp = prof_.parts[pos];
    pp.activations++;
    pp.opsEvaluated += part.ops.size();
    pp.wakesIssued += lane.triggerSets - wakesBefore;
  }
}

void ActivityEngine::sweepInputs() {
  // 1. External input change detection.
  if (!firstCycle_) {
    for (size_t i = 0; i < ir_->inputs.size(); i++) {
      int32_t in = ir_->inputs[i];
      if (!sigWordsEqual(in, prevInputs_.data() + layout_.offset[in]))
        wake(sched_.inputConsumers[i], lanes_[0]);
    }
  }
  for (int32_t in : ir_->inputs) {
    uint32_t off = layout_.offset[in];
    for (uint32_t i = 0; i < layout_.nwords[in]; i++) prevInputs_[off + i] = state_.vals[off + i];
  }
  firstCycle_ = false;
}

void ActivityEngine::sweepSerial() {
  obs::TraceSpan span("sweep.serial", sequentialCat(), obs::TraceDetail::Wave);
  SweepLane& lane = lanes_[0];
  // The bit is cleared before the partition runs: deactivate for the next
  // cycle first (Figure 1).
  support::sweepWakeBits(active_, [this, &lane](size_t pos) { runPartition(pos, lane); });
}

void ActivityEngine::recordProfiledCycle(uint64_t activations) {
  size_t window = static_cast<size_t>(prof_.profiledCycles / prof_.windowCycles);
  if (prof_.activationsPerWindow.size() <= window)
    prof_.activationsPerWindow.resize(window + 1, 0);
  prof_.activationsPerWindow[window] += activations;
  prof_.profiledCycles++;
}

void ActivityEngine::finishCycle() {
  // 3. Side effects from stale-but-correct enables.
  firePrintsAndStops();

  // 4. Phase 2: non-elided state elements.
  for (const auto& rw : sched_.deferredRegs) applyRegWrite(rw, lanes_[0]);
  for (const auto& mw : sched_.deferredMemWrites) applyMemWrite(mw, lanes_[0]);

  stats_.cycles++;
}

void ActivityEngine::tick() {
  // The session is resolved once per tick; with no trace recording, each
  // span below costs one load and branch.
  obs::TraceSession* ts = obs::TraceSession::current();
  if (ts && !ts->wants(obs::TraceDetail::Wave)) ts = nullptr;
  const obs::TraceCat seqCat = sequentialCat();
  {
    obs::TraceSpan pre("tick.pre", seqCat, obs::TraceDetail::Wave);
    sweepInputs();
  }

  // 2. Partition sweep (static schedule; the wake-bit sweep is the static
  //    overhead).
  sweepPartitions();

  {
    obs::TraceSpan post("tick.post", seqCat, obs::TraceDetail::Wave);
    finishCycle();
  }

  // Every lane's counters merge into stats_ once per tick.
  uint64_t activations = 0;
  for (SweepLane& lane : lanes_) {
    activations += lane.activations;
    stats_.opsEvaluated += lane.opsEvaluated;
    stats_.partitionActivations += lane.activations;
    stats_.outputComparisons += lane.outputComparisons;
    stats_.triggerSets += lane.triggerSets;
    lane.opsEvaluated = lane.activations = lane.outputComparisons = lane.triggerSets = 0;
  }
  stats_.partitionChecks += sched_.parts.size();
  lastActivations_ = activations;
  if (profiling_) recordProfiledCycle(activations);
  if (ts) {
    // Counter tracks: partitions evaluated vs skipped, cumulative across
    // the run so the Perfetto track shows the activity-factor slope.
    partsSkipped_ += sched_.parts.size() - activations;
    ts->counter("parts_active", stats_.partitionActivations);
    ts->counter("parts_skipped", partsSkipped_);
  }
}

double ActivityEngine::effectiveActivity() const {
  uint64_t total = static_cast<uint64_t>(ir_->ops.size()) * stats_.cycles;
  return total == 0 ? 0.0 : static_cast<double>(stats_.opsEvaluated) / static_cast<double>(total);
}

}  // namespace essent::core
