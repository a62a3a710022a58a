// The ESSENT-style CCSS activity engine (paper §III, Figure 1).
//
// Executes a CondPartSchedule: per cycle it
//   1. compares external inputs against their previous values and wakes the
//      consumer partitions of any that changed;
//   2. sweeps the partitions in the singular static schedule order,
//      visiting only the set bits of the wake bitset one 64-bit word at a
//      time (support/wake_bits.h); a wake to a later position is seen this
//      cycle, a self-wake or a wake to an earlier position the next. An
//      active partition first deactivates itself, saves the old values of
//      its outputs, evaluates its ops with full-cycle style straight-line
//      code, applies its elided state-element updates (waking state
//      consumers on change — effective next cycle, since ordering edges put
//      every reader before the writer), then compares its outputs and wakes
//      the consumers of those that changed (push-direction triggering,
//      branchless OR-reduction of the change flags per output);
//   3. fires printf/stop side effects from the (stale-but-correct) enable
//      signals;
//   4. runs phase 2: non-elided registers copy next->current and memory
//      writes commit, waking consumers on change.
//
// The sweep counts its work into per-lane SweepLane records that merge into
// EngineStats once per tick; ParallelActivityEngine (core/parallel_engine.h)
// runs this same tick and partition body with one record per worker lane.
//
// Overhead counters map onto Figure 7's decomposition: partitionChecks is
// the static overhead (positions covered, one word load per 64 of them),
// outputComparisons/triggerSets the dynamic overhead,
// and opsEvaluated the base work (effective activity = opsEvaluated /
// (totalOps * cycles)).
#pragma once

#include <memory>

#include "core/schedule.h"
#include "sim/engine.h"

namespace essent::core {

// Per-partition runtime counters, gathered only while profiling is on.
struct PartitionProfile {
  uint64_t activations = 0;   // times the partition ran
  uint64_t opsEvaluated = 0;  // ops executed across those runs
  uint64_t wakesIssued = 0;   // consumer flags this partition's runs set
};

// Profile of one ActivityEngine run: per-partition counters plus a
// cycle-window activity timeline (partition activations per window of
// `windowCycles` cycles — the runtime analogue of Figure 5's per-cycle
// activity traces, coarse enough to stay cheap on million-cycle runs).
struct ActivityProfile {
  uint64_t profiledCycles = 0;
  uint32_t windowCycles = 256;
  std::vector<PartitionProfile> parts;
  std::vector<uint64_t> activationsPerWindow;
};

// The design-independent half of the compiled CCSS structure: the
// CondPartSchedule plus the static layout of the flat old-value save area
// for partition outputs (the save buffer itself is per-instance mutable
// state). This is what CompiledCcss::get caches inside the design's
// extension cache, and it deliberately holds no pointer back to the
// design: a back-pointer from a cache entry would close a shared_ptr
// cycle (design -> ext_ -> schedule -> design) and leak both.
struct CcssSchedule {
  CondPartSchedule sched;
  std::vector<uint32_t> outputSaveOff;  // parallel to flattened outputs
  std::vector<size_t> partOutBase;      // partition -> first flattened output
  size_t saveWords = 0;                 // words in the per-instance save buffer
};

// Immutable CCSS structure shared by every activity-engine instance over
// the same design: the design plus its (possibly cache-shared) schedule
// body. Cheap to copy — two shared_ptrs.
struct CompiledCcss {
  std::shared_ptr<const sim::CompiledDesign> design;
  std::shared_ptr<const CcssSchedule> body;

  // Wraps an already-built schedule (must come from a Netlist over the
  // same SimIR).
  static std::shared_ptr<const CompiledCcss> compile(
      std::shared_ptr<const sim::CompiledDesign> design, CondPartSchedule sched);
  // Builds netlist + partitioning + schedule with the options.
  static std::shared_ptr<const CompiledCcss> compile(
      std::shared_ptr<const sim::CompiledDesign> design, const ScheduleOptions& opts);
  // Cached variant: one schedule per (design, options), shared through the
  // design's extension cache — what sim::makeEngine and core::SimFarm use
  // so N concurrent instances pay for one schedule build.
  static std::shared_ptr<const CompiledCcss> get(
      const std::shared_ptr<const sim::CompiledDesign>& design, const ScheduleOptions& opts);
};

class ActivityEngine : public sim::Engine {
 public:
  // Shares a previously compiled schedule; the engine owns only its
  // mutable state (arena, wake flags, save buffer, profile).
  explicit ActivityEngine(std::shared_ptr<const CompiledCcss> ccss);

  void tick() override;
  void resetState() override;
  const char* name() const override { return "essent-ccss"; }

  // Worker lanes used by the partition sweep (1 for the serial engine).
  virtual unsigned threadCount() const { return 1; }

  const CondPartSchedule& schedule() const { return sched_; }

  // Fraction of ops evaluated over all cycles so far (Figure 7's
  // "effective activity factor").
  double effectiveActivity() const;

  // Per-partition profiling. Off by default: the unprofiled tick path pays
  // exactly one predictable branch per active partition and one per cycle.
  // Enabling mid-run starts counting from the current cycle; counters are
  // cleared on resetState() (in step with EngineStats) and by setting the
  // window. While profiling has been on since the last reset, the profile
  // op counts sum to stats().opsEvaluated and the activation counts to
  // stats().partitionActivations.
  void setProfiling(bool on);
  bool profiling() const { return profiling_; }
  const ActivityProfile& profile() const { return prof_; }
  void setProfileWindow(uint32_t cycles);  // clears the profile; cycles >= 1

 protected:
  // One sweep lane's private slice of a tick: the four work counters, merged
  // into stats_ once per tick, and where the lane's wakes go. Padded to a
  // cache line so lanes running in parallel never share one.
  struct alignas(64) SweepLane {
    uint64_t opsEvaluated = 0;
    uint64_t activations = 0;
    uint64_t outputComparisons = 0;
    uint64_t triggerSets = 0;
    // Null: every wake sets its flag in place. Otherwise a wake to a
    // partition owned (per ownerOf) by another lane t is queued in
    // outbox[t] instead, and only this lane's own flags are touched.
    std::vector<int32_t>* outbox = nullptr;
    const int32_t* ownerOf = nullptr;  // position -> lane; read only with an outbox
    unsigned index = 0;
  };

  // Tick phase 2. The serial engine sweeps inline; ParallelActivityEngine
  // overrides this one step and nothing else of the tick.
  virtual void sweepPartitions() { sweepSerial(); }
  // The whole sweep inline on the calling thread, in schedule order, into
  // lanes_[0] with wakes set in place.
  void sweepSerial();
  // The partition body (Figure 1): deactivate-first is the caller's job;
  // this saves the outputs, evaluates the ops, applies the elided state
  // writes, then compares the outputs and wakes their consumers.
  void runPartition(size_t pos, SweepLane& lane);

  // Immutable structure (shared across instances) ...
  std::shared_ptr<const CompiledCcss> ccss_;
  const CondPartSchedule& sched_;  // = ccss_->body->sched
  // ... and the mutable state the sweep shares with its override:
  // wake flags, one bit per schedule position (support/wake_bits.h),
  std::vector<uint64_t> active_;
  // one record per sweep lane (lanes_[0] belongs to the calling thread,
  // which also counts the input sweep and the state commits into it),
  std::vector<SweepLane> lanes_;
  // and the partitions the previous sweep ran (all of them before the first).
  uint64_t lastActivations_;

 private:
  const std::vector<uint32_t>& outputSaveOff_; // = ccss_->body->outputSaveOff
  const std::vector<size_t>& partOutBase_;     // = ccss_->body->partOutBase
  std::vector<uint64_t> prevInputs_;
  // Flat old-value buffer for all partition outputs.
  std::vector<uint64_t> outputSave_;
  bool firstCycle_ = true;
  bool profiling_ = false;
  ActivityProfile prof_;
  // Cumulative skipped-partition count behind the parts_skipped trace
  // counter track (advanced only while a trace session is recording).
  uint64_t partsSkipped_ = 0;

  void onStateClobbered() override;

  void applyRegWrite(const SchedRegWrite& rw, SweepLane& lane);
  void applyMemWrite(const SchedMemWrite& mw, SweepLane& lane);
  void wake(const std::vector<int32_t>& parts, SweepLane& lane);
  void clearProfile();
  // Tick phase 1: wake consumers of changed external inputs and latch the
  // new input values.
  void sweepInputs();
  // Tick phases 3 + 4: side effects, then the non-elided state commits.
  void finishCycle();
  // Folds the per-cycle activation count into the profile timeline.
  void recordProfiledCycle(uint64_t activations);
};

}  // namespace essent::core
