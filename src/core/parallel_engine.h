// Statically-placed bulk-synchronous parallel CCSS activity engine.
//
// A BspPlacement (core/placement.h) pins every partition to one worker lane
// and groups the partitions into a handful of super-steps, so a pooled
// cycle costs ONE pool fork, (super-steps - 1) in-fork counting barriers,
// and one join, however deep the schedule's dependency chains are.
//
// The engine owns only that placement, the pool, the wake mailboxes and the
// serial cutoff. Everything else is ActivityEngine's: the same tick(), the
// same input sweep and state commits, and the same partition body
// (runPartition / applyRegWrite / applyMemWrite / wake). The one step it
// overrides is the partition sweep:
//   * if the previous cycle activated no more partitions than the serial
//     cutoff, the sweep runs inline on the calling thread (sweepSerial), so
//     low-activity cycles (the paper's common case) never pay the fork;
//   * otherwise ThreadPool::runSteps runs the placement: in super-step s,
//     lane t first drains its wake mailboxes (cross-lane wakes posted in
//     step s-1, barrier-separated), then runs its positions in ascending
//     schedule order, testing-and-clearing wake bits.
// The placed body differs from the serial one in two things only, both
// carried by the per-lane SweepLane record: a wake to another lane's
// partition goes to that lane's mailbox instead of the wake bit, and the work
// counters land in the lane's own cache-line-padded slot (merged into
// EngineStats once per tick, as the serial engine's single lane is).
//
// Race-freedom: a partition's wake bit is written only by its owning lane
// inside the fork (drains set it, the run loop clears it, same-lane wakes
// set it) and only by the calling thread outside the fork (input/state
// wakes between cycles) — publication in both directions rides the pool's
// epoch handoff and join. Ownership is per bit, but the bits live 64 to a
// word and two lanes can own bits of one word, so inside the fork every
// update of a wake word is a relaxed std::atomic_ref fetch_or / fetch_and
// (support/wake_bits.h): the read-modify-writes of different lanes never
// lose each other's bits, and no ordering beyond the barriers is needed,
// since a lane reads only its own bits. Outside the fork plain loads and
// stores stay correct. Cross-lane wakes go through per-(src,dst) mailbox
// vectors double-buffered by super-step parity: src pushes during step s
// into the parity-(s+1) box, dst drains it at step s+1, and the inter-step
// barrier orders the two, so the mailboxes themselves need no atomics (the
// tsan suite runs this engine as its oracle). Wakes posted in the final
// step are drained by the caller after the join; they target positions
// whose step already passed, so like the serial engine's state wakes they
// take effect next cycle.
//
// EngineStats stay serial-identical: triggerSets counts wake targets (not
// mailbox hops), and the placement's edge rules (cross-lane dependency
// edge => strictly earlier super-step; same-lane => earlier position)
// reproduce the serial activation set exactly.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/activity_engine.h"
#include "core/placement.h"
#include "support/threadpool.h"

namespace essent::core {

class ParallelActivityEngine : public ActivityEngine {
 public:
  // Shares a previously compiled schedule; `threads` == 0 resolves to
  // ThreadPool::defaultThreadCount(). The effective width is clamped to
  // the placement's useful width (never more lanes than partitions).
  ParallelActivityEngine(std::shared_ptr<const CompiledCcss> ccss, unsigned threads);

  const char* name() const override { return "essent-ccss-par"; }
  unsigned threadCount() const override { return pool_.numThreads(); }

  // The static placement this engine executes (exported in --stats-json).
  const BspPlacement& placement() const { return placement_; }

  // Cycles whose previous activation count is <= this run inline on the
  // calling thread. Defaults to 4 x lanes; 0 forces the pooled path on
  // every cycle (tests use this to exercise the BSP machinery).
  void setSerialCutoff(uint64_t parts) { serialCutoff_ = parts; }
  uint64_t serialCutoff() const { return serialCutoff_; }

 private:
  // Chooses the inline sweep or one fork of the placement (file header).
  void sweepPartitions() override;
  void runStep(unsigned lane, size_t step);
  // After the join: flags for wakes posted during the final super-step
  // (caller-owned time; everything is published by the join).
  void drainFinalMailboxes();

  // Built in the ctor body over the lanes the pool actually spawned.
  BspPlacement placement_;
  support::ThreadPool pool_;
  std::function<void(unsigned, size_t)> stepFn_;
  // Cross-thread wake mailboxes: mailbox_[parity][src * threads + dst] is
  // pushed only by lane src and drained only by lane dst, parities
  // alternating per super-step (see file header).
  std::vector<std::vector<int32_t>> mailbox_[2];
  uint64_t serialCutoff_;
};

// Builds a CCSS engine over a compiled schedule for `threads` lanes (0 =
// default count) with graceful degradation instead of hard failure: a
// request beyond the hardware concurrency or beyond the placement's useful
// width (one lane per partition) is clamped, and when worker threads cannot
// be created (OS limits) the engine falls back to fewer lanes or to the
// serial ActivityEngine. Every degradation appends a human-readable message
// to `warnings` (when non-null) — callers surface them as W06xx
// diagnostics. The returned engine is always usable. Callers holding a
// design or a SimIR build the schedule first with CompiledCcss::get (shared
// through the design's cache) or CompiledCcss::compile.
std::unique_ptr<ActivityEngine> makeCcssEngine(std::shared_ptr<const CompiledCcss> ccss,
                                               unsigned threads,
                                               std::vector<std::string>* warnings = nullptr);

}  // namespace essent::core
