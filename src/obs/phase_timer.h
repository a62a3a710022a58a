// RAII wall-clock phase timers for the compile flow. Each pipeline pass
// (parse, lower, build-ir, netlist, mffc, merge phases, schedule, codegen)
// wraps itself in a ScopedPhaseTimer; totals accumulate in a process-global
// list of timers so any tool can attribute where compile time went without
// threading a context object through every layer.
//
// Recording happens once per phase invocation (two steady_clock reads and
// one mutex-guarded list update), which is noise next to the passes being
// timed — the timers stay on unconditionally.
#pragma once

#include <chrono>

#include "obs/json.h"

namespace essent::obs {

// The global phase timings. Snapshot with phaseTimingsJson() —
// {"timers": {phase: {seconds, calls}, ...}} in first-execution order, or
// {} before any phase ran — and zero them between independent compilations
// with resetPhaseTimings(). Access is internally synchronized.
Json phaseTimingsJson();
void resetPhaseTimings();

class ScopedPhaseTimer {
 public:
  // `phase` must outlive the timer; string literals are the intended use.
  explicit ScopedPhaseTimer(const char* phase)
      : phase_(phase), start_(std::chrono::steady_clock::now()) {}
  ~ScopedPhaseTimer();

  ScopedPhaseTimer(const ScopedPhaseTimer&) = delete;
  ScopedPhaseTimer& operator=(const ScopedPhaseTimer&) = delete;

 private:
  const char* phase_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace essent::obs
