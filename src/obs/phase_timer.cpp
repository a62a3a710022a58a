#include "obs/phase_timer.h"

#include <algorithm>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/stats.h"
#include "obs/trace.h"

namespace essent::obs {

namespace {

std::mutex& timingMutex() {
  static std::mutex m;
  return m;
}

// Phase name -> accumulated timer, in first-execution order.
std::vector<std::pair<std::string, Timer>>& phaseTimers() {
  static std::vector<std::pair<std::string, Timer>> timers;
  return timers;
}

}  // namespace

ScopedPhaseTimer::~ScopedPhaseTimer() {
  double elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
  // Existing phase timers double as trace spans, so compile phases land on
  // the timeline without re-instrumenting every call site.
  if (TraceSession* s = TraceSession::current())
    s->complete(phase_, s->toNs(start_), TraceCat::Busy);
  std::lock_guard<std::mutex> lock(timingMutex());
  auto& timers = phaseTimers();
  auto it = std::find_if(timers.begin(), timers.end(),
                         [&](const auto& t) { return t.first == phase_; });
  if (it == timers.end()) it = timers.emplace(timers.end(), phase_, Timer{});
  it->second.record(elapsed);
}

Json phaseTimingsJson() {
  std::lock_guard<std::mutex> lock(timingMutex());
  Json j = Json::object();
  if (phaseTimers().empty()) return j;
  Json& t = j["timers"];
  t = Json::object();
  for (const auto& [name, timer] : phaseTimers()) t[name] = timer.toJson();
  return j;
}

void resetPhaseTimings() {
  std::lock_guard<std::mutex> lock(timingMutex());
  phaseTimers().clear();
}

}  // namespace essent::obs
