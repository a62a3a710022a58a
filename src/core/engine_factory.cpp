// sim::makeEngine definition. Lives in the core library because the CCSS
// backends (ActivityEngine, ParallelActivityEngine) do; the declaration
// stays in sim/engine_factory.h as part of the stable engine interface.
#include <stdexcept>

#include "core/activity_engine.h"
#include "core/lane_engine.h"
#include "core/parallel_engine.h"
#include "sim/engine_factory.h"
#include "sim/event_driven.h"
#include "sim/full_cycle.h"

namespace essent::sim {

namespace {

core::ScheduleOptions scheduleOptionsFrom(const EngineOptions& opts) {
  core::ScheduleOptions so;
  so.partition.smallThreshold = opts.partitionSmallThreshold;
  so.stateElision = opts.stateElision;
  return so;
}

void applyProfiling(Engine& eng, const EngineOptions& opts) {
  if (!opts.profiling) return;
  if (auto* act = dynamic_cast<core::ActivityEngine*>(&eng)) {
    act->setProfileWindow(opts.profileWindow);
    act->setProfiling(true);
  }
}

}  // namespace

std::unique_ptr<Engine> makeEngine(EngineKind kind,
                                   std::shared_ptr<const CompiledDesign> design,
                                   const EngineOptions& opts) {
  std::unique_ptr<Engine> eng;
  switch (kind) {
    case EngineKind::FullCycle:
      eng = std::make_unique<FullCycleEngine>(std::move(design));
      break;
    case EngineKind::EventDriven:
      eng = std::make_unique<EventDrivenEngine>(std::move(design));
      break;
    case EngineKind::Ccss:
      eng = std::make_unique<core::ActivityEngine>(
          core::CompiledCcss::get(design, scheduleOptionsFrom(opts)));
      break;
    case EngineKind::CcssPar:
      // Graceful degradation (thread clamping, spawn-failure fallback to
      // the serial engine) with messages routed to opts.warnings.
      eng = core::makeCcssEngine(core::CompiledCcss::get(design, scheduleOptionsFrom(opts)),
                                 opts.threads, opts.warnings);
      break;
    case EngineKind::Lane: {
      const unsigned lanes = opts.lanes < 1 ? 1 : (opts.lanes > 64 ? 64 : opts.lanes);
      eng = std::make_unique<core::LaneBroadcastEngine>(
          core::CompiledCcss::get(design, scheduleOptionsFrom(opts)), lanes);
      break;
    }
    case EngineKind::Codegen:
      throw std::invalid_argument(
          "engine kind 'codegen' is the out-of-process compiled simulator "
          "(codegen::emitCpp); it cannot be constructed by sim::makeEngine");
  }
  applyProfiling(*eng, opts);
  return eng;
}

std::unique_ptr<Engine> makeEngine(EngineKind kind, const SimIR& ir, const EngineOptions& opts) {
  return makeEngine(kind, CompiledDesign::compile(ir), opts);
}

}  // namespace essent::sim
