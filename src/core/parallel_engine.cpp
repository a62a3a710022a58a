#include "core/parallel_engine.h"

#include <algorithm>
#include <system_error>
#include <thread>

#include "support/wake_bits.h"

namespace essent::core {

namespace {

// Pool width: the requested count clamped to the placement's useful width —
// a lane with no partitions would only add barrier arrivals.
unsigned usefulWidth(const CondPartSchedule& sched, unsigned threads) {
  unsigned req = threads == 0 ? support::ThreadPool::defaultThreadCount() : threads;
  size_t parts = sched.numPartitions();
  if (parts == 0) return 1;
  if (static_cast<size_t>(req) > parts) req = static_cast<unsigned>(parts);
  return std::max(1u, req);
}

}  // namespace

ParallelActivityEngine::ParallelActivityEngine(std::shared_ptr<const CompiledCcss> ccss,
                                               unsigned threads)
    : ActivityEngine(std::move(ccss)),
      pool_(usefulWidth(sched_, threads)),
      stepFn_([this](unsigned lane, size_t step) { runStep(lane, step); }),
      // Below ~4 active partitions per lane the fork handoff dominates the
      // work it distributes — those cycles run inline (the low-activity
      // regime the whole engine exists to win).
      serialCutoff_(static_cast<uint64_t>(pool_.numThreads()) * 4) {
  // Built here rather than in the initializer list so a degraded pool
  // (worker spawn failure) places onto the lanes that actually exist.
  PlacementOptions popts;
  popts.threads = pool_.numThreads();
  placement_ = buildPlacement(sched_, popts);
  const size_t T = placement_.threads;
  mailbox_[0].assign(T * T, {});
  mailbox_[1].assign(T * T, {});
  lanes_.resize(pool_.numThreads());
  for (unsigned t = 0; t < lanes_.size(); t++) {
    lanes_[t].index = t;
    lanes_[t].ownerOf = placement_.threadOf.data();
  }
}

void ParallelActivityEngine::runStep(unsigned lane, size_t step) {
  const size_t T = placement_.threads;
  const size_t parity = step & 1;
  SweepLane& ln = lanes_[lane];

  // Drain phase: wakes posted to this lane during the previous super-step
  // (the inter-step barrier separates the writers' pushes from this read).
  std::vector<int32_t>* inbox = mailbox_[parity].data();
  for (size_t src = 0; src < T; src++) {
    std::vector<int32_t>& box = inbox[src * T + lane];
    if (box.empty()) continue;
    for (int32_t p : box) support::setWakeBitShared(active_, static_cast<size_t>(p));
    box.clear();
  }

  // Run phase: this lane's positions for this step, ascending schedule
  // order (a topological order of the same-thread dependency edges).
  ln.outbox = mailbox_[parity ^ 1].data() + lane * T;
  for (int32_t p : placement_.steps[step].runs[lane]) {
    const size_t pos = static_cast<size_t>(p);
    if (!support::testAndClearWakeBitShared(active_, pos)) continue;  // deactivate-first, as serial
    runPartition(pos, ln);
  }
  // Outside a super-step (inline sweeps, input and state wakes) lane 0
  // must set flags in place again.
  ln.outbox = nullptr;
}

void ParallelActivityEngine::drainFinalMailboxes() {
  // Wakes posted during the final super-step target positions whose step
  // already passed; setting their flags now (caller-owned time, published
  // by the join) makes them effective next cycle, as in the serial engine.
  // Only the final step's write parity can be nonempty; clearing both keeps
  // the empty-between-cycles invariant local.
  for (auto& boxes : mailbox_) {
    for (auto& box : boxes) {
      for (int32_t p : box) support::setWakeBit(active_, static_cast<size_t>(p));
      box.clear();
    }
  }
}

void ParallelActivityEngine::sweepPartitions() {
  // One fork for ALL super-steps — or no fork at all when the previous
  // cycle's activity predicts too little work to distribute.
  const size_t numSteps = placement_.numSteps();
  if (pool_.numThreads() == 1 || numSteps == 0 ||
      (serialCutoff_ > 0 && lastActivations_ <= serialCutoff_)) {
    sweepSerial();
    return;
  }
  pool_.runSteps(numSteps, stepFn_);
  drainFinalMailboxes();
}

std::unique_ptr<ActivityEngine> makeCcssEngine(std::shared_ptr<const CompiledCcss> ccss,
                                               unsigned threads,
                                               std::vector<std::string>* warnings) {
  auto warn = [&](const std::string& msg) {
    if (warnings) warnings->push_back(msg);
  };
  unsigned requested = threads == 0 ? support::ThreadPool::defaultThreadCount() : threads;
  unsigned hw = std::thread::hardware_concurrency();
  if (hw > 0 && requested > hw) {
    warn("requested " + std::to_string(requested) + " threads exceeds hardware concurrency (" +
         std::to_string(hw) + "); clamping");
    requested = hw;
  }
  const size_t parts = ccss->body->sched.numPartitions();
  if (parts > 0 && static_cast<size_t>(requested) > parts) {
    warn("requested " + std::to_string(requested) +
         " threads exceeds the placement's useful width (" + std::to_string(parts) +
         " partitions); clamping");
    requested = static_cast<unsigned>(parts);
  }
  if (requested <= 1) return std::make_unique<ActivityEngine>(std::move(ccss));
  try {
    auto eng = std::make_unique<ParallelActivityEngine>(ccss, requested);
    unsigned got = eng->threadCount();
    if (got == 1) {
      warn("no worker threads could be created; falling back to serial CCSS engine");
      return std::make_unique<ActivityEngine>(std::move(ccss));
    }
    if (got < requested)
      warn("only " + std::to_string(got) + " of " + std::to_string(requested) +
           " threads could be created; running degraded");
    return eng;
  } catch (const std::system_error& e) {
    warn(std::string("parallel engine unavailable (") + e.what() +
         "); falling back to serial CCSS engine");
    return std::make_unique<ActivityEngine>(std::move(ccss));
  }
}

}  // namespace essent::core
