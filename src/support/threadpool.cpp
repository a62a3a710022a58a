#include "support/threadpool.h"

#include <cerrno>
#include <cstdlib>
#include <string>
#include <system_error>

#include "obs/trace.h"

namespace essent::support {

namespace {

// 0 = hook disabled; N > 0 = the Nth+1 spawn and beyond fail. Plain int is
// fine: tests set it before constructing a pool on the same thread.
unsigned g_failSpawnsAfter = 0;
bool g_failSpawnsArmed = false;

}  // namespace

void ThreadPool::failSpawnsAfterForTest(unsigned spawned) {
  g_failSpawnsAfter = spawned;
  g_failSpawnsArmed = true;
}

namespace {

// Spin-then-yield budget while parked between forks. The spin phase covers
// back-to-back forks (the common case mid-cycle); the yield phase covers
// the sequential gap between cycles; the condition variable catches
// genuinely idle pools and oversubscribed machines. Spinning only makes
// sense when the thread we wait on can run concurrently — on a single
// hardware context it just burns the timeslice that thread needs, so the
// spin budget collapses to zero there (yield immediately).
inline int spinBudget() {
  static const int budget = std::thread::hardware_concurrency() > 1 ? 4096 : 0;
  return budget;
}
constexpr int kYieldIters = 64;

}  // namespace

ThreadPool::ThreadPool(unsigned threads) : numThreads_(threads == 0 ? 1 : threads) {
  workers_.reserve(numThreads_ - 1);
  for (unsigned lane = 1; lane < numThreads_; lane++) {
    try {
      if (g_failSpawnsArmed && workers_.size() >= g_failSpawnsAfter)
        throw std::system_error(EAGAIN, std::generic_category(), "injected spawn failure");
      workers_.emplace_back([this, lane] { workerLoop(lane); });
    } catch (const std::system_error&) {
      // OS thread exhaustion. Run degraded with the lanes that did spawn
      // (possibly just the caller) rather than crashing; the engine factory
      // turns the reduced lane count into a warning diagnostic.
      numThreads_ = static_cast<unsigned>(workers_.size()) + 1;
      break;
    }
  }
  g_failSpawnsArmed = false;
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(m_);
    stop_.store(true, std::memory_order_release);
    epoch_.fetch_add(1, std::memory_order_release);
  }
  cv_.notify_all();
  for (auto& t : workers_) t.join();
}

void ThreadPool::run(const std::function<void(unsigned)>& fn) {
  // Attribution contract: each lane's fn execution is one "pool.work" Busy
  // span, the caller's join spin is a "pool.join" Barrier span, and a
  // worker's park between forks is a "pool.wait" Barrier span — so every
  // categorized interval on a pool thread is disjoint. Engine spans emitted
  // inside fn stay TraceCat::None (see inPooledWork).
  obs::TraceSession* s = obs::TraceSession::current();
  if (s && !s->wants(obs::TraceDetail::Wave)) s = nullptr;

  if (numThreads_ == 1) {
    if (s) {
      uint64_t t0 = s->nowNs();
      obs::trace_detail::setInPooledWork(true);
      fn(0);
      obs::trace_detail::setInPooledWork(false);
      s->complete("pool.work", t0, obs::TraceCat::Busy, "lane", 0);
    } else {
      fn(0);
    }
    return;
  }
  fn_ = &fn;
  pending_.store(numThreads_ - 1, std::memory_order_relaxed);
  {
    // The epoch bump happens under the mutex so a worker that is between
    // its last spin check and cv_.wait() cannot miss it: either its wait
    // predicate re-reads the new epoch, or its sleepers_ increment (made
    // under the same mutex) is visible to the notify decision below.
    std::lock_guard<std::mutex> lk(m_);
    epoch_.fetch_add(1, std::memory_order_release);
  }
  if (sleepers_.load(std::memory_order_acquire) > 0) cv_.notify_all();

  if (s) {
    uint64_t t0 = s->nowNs();
    obs::trace_detail::setInPooledWork(true);
    fn(0);
    obs::trace_detail::setInPooledWork(false);
    s->complete("pool.work", t0, obs::TraceCat::Busy, "lane", 0);
  } else {
    fn(0);
  }

  // Join: spin-then-yield; the join gap is bounded by one fork's work.
  uint64_t joinT0 = s ? s->nowNs() : 0;
  int spins = 0;
  while (pending_.load(std::memory_order_acquire) != 0) {
    if (++spins >= spinBudget()) {
      std::this_thread::yield();
      spins = 0;
    }
  }
  if (s) s->complete("pool.join", joinT0, obs::TraceCat::Barrier);
  fn_ = nullptr;
}

void ThreadPool::stepBarrier(uint64_t target) {
  // Counting barrier: each arrival is an acq_rel RMW on barArrived_, and a
  // waiter leaves once the count covers every lane's arrival for this step.
  // Reading a value that includes all numThreads_ increments synchronizes
  // with each of them (release sequence through the RMW chain), so plain
  // writes made before any lane's arrival are visible after the wait.
  barArrived_.fetch_add(1, std::memory_order_acq_rel);
  int spins = 0;
  while (barArrived_.load(std::memory_order_acquire) < target) {
    if (++spins >= spinBudget()) {
      std::this_thread::yield();
      spins = 0;
    }
  }
}

void ThreadPool::runStepLoop(unsigned lane) {
  // Per-lane attribution: one "pool.step" Busy span per super-step, one
  // "pool.barrier" Barrier span per inter-step wait — disjoint categorized
  // intervals, mirroring run()'s pool.work/pool.join contract.
  obs::TraceSession* s = obs::TraceSession::current();
  if (s && !s->wants(obs::TraceDetail::Wave)) s = nullptr;
  const size_t nSteps = numSteps_;
  for (size_t step = 0; step < nSteps; step++) {
    if (s) {
      uint64_t t0 = s->nowNs();
      obs::trace_detail::setInPooledWork(true);
      (*stepFn_)(lane, step);
      obs::trace_detail::setInPooledWork(false);
      s->complete("pool.step", t0, obs::TraceCat::Busy, "step", step);
    } else {
      (*stepFn_)(lane, step);
    }
    if (step + 1 < nSteps) {
      uint64_t barT0 = s ? s->nowNs() : 0;
      stepBarrier(static_cast<uint64_t>(step + 1) * numThreads_);
      if (s) s->complete("pool.barrier", barT0, obs::TraceCat::Barrier);
    }
  }
}

void ThreadPool::runSteps(size_t numSteps, const std::function<void(unsigned, size_t)>& fn) {
  if (numSteps == 0) return;
  if (numThreads_ == 1) {
    stepFn_ = &fn;
    numSteps_ = numSteps;
    runStepLoop(0);
    stepFn_ = nullptr;
    return;
  }
  stepFn_ = &fn;
  numSteps_ = numSteps;
  barArrived_.store(0, std::memory_order_relaxed);
  pending_.store(numThreads_ - 1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lk(m_);
    epoch_.fetch_add(1, std::memory_order_release);
  }
  if (sleepers_.load(std::memory_order_acquire) > 0) cv_.notify_all();

  runStepLoop(0);

  obs::TraceSession* s = obs::TraceSession::current();
  if (s && !s->wants(obs::TraceDetail::Wave)) s = nullptr;
  uint64_t joinT0 = s ? s->nowNs() : 0;
  int spins = 0;
  while (pending_.load(std::memory_order_acquire) != 0) {
    if (++spins >= spinBudget()) {
      std::this_thread::yield();
      spins = 0;
    }
  }
  if (s) s->complete("pool.join", joinT0, obs::TraceCat::Barrier);
  stepFn_ = nullptr;
}

void ThreadPool::workerLoop(unsigned lane) {
  uint64_t seen = 0;
  for (;;) {
    // Park-span begin: capture the session only if one is recording. The
    // span is completed at the next fork only if the SAME session is still
    // current — a session swapped out while we were parked is never touched
    // again (its buffers may be gone).
    obs::TraceSession* parkS = obs::TraceSession::current();
    if (parkS && !parkS->wants(obs::TraceDetail::Wave)) parkS = nullptr;
    uint64_t parkT0 = parkS ? parkS->nowNs() : 0;

    int spins = 0;
    while (epoch_.load(std::memory_order_acquire) == seen) {
      spins++;
      if (spins < spinBudget()) continue;
      if (spins < spinBudget() + kYieldIters) {
        std::this_thread::yield();
        continue;
      }
      std::unique_lock<std::mutex> lk(m_);
      sleepers_.fetch_add(1, std::memory_order_release);
      cv_.wait(lk, [&] { return epoch_.load(std::memory_order_acquire) != seen; });
      sleepers_.fetch_sub(1, std::memory_order_release);
      spins = 0;
    }
    seen = epoch_.load(std::memory_order_acquire);
    // stop_ is stored before the final epoch bump; the acquire load of
    // epoch_ above orders this load after it.
    if (stop_.load(std::memory_order_acquire)) return;

    obs::TraceSession* s = obs::TraceSession::current();
    if (s && !s->wants(obs::TraceDetail::Wave)) s = nullptr;
    if (s) {
      if (s == parkS) s->complete("pool.wait", parkT0, obs::TraceCat::Barrier);
      s->nameThread("worker-" + std::to_string(lane));
    }
    // stepFn_/fn_ are published by the epoch bump observed above; exactly
    // one of them is set per fork.
    if (stepFn_ != nullptr) {
      runStepLoop(lane);
    } else if (s) {
      uint64_t t0 = s->nowNs();
      obs::trace_detail::setInPooledWork(true);
      (*fn_)(lane);
      obs::trace_detail::setInPooledWork(false);
      // Record before the pending_ release-decrement so the write is inside
      // the window the caller's join acquire synchronizes with.
      s->complete("pool.work", t0, obs::TraceCat::Busy, "lane", lane);
    } else {
      (*fn_)(lane);
    }
    pending_.fetch_sub(1, std::memory_order_release);
  }
}

unsigned ThreadPool::defaultThreadCount() {
  if (const char* env = std::getenv("ESSENT_THREADS")) {
    long v = std::strtol(env, nullptr, 10);
    if (v >= 1) return static_cast<unsigned>(v);
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace essent::support
