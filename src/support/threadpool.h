// Persistent fork/join thread pool tuned for the activity engine's short
// bulk-synchronous super-steps.
//
// One pool is created per parallel engine and reused for every cycle:
// workers park on an epoch counter between forks, spinning briefly, then
// yielding, then falling back to a condition variable — so a
// microsecond-scale fork never pays a futex round trip, while an idle pool
// does not burn a core. run() is the only entry point: it executes fn(lane)
// on every lane (lane 0 on the calling thread, which always participates)
// and returns once all lanes have finished; the epoch handoff gives
// release/acquire ordering both into and out of the fork, so plain memory
// written before run() is visible to workers, and worker writes are visible
// to the caller after run() returns.
//
// Not reentrant: run() must not be called from inside a pool task, and the
// task must not throw (workers run with exceptions unguarded; a throwing
// task terminates).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace essent::support {

class ThreadPool {
 public:
  // `threads` is the total lane count including the caller; 0 is clamped
  // to 1 (no worker threads are spawned, run() degenerates to fn(0)).
  explicit ThreadPool(unsigned threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned numThreads() const { return numThreads_; }

  // Fork/join: every lane runs fn(lane); returns after all lanes complete.
  void run(const std::function<void(unsigned)>& fn);

  // Bulk-synchronous fork/join: ONE epoch handoff under which every lane
  // runs fn(lane, s) for s = 0..numSteps-1 with a counting barrier between
  // consecutive steps — the engine's whole per-cycle sweep costs one fork,
  // numSteps-1 in-fork barriers, and one join, instead of numSteps forks.
  // The barrier gives the same ordering as run()'s epoch handoff: plain
  // writes made in step s by any lane are visible to every lane in step
  // s+1. Same reentrancy/exception rules as run(). numSteps == 0 returns
  // immediately.
  void runSteps(size_t numSteps, const std::function<void(unsigned, size_t)>& fn);

  // ESSENT_THREADS when set to a positive integer, else the hardware
  // concurrency (minimum 1).
  static unsigned defaultThreadCount();

  // Test hook: when nonzero, worker spawns fail (throwing std::system_error
  // as an exhausted OS would) once `spawned` workers exist. Used to exercise
  // the graceful-degradation path without actually exhausting the machine.
  static void failSpawnsAfterForTest(unsigned spawned);

 private:
  void workerLoop(unsigned lane);
  void runStepLoop(unsigned lane);
  void stepBarrier(uint64_t target);

  unsigned numThreads_;
  std::vector<std::thread> workers_;
  const std::function<void(unsigned)>* fn_ = nullptr;
  // runSteps state, published by the epoch handoff like fn_.
  const std::function<void(unsigned, size_t)>* stepFn_ = nullptr;
  size_t numSteps_ = 0;
  // Monotonic within one fork: lane arrivals at the inter-step barrier.
  // Reset by the caller before the epoch bump (workers are parked then),
  // so there is no sense-reversal generation to race on: after step s a
  // lane waits for the count to reach (s+1) * numThreads_.
  std::atomic<uint64_t> barArrived_{0};
  std::atomic<uint64_t> epoch_{0};
  std::atomic<uint32_t> pending_{0};
  std::atomic<uint32_t> sleepers_{0};
  std::atomic<bool> stop_{false};  // set (release) before the final epoch bump
  std::mutex m_;
  std::condition_variable cv_;
};

}  // namespace essent::support
