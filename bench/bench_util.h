// Shared infrastructure for the paper-reproduction bench binaries.
//
// Evaluation setup mirroring the paper's §V:
//  * designs  — r16 / r18 / boom scale TinySoC configurations (Table I);
//  * workloads — dhrystone / matmul / pchase programs (Table II), with
//    iteration counts scaled down so every bench binary completes in
//    seconds rather than the paper's minutes-to-hours (the relative cycle
//    ratios are preserved);
//  * simulators — event-driven (CommVer* stand-in), full-cycle (Verilator*
//    stand-in) and the serial CCSS engine (ESSENT), single-threaded as in
//    the paper. End-to-end speedups are essent_bench's to measure
//    (`core.speedup_vs_full`, essent_bench/README.md).
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/activity_engine.h"
#include "core/obs_export.h"
#include "designs/tinysoc.h"
#include "obs/json.h"
#include "obs/phase_timer.h"
#include "sim/compile.h"
#include "sim/event_driven.h"
#include "sim/full_cycle.h"
#include "workloads/driver.h"
#include "workloads/programs.h"

namespace essent::bench {

// Measurement knobs read by every bench binary, so runs are reproducible
// from the environment alone:
//   ESSENT_BENCH_REPS  (or --reps N)    interleaved A/B repetitions
//   ESSENT_THREADS     (or --threads N) farm workers; only
//                                       bench_farm_throughput uses it, the
//                                       paper exhibits run the serial engine
// Both are recorded in the JSON artifact header (JsonReporter meta).
struct BenchEnv {
  unsigned reps = 3;
  unsigned threads = 1;

  static BenchEnv fromEnv(int argc = 0, char** argv = nullptr) {
    BenchEnv env;
    if (const char* e = std::getenv("ESSENT_BENCH_REPS")) {
      long v = std::strtol(e, nullptr, 10);
      if (v >= 1) env.reps = static_cast<unsigned>(v);
    }
    if (const char* e = std::getenv("ESSENT_THREADS")) {
      long v = std::strtol(e, nullptr, 10);
      if (v >= 1) env.threads = static_cast<unsigned>(v);
    }
    for (int i = 1; i < argc; i++) {
      std::string arg = argv[i];
      auto intVal = [&](size_t prefixLen) {
        long v = std::strtol(arg.c_str() + prefixLen, nullptr, 10);
        return v >= 1 ? static_cast<unsigned>(v) : 1u;
      };
      if (arg.rfind("--reps=", 0) == 0) env.reps = intVal(7);
      else if (arg.rfind("--threads=", 0) == 0) env.threads = intVal(10);
      else if ((arg == "--reps" || arg == "--threads") && i + 1 < argc) {
        unsigned v = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
        (arg == "--reps" ? env.reps : env.threads) = v >= 1 ? v : 1;
      }
    }
    return env;
  }
};

// Interleaved A/B(/C/...) repetition timing: candidates run round-robin
// (A B C A B C ...) so clock drift and thermal state hit every candidate
// equally; reports each candidate's best (minimum) seconds.
inline std::vector<double> interleavedBestSeconds(
    const std::vector<std::function<double()>>& candidates, unsigned reps) {
  std::vector<double> best(candidates.size(), std::numeric_limits<double>::infinity());
  for (unsigned r = 0; r < std::max(1u, reps); r++)
    for (size_t i = 0; i < candidates.size(); i++)
      best[i] = std::min(best[i], candidates[i]());
  return best;
}

inline std::vector<designs::SoCConfig> evalDesigns() {
  return {designs::socR16(), designs::socR18(), designs::socBoom()};
}

inline std::vector<workloads::Program> evalWorkloads() {
  // Iteration counts chosen so cycle counts order as in Table II
  // (dhrystone < matmul << pchase) while every bench finishes in seconds.
  return {workloads::dhrystoneProgram(256), workloads::matmulProgram(6, 1),
          workloads::pchaseProgram(64, 96)};
}

// Cached IR builds (the boom design takes ~0.4 s to lower).
struct BuiltDesign {
  std::string name;
  sim::SimIR optimized;  // full compiler optimizations
};

inline BuiltDesign buildDesign(const designs::SoCConfig& cfg) {
  return BuiltDesign{cfg.name, sim::buildFromFirrtl(designs::tinySoCFirrtl(cfg))};
}

struct EngineRun {
  double seconds = 0;
  uint64_t cycles = 0;
  uint16_t result = 0;
  bool halted = false;
  sim::EngineStats stats;  // end-of-run counter snapshot
};

inline EngineRun timeEngine(sim::Engine& engine, const workloads::Program& prog,
                            uint64_t maxCycles = 2'000'000) {
  workloads::loadProgram(engine, prog);
  auto res = workloads::runWorkload(engine, maxCycles);
  return EngineRun{res.seconds, res.cycles, res.result, res.halted, res.stats};
}

inline void printRule(int width) {
  for (int i = 0; i < width; i++) std::putchar('-');
  std::putchar('\n');
}

// Machine-readable bench artifacts. Every bench binary constructs one of
// these; when enabled it writes `BENCH_<name>.json` on destruction, seeding
// the perf-trajectory record the repo accumulates across PRs. The human
// tables on stdout are untouched.
//
// Enabling (human output stays the default):
//   * `--json` argv flag           -> ./BENCH_<name>.json
//   * `--json=PATH` argv flag      -> PATH
//   * ESSENT_BENCH_JSON_DIR=<dir>  -> <dir>/BENCH_<name>.json
//
// Artifact schema: { "bench", "schema_version", "meta": {...},
// "rows": [...], "phase_timings": {...} } — rows are bench-specific flat
// objects, phase timings come from the global compile-phase registry.
class JsonReporter {
 public:
  JsonReporter(std::string name, int argc, char** argv)
      : name_(std::move(name)), env_(BenchEnv::fromEnv(argc, argv)) {
    for (int i = 1; i < argc; i++) {
      std::string arg = argv[i];
      if (arg == "--json") path_ = defaultPath();
      else if (arg.rfind("--json=", 0) == 0) path_ = arg.substr(7);
    }
    if (path_.empty()) {
      if (const char* dir = std::getenv("ESSENT_BENCH_JSON_DIR"))
        path_ = std::string(dir) + "/" + defaultPath();
    }
    doc_["bench"] = name_;
    doc_["schema_version"] = 1;
    doc_["meta"] = obs::Json::object();
    // Pinning knobs in the header makes every artifact reproducible from
    // its own contents (reps/threads + the env they came from), and
    // hardware_concurrency makes degraded multi-thread rows interpretable:
    // a 1-core container clamps every parallel engine to serial, and the
    // artifact must say so rather than present fake scaling.
    doc_["meta"]["reps"] = env_.reps;
    doc_["meta"]["threads"] = env_.threads;
    doc_["meta"]["hardware_concurrency"] = std::thread::hardware_concurrency();
    doc_["rows"] = obs::Json::array();
  }

  const BenchEnv& env() const { return env_; }

  JsonReporter(const JsonReporter&) = delete;
  JsonReporter& operator=(const JsonReporter&) = delete;

  ~JsonReporter() {
    if (!enabled() || written_) return;
    try {
      write();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bench json: %s\n", e.what());
    }
  }

  bool enabled() const { return !path_.empty(); }
  obs::Json& meta() { return doc_["meta"]; }
  void addRow(obs::Json row) { doc_["rows"].push(std::move(row)); }

  // Adds the standard columns every engine-timing row shares.
  static obs::Json engineRow(const std::string& design, const std::string& workload,
                             const std::string& simulator, double seconds,
                             const sim::EngineStats& stats) {
    obs::Json row = obs::Json::object();
    row["design"] = design;
    row["workload"] = workload;
    row["simulator"] = simulator;
    row["seconds"] = seconds;
    row["stats"] = core::engineStatsJson(stats);
    return row;
  }

  void write() {
    if (!enabled()) return;
    doc_["phase_timings"] = obs::phaseTimingsJson();
    obs::writeJsonFile(path_, doc_);
    std::fprintf(stderr, "bench json: wrote %s\n", path_.c_str());
    written_ = true;
  }

 private:
  std::string defaultPath() const { return "BENCH_" + name_ + ".json"; }

  std::string name_;
  BenchEnv env_;
  std::string path_;
  obs::Json doc_ = obs::Json::object();
  bool written_ = false;
};

}  // namespace essent::bench
