// Differential oracle: runs one circuit + stimulus through up to six
// execution paths and reports the first observable disagreement.
//
//   full    — FullCycleEngine on an UNOPTIMIZED SimIR (reference semantics;
//             using the no-opt build means const-prop/CSE/DCE bugs are
//             caught too, not just engine bugs);
//   event   — EventDrivenEngine on the optimized SimIR;
//   ccss    — ActivityEngine (conditional partition scheduling);
//   par     — ParallelActivityEngine with 2+ worker threads;
//   lane    — LaneBroadcastEngine: the SIMD instance-parallel LaneEngine
//             with the same stimulus broadcast to every lane (lane 0 is
//             compared; all lanes must agree by construction);
//   codegen — the compiled simulator emitted by codegen::emitCppSharded
//             (header plus codegenShards units), built with the host
//             toolchain and compared through a trace protocol over its
//             stdout.
//
// Compared every cycle: every named signal (output/register/node) present
// in all participating IRs, plus stop status. Compared at the end: printf
// output and final memory contents.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fuzz/stimulus.h"
#include "sim/engine.h"
#include "sim/engine_factory.h"

namespace essent::fuzz {

// The oracle's engine set is exactly the unified sim::EngineKind (one name
// table for every tool; essentc parses the same tokens).
using sim::EngineKind;
using sim::allEngineKinds;
using sim::engineKindName;
using sim::parseEngineKind;

struct Divergence {
  enum class Kind {
    ValueMismatch,    // a named signal differs on some cycle
    StopMismatch,     // stop/exit behaviour differs (incl. cycle counts)
    PrintMismatch,    // accumulated printf output differs
    MemMismatch,      // final memory contents differ
    EngineException,  // an engine threw while ticking
    CompileFailure,   // host compilation of the emitted simulator failed
    Timeout,          // the watchdog killed a compile or run subprocess
  };
  Kind kind = Kind::ValueMismatch;
  uint64_t cycle = 0;
  std::string signal;   // or "<mem>[addr]" for MemMismatch
  std::string engineA;  // reference side
  std::string engineB;  // disagreeing side
  std::string valueA;
  std::string valueB;
  std::string detail;

  std::string describe() const;
};

struct OracleOptions {
  std::vector<EngineKind> engines = allEngineKinds();
  unsigned parThreads = 2;
  // Lane count for the EngineKind::Lane oracle member (broadcast across
  // lanes; every lane runs the full SIMD path on the same stimulus). 8
  // fills one AVX-512 vector while keeping the arena small.
  unsigned laneCount = 8;
  // Host compiler for the codegen path; -O1 keeps fuzz turnaround fast
  // while still letting the optimizer exploit any UB in the emitted code.
  std::string compilerCmd = "c++ -std=c++20 -O1";
  // Shard count of the codegen leg: emitCppSharded's header and this many
  // units (clamped to the work functions) are compiled together.
  uint32_t codegenShards = 1;
  bool keepCompiledArtifacts = false;  // keep the temp dir for debugging
  // Wall-clock watchdog for each codegen subprocess (compile, then run);
  // 0 disables. A killed subprocess surfaces as Divergence::Kind::Timeout,
  // never as a hang. Applied on every oracle invocation, including each
  // shrink attempt.
  int64_t subprocessTimeoutMs = 0;
  // Test hook: prepend an infinite loop to the compiled harness's main(),
  // proving the watchdog path end to end. The artifacts of this injected
  // hang are removed, where a real failure keeps them for debugging.
  bool injectHangForTest = false;
};

struct OracleResult {
  bool ran = false;  // the circuit parsed and built; engines were compared
  // Set when the circuit did not build, or when scheduling, engine
  // construction or the comparison threw; prefixed with the stage (and
  // engine) for the latter.
  std::string buildError;
  std::optional<Divergence> divergence;
  bool codegenSkipped = false;        // e.g. >64-bit signals (documented limit)
  std::string codegenSkipReason;

  bool ok() const { return ran && !divergence.has_value(); }
};

OracleResult runOracle(const std::string& firrtlText, const Stimulus& stim,
                       const OracleOptions& opts = {});

// Test hook, one-shot: the next engine construction inside runOracle
// throws, standing in for a partitioner or scheduler exception (no
// generated circuit triggers one today). That case must come back as
// OracleResult::buildError, reaching a campaign's failure report.
void failNextEngineConstructionForTest();

// Reference trace captured from engines[0] during a lock-step run; feeds
// the out-of-process codegen comparison.
struct RefTrace {
  std::vector<std::string> signals;               // names to record
  std::vector<std::vector<std::string>> cycles;   // hex value per signal per cycle
  std::string printOut;
  bool stopped = false;
  int exitCode = 0;
  // Final contents of every memory in the reference IR (word 0 per row;
  // generated memories are always <= 64 bits wide).
  std::vector<std::pair<std::string, std::vector<uint64_t>>> mems;
};

// Lock-step comparison of in-process engines (engines[0] is the reference).
// Exposed separately so tests can compare arbitrary engine pairs.
std::optional<Divergence> compareLockstep(
    const std::vector<std::pair<std::string, sim::Engine*>>& engines, const Stimulus& stim,
    RefTrace* trace = nullptr);

}  // namespace essent::fuzz
