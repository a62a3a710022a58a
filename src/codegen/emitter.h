// C++ code generation backend: the analogue of ESSENT's output. Given a
// SimIR (and, for CCSS mode, a CondPartSchedule), emits a self-contained
// C++17 translation unit defining a `struct <className>` whose public
// members are what must persist between calls: every named signal (inputs,
// outputs, registers, named nodes), backdoor-accessible memories, and the
// anonymous temporaries that are constants, partition outputs, shared
// between work functions or read by end-of-cycle code; plus an eval()
// advancing one clock cycle. Every other temporary is a local of the one
// partition function (CCSS) or evaluation chunk (baseline) that both
// defines and reads it. The struct is plain data: its constructor
// zero-fills the object and then stores only the nonzero constants (and,
// in CCSS mode, the all-active start state).
//
// Two modes, mirroring the paper's evaluation configurations:
//  * baseline  — straight-line full-cycle evaluation (static schedule, no
//    conditioning);
//  * CCSS      — one function per partition with activity flags, old-value
//    saves, branchless OR-reduced output triggers, in-place elided state
//    updates, and a main eval() that checks input changes and sweeps the
//    static schedule.
//
// Branch hints (§III-B2): reset-selected mux ways, printf bodies and
// stop/assertion handling are annotated unlikely so the compiler moves the
// cold code out of the hot instruction working set.
//
// Limitation (documented in DESIGN.md): generated code uses plain uint64_t
// storage, so every signal must be at most 64 bits wide; emitCpp throws
// CodegenError otherwise. The in-process engines have no such limit.
#pragma once

#include <stdexcept>
#include <string>

#include "core/schedule.h"
#include "sim/sim_ir.h"

namespace essent::codegen {

struct CodegenOptions {
  std::string className = "Simulator";
  bool ccss = true;         // false = baseline full-cycle
  bool branchHints = true;  // cold-path annotations
  // Conditional evaluation of multiplexor ways (§III-B): ops whose only
  // consumer is one arm of a mux are sunk into that arm's if/else branch,
  // so the untaken way is never computed. Only compiler temporaries are
  // sunk (named signals stay observable).
  bool muxShadow = true;
};

class CodegenError : public std::runtime_error {
 public:
  explicit CodegenError(const std::string& m) : std::runtime_error("codegen error: " + m) {}
};

// `schedule` may be null when opts.ccss is false.
std::string emitCpp(const sim::SimIR& ir, const core::CondPartSchedule* schedule,
                    const CodegenOptions& opts = {});

// Sharded emission for million-node designs, where a single translation
// unit would stall (or OOM) the host C++ compiler: `header` declares the
// simulator struct and `units[k]` defines a slice of its evaluation code,
// so the units compile in parallel and each stays a tractable size.
// Partition functions (CCSS) / schedule chunks (baseline) are assigned to
// units in schedule order, balanced by emitted byte count; unit 0 defines
// eval(). Write `header` as `<base>.h` and unit k as `<base>_<k>.cpp` —
// every unit includes the header by that name.
struct ShardedCpp {
  std::string headerName;             // "<base>.h"
  std::string header;
  std::vector<std::string> unitNames; // "<base>_<k>.cpp"
  std::vector<std::string> units;
};

// `shards` is clamped to [1, work functions]; `base` is the file-name stem
// recorded in headerName/unitNames (and in each unit's #include line).
ShardedCpp emitCppSharded(const sim::SimIR& ir, const core::CondPartSchedule* schedule,
                          const CodegenOptions& opts, uint32_t shards,
                          const std::string& base = "sim");

// The C identifier used for a signal in generated code (stable mapping,
// collision-free); exposed so harnesses can address generated members.
// Only named signals (and constants) are guaranteed members: an anonymous
// temporary may be a function local, with no member to address.
// `className` is CodegenOptions::className of the emission.
std::string memberName(const sim::SimIR& ir, int32_t sig,
                       const std::string& className = "Simulator");

// The member array holding ir.mems[memIdx]: `mem_<sanitized name>`, with a
// numeric suffix only when another memory's name sanitizes alike.
std::string memArrayName(const sim::SimIR& ir, size_t memIdx);

}  // namespace essent::codegen
