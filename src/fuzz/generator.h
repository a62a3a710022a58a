// Seeded random FIRRTL circuit generator for differential fuzzing.
//
// Coverage goals (ISSUE: "registers, muxes, memories, all primops —
// including signed div/rem and dshl/dshr edge widths — multi-module
// instantiation, and resets"):
//  * every SimIR primop is reachable, with widths biased toward the 1 / 31 /
//    32 / 33 / 63 / 64 boundaries where word-level fast paths change shape;
//  * registers with and without reset, including when/else-gated connects;
//  * memories with read-latency 0 and 1, same-cycle read/write address
//    aliasing, and enable toggling;
//  * 0-2 combinational or registered sub-modules instantiated one or more
//    times each (exercises the flattening pass);
//  * optional printf side effects (exercises print-buffer comparison);
//  * optional wide XOR/OR reduction trees over 16+ registers, one named node
//    per tree (exercises the partitioner's oversized-cone cut, with and
//    without a shared node between two trees, and register shift chains).
//
// When `allowWide` is false every intermediate signal is capped at 64 bits,
// which keeps the circuit eligible for the compiled codegen engine; wide
// circuits intentionally exceed 64 bits to exercise the BitVec slow path.
#pragma once

#include <cstdint>
#include <string>

namespace essent::fuzz {

struct GenOptions {
  bool allowWide = false;       // permit >64-bit intermediates (no codegen)
  bool allowMems = true;
  bool allowMultiModule = true;
  bool allowPrints = true;
  uint32_t numInputs = 4;       // besides clock/reset
  uint32_t numRegs = 4;
  uint32_t exprNodes = 24;      // combinational nodes in the top module
};

// Deterministic: the same (seed, opts) always yields the same text.
std::string generateCircuit(uint64_t seed, const GenOptions& opts = {});

}  // namespace essent::fuzz
