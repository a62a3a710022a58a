// SIMD dispatch for the lane engine's wide kernel.
//
// A "wide" op is a fast (single-word) ExecOp evaluated for n lanes at once
// over contiguous structure-of-arrays operand slots. The kernel has one
// source, core/lane_wide.h, a per-lane loop over sim::evalFastCode, and
// three compilations of it, one per tier:
//
//   Portable — the baseline ISA (core/lane_simd.cpp);
//   Avx2     — the same loop built with -mavx2 (core/lane_simd_avx2.cpp);
//   Avx512   — the same loop built with -mavx512f (core/lane_simd_avx512.cpp).
//
// Every tier covers every fast op, so there is no subset and no fallback.
// The ISA TUs are compiled only when the compiler accepts the flag
// (ESSENT_HAVE_AVX2/ESSENT_HAVE_AVX512 CMake defines) and are entered only
// when __builtin_cpu_supports agrees at runtime. The ESSENT_SIMD environment
// variable overrides detection: "off"/"portable" forces the baseline build,
// "avx2"/"avx512" caps the tier (clamped to what the build and CPU actually
// have). The lane conformance tests run the same program and every fast op
// under forced tiers and demand bit-equality.
#pragma once

#include <cstdint>

#include "sim/sim_ir.h"

namespace essent::core {

enum class LaneSimdTier : uint8_t { Portable = 0, Avx2 = 1, Avx512 = 2 };

// Wide-op kernel: evaluate `op` for n lanes (d/a/b/c are n-word SoA slots;
// c is read only for Mux) and store canonically masked values. Handles every
// fast op except Const/MemRead, which the lane engine evaluates itself.
using LaneWideFn = void (*)(const sim::ExecOp& op, uint64_t* d, const uint64_t* a,
                            const uint64_t* b, const uint64_t* c, uint32_t n);

// Resolved tier after build gates, CPU detection, and the ESSENT_SIMD
// override (re-read on every call so tests can force tiers between engine
// constructions; engines capture the kernel once at construction).
LaneSimdTier laneSimdTier();
const char* laneSimdTierName(LaneSimdTier tier);  // "portable"/"avx2"/"avx512"
const char* laneSimdBackendName();                // name of the resolved tier

// The wide kernel compiled for the resolved tier.
LaneWideFn laneWideKernel();

// Test hook: pin the tier (same clamping as ESSENT_SIMD — forcing an
// unavailable tier resolves to the best available one below it).
// laneSimdResetTier() returns to environment + CPU detection.
void laneSimdForceTier(LaneSimdTier tier);
void laneSimdResetTier();

}  // namespace essent::core
