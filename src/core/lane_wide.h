// The lane engine's wide kernel: one fast ExecOp evaluated for n lanes over
// contiguous structure-of-arrays operand slots, d[l] = sim::evalFastCode(op,
// a[l], b[l], c[l]) masked to op.destW.
//
// This header is the kernel's only source. lane_simd.cpp compiles it for the
// baseline ISA, lane_simd_avx2.cpp with -mavx2 and lane_simd_avx512.cpp with
// -mavx512f, and the host compiler vectorizes each loop for its ISA. The op
// code and signedness are template parameters, so every loop body is one
// case of evalFastCode with its switch folded away. Everything here has
// internal linkage on purpose: each translation unit keeps its own
// instantiations, and the linker can never hand an AVX-512 copy to a
// baseline-ISA caller.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

#include "core/lane_simd.h"
#include "sim/op_eval.h"

namespace essent::core {
namespace {

// The loop reads a local copy of the op: stores to d[] cannot alias its
// fields (imm0 is an int64_t), so they stay in registers across the loop.
template <sim::OpCode Code, bool Signed>
void laneWideLoop(const sim::ExecOp& opIn, uint64_t* d, const uint64_t* a, const uint64_t* b,
                  const uint64_t* c, uint32_t n) {
  sim::ExecOp op = opIn;
  op.signedOp = Signed;
  const uint64_t dm = sim::maskW(op.destW);
  for (uint32_t l = 0; l < n; l++) d[l] = sim::evalFastCode(Code, op, a[l], b[l], c[l]) & dm;
}

// One loop per (signedness, op code); the op codes before Const are exactly
// the ones the wide kernel handles (Const and MemRead are the lane engine's).
static_assert(static_cast<int>(sim::OpCode::MemRead) == static_cast<int>(sim::OpCode::Const) + 1,
              "Const and MemRead must be the last op codes");
template <size_t... Code>
void laneWideDispatch(const sim::ExecOp& op, uint64_t* d, const uint64_t* a, const uint64_t* b,
                      const uint64_t* c, uint32_t n, std::index_sequence<Code...>) {
  static constexpr LaneWideFn kLoops[2][sizeof...(Code)] = {
      {&laneWideLoop<static_cast<sim::OpCode>(Code), false>...},
      {&laneWideLoop<static_cast<sim::OpCode>(Code), true>...}};
  kLoops[op.signedOp][static_cast<size_t>(op.code)](op, d, a, b, c, n);
}

// The kernel body every tier's LaneWideFn wraps.
inline void laneWide(const sim::ExecOp& op, uint64_t* d, const uint64_t* a, const uint64_t* b,
                     const uint64_t* c, uint32_t n) {
  laneWideDispatch(op, d, a, b, c, n,
                   std::make_index_sequence<static_cast<size_t>(sim::OpCode::Const)>{});
}

}  // namespace
}  // namespace essent::core
