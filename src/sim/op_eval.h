// Inline op evaluation shared by every engine.
//
// Each ExecOp is executed either on the fast path — all operand and result
// widths fit in one 64-bit word, evaluated branch-free on the arena — or on
// the slow path, which materializes BitVecs and runs the reference
// semantics in support/bvops.h. Both paths store canonically masked values,
// so value comparison is plain word comparison everywhere.
#pragma once

#include <stdexcept>

#include "sim/sim_ir.h"
#include "support/bvops.h"

namespace essent::sim {

// The helpers evalFastCode uses are always_inline like it: the lane
// kernel's ISA translation units (-mavx2, -mavx512f) must not emit an
// out-of-line copy that the linker could hand to baseline-ISA callers.
[[gnu::always_inline]] inline uint64_t maskW(uint32_t w) {
  return w >= 64 ? ~uint64_t{0} : ((uint64_t{1} << w) - 1);
}

// Sign-extends the low `w` bits of v to a full int64.
[[gnu::always_inline]] inline int64_t sx(uint64_t v, uint32_t w) {
  if (w == 0) return 0;
  if (w >= 64) return static_cast<int64_t>(v);
  uint64_t m = uint64_t{1} << (w - 1);
  return static_cast<int64_t>((v ^ m) - m);
}

// sx as a word: two's-complement arithmetic on it wraps where int64 would
// overflow.
[[gnu::always_inline]] inline uint64_t sxw(uint64_t v, uint32_t w) {
  return static_cast<uint64_t>(sx(v, w));
}

// Loads a signal's current value as a BitVec (slow path only).
BitVec loadBV(const SimState& st, const Layout& lay, const SimIR& ir, int32_t sig);
// Stores `v`, extended/truncated to the signal's declared width.
void storeBV(SimState& st, const Layout& lay, const SimIR& ir, int32_t sig, const BitVec& v,
             bool signedExtend);

// Out-of-line evaluation for multi-word operands.
void evalExecOpSlow(const SimIR& ir, const Layout& lay, SimState& st, const ExecOp& op);

// Single-word semantics of every op but Const and MemRead: the fast path,
// where all operand and result widths fit one 64-bit word. This switch is
// the one C++ statement of those semantics (the emitter's text templates
// and the lane engine's bit-sliced Packed1 kernel restate a few). The
// scalar engines reach it through evalFastScalar below; the lane engine's
// wide kernel (core/lane_wide.h) calls it per lane with `code` a
// compile-time constant, so the switch folds away and the host compiler
// vectorizes the loop — hence always_inline. `c` is read only by Mux.
// Signed arithmetic wraps on sign-extended words, so no operand value is
// undefined behaviour. The result is unmasked: callers apply
// `& maskW(op.destW)` before storing. Const and MemRead return 0; their
// callers evaluate them (they need the const pool or memory state).
[[gnu::always_inline]] inline uint64_t evalFastCode(OpCode code, const ExecOp& op, uint64_t a,
                                                    uint64_t b, uint64_t c) {
  uint64_t r = 0;
  switch (code) {
    case OpCode::Add:
      r = op.signedOp ? sxw(a, op.aW) + sxw(b, op.bW) : a + b;
      break;
    case OpCode::Sub:
      r = op.signedOp ? sxw(a, op.aW) - sxw(b, op.bW) : a - b;
      break;
    case OpCode::Mul:
      r = op.signedOp ? sxw(a, op.aW) * sxw(b, op.bW) : a * b;
      break;
    case OpCode::Div:
      if (b == 0) r = 0;
      else if (op.signedOp) {
        // INT64_MIN / -1 overflows (SIGFPE on x86); dividing by -1 negates.
        const int64_t sb = sx(b, op.bW);
        r = sb == -1 ? 0 - sxw(a, op.aW) : static_cast<uint64_t>(sx(a, op.aW) / sb);
      } else r = a / b;
      break;
    case OpCode::Rem:
      if (b == 0) r = a;  // x % 0 := x truncated (matches bvops::rem)
      else if (op.signedOp) {
        // INT64_MIN % -1 overflows the quotient and is UB in C++ (SIGFPE on
        // x86); the mathematical remainder is 0, which is what bvops::rem
        // and the emitted C++ produce.
        const int64_t sb = sx(b, op.bW);
        r = sb == -1 ? 0 : static_cast<uint64_t>(sx(a, op.aW) % sb);
      } else r = a % b;
      break;
    case OpCode::Lt:
      r = op.signedOp ? (sx(a, op.aW) < sx(b, op.bW)) : (a < b);
      break;
    case OpCode::Leq:
      r = op.signedOp ? (sx(a, op.aW) <= sx(b, op.bW)) : (a <= b);
      break;
    case OpCode::Gt:
      r = op.signedOp ? (sx(a, op.aW) > sx(b, op.bW)) : (a > b);
      break;
    case OpCode::Geq:
      r = op.signedOp ? (sx(a, op.aW) >= sx(b, op.bW)) : (a >= b);
      break;
    case OpCode::Eq:
      r = op.signedOp ? (sx(a, op.aW) == sx(b, op.bW)) : (a == b);
      break;
    case OpCode::Neq:
      r = op.signedOp ? (sx(a, op.aW) != sx(b, op.bW)) : (a != b);
      break;
    case OpCode::Dshl:
      r = b >= op.destW ? 0 : a << b;
      break;
    case OpCode::Dshr:
      if (op.signedOp) r = static_cast<uint64_t>(sx(a, op.aW) >> (b > 63 ? 63 : b));
      else r = b >= op.aW ? 0 : a >> b;
      break;
    case OpCode::And:
      r = op.signedOp ? sxw(a, op.aW) & sxw(b, op.bW) : a & b;
      break;
    case OpCode::Or:
      r = op.signedOp ? sxw(a, op.aW) | sxw(b, op.bW) : a | b;
      break;
    case OpCode::Xor:
      r = op.signedOp ? sxw(a, op.aW) ^ sxw(b, op.bW) : a ^ b;
      break;
    case OpCode::Cat:
      r = op.bW >= 64 ? b : ((a << op.bW) | b);
      break;
    case OpCode::Not:
      r = ~a;
      break;
    case OpCode::Andr:
      r = a == maskW(op.aW);
      break;
    case OpCode::Orr:
      r = a != 0;
      break;
    case OpCode::Xorr:
      r = static_cast<uint64_t>(__builtin_parityll(a));
      break;
    case OpCode::Neg:
      r = 0 - (op.signedOp ? sxw(a, op.aW) : a);
      break;
    case OpCode::Cvt:
    case OpCode::Pad:
    case OpCode::Copy:
      r = op.signedOp ? sxw(a, op.aW) : a;
      break;
    case OpCode::Shl:
      r = op.imm0 >= 64 ? 0 : a << op.imm0;
      break;
    case OpCode::Shr:
      if (op.signedOp) r = static_cast<uint64_t>(sx(a, op.aW) >> (op.imm0 > 63 ? 63 : op.imm0));
      else r = op.imm0 >= op.aW ? 0 : a >> op.imm0;
      break;
    case OpCode::Bits:
      r = (a >> op.imm1) & maskW(static_cast<uint32_t>(op.imm0 - op.imm1 + 1));
      break;
    case OpCode::Head:
      r = op.imm0 == 0 ? 0 : a >> (op.aW - op.imm0);
      break;
    case OpCode::Tail:
      r = a;  // masked to destW by the caller
      break;
    case OpCode::Mux:
      if (op.signedOp) r = a != 0 ? sxw(b, op.bW) : sxw(c, op.cW);
      else r = a != 0 ? b : c;
      break;
    case OpCode::Const:
    case OpCode::MemRead:
      break;  // evaluated by the caller
  }
  return r;
}

// evalFastCode plus Const, for the scalar engines. MemRead is still the
// caller's (it needs memory state).
inline uint64_t evalFastScalar(const SimIR& ir, const ExecOp& op, uint64_t a, uint64_t b,
                               uint64_t c) {
  if (op.code == OpCode::Const) return ir.constPool[static_cast<size_t>(op.imm0)].word(0);
  return evalFastCode(op.code, op, a, b, c);
}

inline void evalExecOp(const SimIR& ir, const Layout& lay, SimState& st, const ExecOp& op) {
  if (!op.fast) {
    evalExecOpSlow(ir, lay, st, op);
    return;
  }
  uint64_t* vals = st.vals.data();
  const uint64_t a = op.aOff != UINT32_MAX ? vals[op.aOff] : 0;
  const uint64_t b = op.bOff != UINT32_MAX ? vals[op.bOff] : 0;
  uint64_t r;
  if (op.code == OpCode::MemRead) {
    const MemInfo& m = ir.mems[static_cast<size_t>(op.imm0)];
    r = (b != 0 && a < m.depth) ? st.memWords[static_cast<size_t>(op.imm0)][a] : 0;
  } else {
    r = evalFastScalar(ir, op, a, b, op.code == OpCode::Mux ? vals[op.cOff] : 0);
  }
  vals[op.destOff] = r & maskW(op.destW);
}

// Evaluates one op and reports whether its destination value changed.
inline bool evalExecOpChanged(const SimIR& ir, const Layout& lay, SimState& st,
                              const ExecOp& op) {
  uint32_t off = op.destOff;
  uint32_t nw = lay.nwords[op.dest];
  uint64_t saved[8];
  std::vector<uint64_t> savedWide;
  const uint64_t* old;
  if (nw <= 8) {
    for (uint32_t i = 0; i < nw; i++) saved[i] = st.vals[off + i];
    old = saved;
  } else {
    savedWide.assign(st.vals.begin() + off, st.vals.begin() + off + nw);
    old = savedWide.data();
  }
  evalExecOp(ir, lay, st, op);
  for (uint32_t i = 0; i < nw; i++)
    if (st.vals[off + i] != old[i]) return true;
  return false;
}

// Bound on Gauss-Seidel passes over a combinational-loop supernode before
// declaring oscillation (paper §II: supernodes are evaluated repeatedly
// until convergence).
constexpr int kMaxSuperIters = 1000;

// Iterates a supernode's member ops (a contiguous ExecOp range, in
// execution order) to a fixpoint. Throws std::runtime_error when the loop
// oscillates.
inline void evalSuperRange(const SimIR& ir, const Layout& lay, SimState& st, const ExecOp* ops,
                           size_t count) {
  for (int iter = 0; iter < kMaxSuperIters; iter++) {
    bool changed = false;
    for (size_t i = 0; i < count; i++) changed |= evalExecOpChanged(ir, lay, st, ops[i]);
    if (!changed) return;
  }
  throw std::runtime_error(
      "combinational loop failed to converge (oscillating feedback?) in supernode");
}

}  // namespace essent::sim
