#include "core/lane_engine.h"

#include <stdexcept>

#include "obs/trace.h"
#include "sim/op_eval.h"

namespace essent::core {

using essent::BitVec;
using sim::ExecOp;
using sim::maskW;
using sim::MemInfo;
using sim::OpCode;
using sim::RegInfo;

namespace {

inline unsigned lowestLane(uint64_t mask) {
  return static_cast<unsigned>(__builtin_ctzll(mask));
}

inline unsigned laneCount(uint64_t mask) {
  return static_cast<unsigned>(__builtin_popcountll(mask));
}

inline uint64_t laneBit(unsigned l) { return uint64_t{1} << l; }

// Operand slot of an absent argument, one stride (at most 64 lanes) of 0.
const uint64_t kZeros[64] = {};

size_t memIndexOrThrow(const sim::SimIR& ir, const std::string& name) {
  for (size_t m = 0; m < ir.mems.size(); m++)
    if (ir.mems[m].name == name) return m;
  throw std::out_of_range("no memory named '" + name + "'");
}

}  // namespace

// ---------------------------------------------------------------------------
// Layout + program build

LaneStateLayout LaneStateLayout::build(const sim::SimIR& ir, const sim::Layout& scalar,
                                       unsigned lanes) {
  LaneStateLayout lay;
  lay.lanes = lanes < 1 ? 1 : (lanes > 64 ? 64 : lanes);
  // Pad the stride to a multiple of 8 words (when grouping at all) so SIMD
  // loops always see whole vectors; padding lanes are dead weight the wide
  // kernels may scribble on, never read as lane state.
  lay.stride = lay.lanes == 1 ? 1 : ((lay.lanes + 7) / 8) * 8;
  lay.off.resize(ir.signals.size());
  lay.packed.resize(ir.signals.size());
  uint32_t off = 0;
  for (size_t s = 0; s < ir.signals.size(); s++) {
    lay.packed[s] = ir.signals[s].width <= 1 ? 1 : 0;
    lay.off[s] = off;
    off += lay.packed[s] ? 1 : scalar.nwords[s] * lay.stride;
  }
  lay.totalWords = off;
  return lay;
}

namespace {

// True when every 1-bit operand/dest is packed and the op's 1-bit semantics
// reduce to plain bitwise words (one instruction covers all 64 lanes).
bool packed1Eligible(const ExecOp& op, const LaneExecOp& lop) {
  if (!op.fast || op.destW != 1 || !lop.dPacked) return false;
  if (lop.aOff != UINT32_MAX && !lop.aPacked) return false;
  if (lop.bOff != UINT32_MAX && !lop.bPacked) return false;
  if (lop.cOff != UINT32_MAX && !lop.cPacked) return false;
  switch (op.code) {
    case OpCode::And:
    case OpCode::Or:
    case OpCode::Xor:
    case OpCode::Not:
    case OpCode::Eq:
    case OpCode::Neq:
    case OpCode::Mux:
    case OpCode::Copy:
    case OpCode::Pad:
    case OpCode::Tail:
      return true;
    default:
      return false;
  }
}

std::shared_ptr<const LaneProgram> buildLaneProgram(const sim::CompiledDesign& design,
                                                    unsigned strideLanes) {
  auto p = std::make_shared<LaneProgram>();
  p->layout = LaneStateLayout::build(design.ir, design.layout, strideLanes);
  p->ops.reserve(design.exec.size());
  for (const ExecOp& op : design.exec) {
    LaneExecOp lop;
    lop.op = op;
    auto bind = [&](int32_t sig, uint32_t scalarOff, uint32_t& off, bool& packed) {
      if (scalarOff == UINT32_MAX || sig < 0) return;
      off = p->layout.off[static_cast<size_t>(sig)];
      packed = p->layout.isPacked(sig);
    };
    bind(op.dest, op.destOff, lop.dOff, lop.dPacked);
    bind(op.args[0], op.aOff, lop.aOff, lop.aPacked);
    bind(op.args[1], op.bOff, lop.bOff, lop.bPacked);
    bind(op.args[2], op.cOff, lop.cOff, lop.cPacked);
    if (op.code == OpCode::Const) lop.kernel = LaneKernel::ConstOp;
    else if (!op.fast) lop.kernel = LaneKernel::SlowBV;
    else if (op.code == OpCode::MemRead) lop.kernel = LaneKernel::MemReadOp;
    else if (packed1Eligible(op, lop)) lop.kernel = LaneKernel::Packed1;
    else if (!lop.dPacked && (lop.aOff == UINT32_MAX || !lop.aPacked) &&
             (lop.bOff == UINT32_MAX || !lop.bPacked) &&
             (lop.cOff == UINT32_MAX || !lop.cPacked))
      lop.kernel = LaneKernel::WideFast;
    else lop.kernel = LaneKernel::GenericFast;
    p->ops.push_back(std::move(lop));
  }
  return p;
}

}  // namespace

std::shared_ptr<const LaneProgram> LaneProgram::get(
    const std::shared_ptr<const sim::CompiledDesign>& design, unsigned lanes) {
  const unsigned clamped = lanes < 1 ? 1 : (lanes > 64 ? 64 : lanes);
  const unsigned stride = clamped == 1 ? 1 : ((clamped + 7) / 8) * 8;
  // The program depends only on the stride (packing is width-driven), so
  // lane counts sharing a stride share one cached build.
  const std::string key = "lane/stride=" + std::to_string(stride);
  return design->getOrBuildExt<LaneProgram>(
      key, [&design, stride]() { return buildLaneProgram(*design, stride); });
}

// ---------------------------------------------------------------------------
// LaneView

LaneView::LaneView(std::shared_ptr<const sim::CompiledDesign> design, LaneEngine* group,
                   unsigned lane)
    : Engine(std::move(design), ViewTag{}), group_(group), lane_(lane) {}

void LaneView::tick() {
  throw std::logic_error("LaneView::tick: lanes advance together through LaneEngine::tick");
}

void LaneView::poke(const std::string& name, uint64_t value) {
  group_->pokeLane(sigIdOrThrow(name), lane_, value);
}

void LaneView::pokeBV(const std::string& name, const BitVec& value) {
  const int32_t sig = sigIdOrThrow(name);
  group_->laneStoreBV(sig, value, false, lane_);
  group_->syncFrozenSig(lane_, sig);
}

uint64_t LaneView::peek(const std::string& name) const {
  return group_->laneSigWord0(sigIdOrThrow(name), lane_);
}

BitVec LaneView::peekBV(const std::string& name) const {
  return group_->laneLoadBV(sigIdOrThrow(name), lane_);
}

uint64_t LaneView::peekSig(int32_t sig) const { return group_->laneSigWord0(sig, lane_); }

BitVec LaneView::peekSigBV(int32_t sig) const { return group_->laneLoadBV(sig, lane_); }

void LaneView::pokeMem(const std::string& memName, uint64_t addr, uint64_t value) {
  size_t m = memIndexOrThrow(*ir_, memName);
  if (addr >= ir_->mems[m].depth) throw std::out_of_range("mem address out of range");
  group_->pokeMemLane(m, lane_, addr, value);
}

uint64_t LaneView::peekMem(const std::string& memName, uint64_t addr) const {
  size_t m = memIndexOrThrow(*ir_, memName);
  if (addr >= ir_->mems[m].depth) throw std::out_of_range("mem address out of range");
  return group_->peekMemLane(m, lane_, addr);
}

void LaneView::resetState() {
  stats_.resetCounters();
  stopped_ = false;
  exitCode_ = 0;
  printBuf_.clear();
  group_->resetLaneState(lane_);
}

void LaneView::randomizeState(uint64_t seed) { group_->randomizeLane(lane_, seed); }

sim::Engine::Snapshot LaneView::saveState() const { return group_->saveLane(lane_); }

void LaneView::restoreState(const Snapshot& snapshot) { group_->restoreLane(lane_, snapshot); }

// ---------------------------------------------------------------------------
// LaneEngine

LaneEngine::LaneEngine(std::shared_ptr<const CompiledCcss> ccss, unsigned lanes)
    : ccss_(std::move(ccss)),
      prog_(LaneProgram::get(ccss_->design, lanes)),
      ir_(&ccss_->design->ir),
      scalarLayout_(&ccss_->design->layout),
      sched_(ccss_->body->sched),
      lanes_(lanes < 1 ? 1 : (lanes > 64 ? 64 : lanes)),
      stride_(prog_->layout.stride),
      allMask_(lanes_ >= 64 ? ~uint64_t{0} : (uint64_t{1} << lanes_) - 1),
      tier_(laneSimdTier()),
      wideFn_(laneWideKernel()) {
  vals_.assign(prog_->layout.totalWords, 0);
  memWords_.resize(ir_->mems.size());
  memRowWords_.resize(ir_->mems.size());
  for (size_t m = 0; m < ir_->mems.size(); m++) {
    const uint32_t rw = static_cast<uint32_t>(BitVec::numWords(ir_->mems[m].width));
    memRowWords_[m] = rw;
    memWords_[m].assign(ir_->mems[m].depth * rw * stride_, 0);
  }
  prevInputs_.assign(prog_->layout.totalWords, 0);
  activeMask_.assign(sched_.parts.size(), allMask_);
  // Flat old-value save area in the lane layout (packed outputs save one
  // word; schedule-dependent, so laid out here rather than in LaneProgram).
  size_t saveOff = 0;
  partOutBase_.reserve(sched_.parts.size());
  for (const auto& part : sched_.parts) {
    partOutBase_.push_back(outputSaveOff_.size());
    for (const auto& o : part.outputs) {
      outputSaveOff_.push_back(static_cast<uint32_t>(saveOff));
      saveOff += prog_->layout.isPacked(o.sig) ? 1 : scalarLayout_->nwords[o.sig] * stride_;
    }
  }
  outputSave_.assign(saveOff, 0);
  scratch_.assign(4u * stride_, 0);
  liveMask_ = allMask_;
  freshMask_ = allMask_;
  frozenVals_.resize(lanes_);
  accChecks_.assign(lanes_, 0);
  accActs_.assign(lanes_, 0);
  accOps_.assign(lanes_, 0);
  accCmps_.assign(lanes_, 0);
  accTrigs_.assign(lanes_, 0);
  views_.reserve(lanes_);
  for (unsigned l = 0; l < lanes_; l++)
    views_.emplace_back(new LaneView(ccss_->design, this, l));
  for (const auto& lop : prog_->ops)
    if (lop.kernel == LaneKernel::ConstOp)
      for (unsigned l = 0; l < lanes_; l++) evalConstLane(lop, l);
}

LaneEngine::~LaneEngine() = default;

// --- lane-word access ------------------------------------------------------

uint64_t LaneEngine::laneSigWord0(int32_t sig, unsigned l) const {
  if (!frozenVals_[l].empty())
    return frozenVals_[l][scalarLayout_->offset[static_cast<size_t>(sig)]];
  return laneWord(prog_->layout.off[static_cast<size_t>(sig)], prog_->layout.isPacked(sig), l);
}

void LaneEngine::storeLaneWord(uint32_t off, bool packed, unsigned l, uint64_t v) {
  if (packed) {
    const uint64_t bit = laneBit(l);
    vals_[off] = (vals_[off] & ~bit) | ((v & 1) << l);
  } else {
    vals_[off + l] = v;
  }
}

BitVec LaneEngine::laneLoadBV(int32_t sig, unsigned l) const {
  BitVec v(ir_->signals[static_cast<size_t>(sig)].width);
  if (!frozenVals_[l].empty()) {
    const uint32_t so = scalarLayout_->offset[static_cast<size_t>(sig)];
    for (size_t i = 0; i < v.wordCount(); i++) v.data()[i] = frozenVals_[l][so + i];
    return v;
  }
  const uint32_t off = prog_->layout.off[static_cast<size_t>(sig)];
  if (prog_->layout.isPacked(sig)) {
    v.data()[0] = (vals_[off] >> l) & 1;
  } else {
    for (size_t i = 0; i < v.wordCount(); i++) v.data()[i] = vals_[off + i * stride_ + l];
  }
  return v;
}

void LaneEngine::laneStoreBV(int32_t sig, const BitVec& v, bool signedExtend, unsigned l) {
  BitVec adj = bvops::extend(v, signedExtend, ir_->signals[static_cast<size_t>(sig)].width);
  const uint32_t off = prog_->layout.off[static_cast<size_t>(sig)];
  if (prog_->layout.isPacked(sig)) {
    storeLaneWord(off, true, l, adj.word(0));
  } else {
    for (size_t i = 0; i < adj.wordCount(); i++) vals_[off + i * stride_ + l] = adj.word(i);
  }
}

// --- op evaluation ---------------------------------------------------------

void LaneEngine::evalConstLane(const LaneExecOp& lop, unsigned l) {
  const ExecOp& op = lop.op;
  if (!op.fast) {
    laneStoreBV(op.dest, ir_->constPool[static_cast<size_t>(op.imm0)],
                ir_->signals[static_cast<size_t>(op.dest)].isSigned, l);
    return;
  }
  const uint64_t r = ir_->constPool[static_cast<size_t>(op.imm0)].word(0) & maskW(op.destW);
  storeLaneWord(lop.dOff, lop.dPacked, l, r);
}

void LaneEngine::evalSlowLane(const LaneExecOp& lop, unsigned l) {
  // Per-lane mirror of sim::evalExecOpSlow over the lane arena.
  using namespace bvops;
  const ExecOp& op = lop.op;
  auto A = [&] { return laneLoadBV(op.args[0], l); };
  auto B = [&] { return laneLoadBV(op.args[1], l); };
  auto C = [&] { return laneLoadBV(op.args[2], l); };
  const bool s = op.signedOp;
  BitVec r;
  bool signedResult = ir_->signals[static_cast<size_t>(op.dest)].isSigned;
  switch (op.code) {
    case OpCode::Add: r = add(A(), B(), s); break;
    case OpCode::Sub: r = sub(A(), B(), s); break;
    case OpCode::Mul: r = mul(A(), B(), s); break;
    case OpCode::Div: r = div(A(), B(), s); break;
    case OpCode::Rem: r = rem(A(), B(), s); break;
    case OpCode::Lt: r = lt(A(), B(), s); break;
    case OpCode::Leq: r = leq(A(), B(), s); break;
    case OpCode::Gt: r = gt(A(), B(), s); break;
    case OpCode::Geq: r = geq(A(), B(), s); break;
    case OpCode::Eq: r = eq(A(), B(), s); break;
    case OpCode::Neq: r = neq(A(), B(), s); break;
    case OpCode::Dshl: r = dshl(A(), B(), op.bW); break;
    case OpCode::Dshr: r = dshr(A(), s, B()); break;
    case OpCode::And: r = band(A(), B(), s); break;
    case OpCode::Or: r = bor(A(), B(), s); break;
    case OpCode::Xor: r = bxor(A(), B(), s); break;
    case OpCode::Cat: r = cat(A(), B()); break;
    case OpCode::Not: r = bnot(A()); break;
    case OpCode::Andr: r = andr(A()); break;
    case OpCode::Orr: r = orr(A()); break;
    case OpCode::Xorr: r = xorr(A()); break;
    case OpCode::Cvt: r = cvt(A(), s); break;
    case OpCode::Neg: r = neg(A(), s); break;
    case OpCode::Pad: r = pad(A(), s, static_cast<uint32_t>(op.imm0)); break;
    case OpCode::Shl: r = shl(A(), static_cast<uint32_t>(op.imm0)); break;
    case OpCode::Shr: r = shr(A(), s, static_cast<uint32_t>(op.imm0)); break;
    case OpCode::Bits:
      r = bits(A(), static_cast<uint32_t>(op.imm0), static_cast<uint32_t>(op.imm1));
      break;
    case OpCode::Head: r = head(A(), static_cast<uint32_t>(op.imm0)); break;
    case OpCode::Tail: r = tail(A(), static_cast<uint32_t>(op.imm0)); break;
    case OpCode::Copy:
      laneStoreBV(op.dest, A(), s, l);
      return;
    case OpCode::Mux: r = mux(A(), B(), C(), s); break;
    case OpCode::Const: r = ir_->constPool[static_cast<size_t>(op.imm0)]; break;
    case OpCode::MemRead: {
      size_t memId = static_cast<size_t>(op.imm0);
      const MemInfo& m = ir_->mems[memId];
      uint64_t addr = A().toU64();
      bool en = !B().isZero();
      BitVec row(m.width);
      if (en && addr < m.depth && A().bitLength() <= 64) {
        uint32_t rw = memRowWords_[memId];
        for (uint32_t i = 0; i < rw; i++)
          row.data()[i] = memWords_[memId][(addr * rw + i) * stride_ + l];
        row.maskToWidth();
      }
      r = row;
      break;
    }
  }
  laneStoreBV(op.dest, r, signedResult, l);
}

void LaneEngine::evalOp(const LaneExecOp& lop) {
  const ExecOp& op = lop.op;
  switch (lop.kernel) {
    case LaneKernel::Packed1: {
      // One bitwise word op covers every lane's bit.
      const uint64_t a = lop.aOff != UINT32_MAX ? vals_[lop.aOff] : 0;
      const uint64_t b = lop.bOff != UINT32_MAX ? vals_[lop.bOff] : 0;
      uint64_t r;
      switch (op.code) {
        case OpCode::And: r = a & b; break;
        case OpCode::Or: r = a | b; break;
        case OpCode::Xor: r = a ^ b; break;
        case OpCode::Not: r = ~a; break;
        case OpCode::Eq: r = ~(a ^ b); break;
        case OpCode::Neq: r = a ^ b; break;
        case OpCode::Mux: r = (a & b) | (~a & vals_[lop.cOff]); break;
        default: r = a; break;  // Copy/Pad/Tail
      }
      vals_[lop.dOff] = r & allMask_;  // keep padding-lane bits zero
      break;
    }
    case LaneKernel::WideFast: {
      uint64_t* d = &vals_[lop.dOff];
      const uint64_t* a = lop.aOff != UINT32_MAX ? &vals_[lop.aOff] : kZeros;
      const uint64_t* b = lop.bOff != UINT32_MAX ? &vals_[lop.bOff] : kZeros;
      const uint64_t* c = lop.cOff != UINT32_MAX ? &vals_[lop.cOff] : kZeros;
      wideFn_(op, d, a, b, c, stride_);
      break;
    }
    case LaneKernel::GenericFast: {
      // Mixed packed/unpacked operands. Only width<=1 signals are packed,
      // so a packed operand expands exactly to 0/1 words: stage those into
      // scratch rows and run the same wide kernel as WideFast once for all
      // lanes, compressing a packed dest back to its bit slice afterwards.
      auto stage = [&](uint32_t off, bool packed, uint64_t* scratch) -> const uint64_t* {
        if (off == UINT32_MAX) return kZeros;
        if (!packed) return &vals_[off];
        const uint64_t w = vals_[off];
        for (unsigned l = 0; l < stride_; l++) scratch[l] = (w >> l) & 1;
        return scratch;
      };
      uint64_t* s = scratch_.data();
      const uint64_t* a = stage(lop.aOff, lop.aPacked, s);
      const uint64_t* b = stage(lop.bOff, lop.bPacked, s + stride_);
      const uint64_t* c = stage(lop.cOff, lop.cPacked, s + 2 * stride_);
      uint64_t* d = lop.dPacked ? s + 3 * stride_ : &vals_[lop.dOff];
      wideFn_(op, d, a, b, c, stride_);
      if (lop.dPacked) {
        uint64_t bits = 0;
        for (unsigned l = 0; l < stride_; l++) bits |= (d[l] & 1) << l;
        vals_[lop.dOff] = bits;
      }
      break;
    }
    case LaneKernel::SlowBV:
      for (unsigned l = 0; l < lanes_; l++) evalSlowLane(lop, l);
      break;
    case LaneKernel::MemReadOp: {
      const MemInfo& m = ir_->mems[static_cast<size_t>(op.imm0)];
      const auto& words = memWords_[static_cast<size_t>(op.imm0)];
      const uint64_t dm = maskW(op.destW);
      for (unsigned l = 0; l < lanes_; l++) {
        const uint64_t addr = laneWord(lop.aOff, lop.aPacked, l);
        const uint64_t en = laneWord(lop.bOff, lop.bPacked, l);
        const uint64_t r = (en != 0 && addr < m.depth) ? words[addr * stride_ + l] : 0;
        storeLaneWord(lop.dOff, lop.dPacked, l, r & dm);
      }
      break;
    }
    case LaneKernel::ConstOp:
      for (unsigned l = 0; l < lanes_; l++) evalConstLane(lop, l);
      break;
  }
}

bool LaneEngine::evalOpChangedAny(const LaneExecOp& lop) {
  const uint32_t off = lop.dOff;
  const uint32_t nw =
      lop.dPacked ? 1 : scalarLayout_->nwords[lop.op.dest] * stride_;
  uint64_t saved[8];
  std::vector<uint64_t> savedWide;
  const uint64_t* old;
  if (nw <= 8) {
    for (uint32_t i = 0; i < nw; i++) saved[i] = vals_[off + i];
    old = saved;
  } else {
    savedWide.assign(vals_.begin() + off, vals_.begin() + off + nw);
    old = savedWide.data();
  }
  evalOp(lop);
  for (uint32_t i = 0; i < nw; i++)
    if (vals_[off + i] != old[i]) return true;
  return false;
}

void LaneEngine::evalSuperRangeLanes(const LaneExecOp* ops, size_t count) {
  // Joint fixpoint over all lanes: iterate until no lane's value moves.
  for (int iter = 0; iter < sim::kMaxSuperIters; iter++) {
    bool changed = false;
    for (size_t i = 0; i < count; i++) changed |= evalOpChangedAny(ops[i]);
    if (!changed) return;
  }
  throw std::runtime_error(
      "combinational loop failed to converge (oscillating feedback?) in supernode");
}

// --- activity machinery ----------------------------------------------------

void LaneEngine::wakeMask(const std::vector<int32_t>& parts, uint64_t m) {
  for (int32_t p : parts) activeMask_[static_cast<size_t>(p)] |= m;
  addMasked(accTrigs_, m, parts.size());
}

void LaneEngine::applyRegWrite(const SchedRegWrite& rw, uint64_t m) {
  if (m == 0) return;
  const RegInfo& r = ir_->regs[static_cast<size_t>(rw.regIdx)];
  const uint32_t oS = prog_->layout.off[static_cast<size_t>(r.sig)];
  const uint32_t oN = prog_->layout.off[static_cast<size_t>(r.next)];
  uint64_t changed = 0;
  addMasked(accCmps_, m, 1);  // one compare per masked lane, either layout
  if (prog_->layout.isPacked(r.sig)) {
    // sig and next share a width, so both are bit-sliced: one XOR yields
    // the per-lane change mask and the masked commit at once.
    const uint64_t diff = (vals_[oS] ^ vals_[oN]) & m;
    vals_[oS] ^= diff;
    changed = diff;
  } else {
    const uint32_t nw = scalarLayout_->nwords[static_cast<size_t>(r.sig)];
    for (uint64_t t = m; t != 0; t &= t - 1) {
      const unsigned l = lowestLane(t);
      bool laneChanged = false;
      for (uint32_t i = 0; i < nw; i++)
        if (vals_[oS + i * stride_ + l] != vals_[oN + i * stride_ + l]) {
          laneChanged = true;
          break;
        }
      if (!laneChanged) continue;
      for (uint32_t i = 0; i < nw; i++) vals_[oS + i * stride_ + l] = vals_[oN + i * stride_ + l];
      changed |= laneBit(l);
    }
  }
  if (changed != 0) wakeMask(rw.wakeParts, changed);
}

void LaneEngine::applyMemWrite(const SchedMemWrite& mw, uint64_t m) {
  if (m == 0) return;
  const MemInfo& mem = ir_->mems[static_cast<size_t>(mw.memIdx)];
  const sim::MemWriter& w = mem.writers[static_cast<size_t>(mw.writerIdx)];
  const uint32_t rw = memRowWords_[static_cast<size_t>(mw.memIdx)];
  auto& words = memWords_[static_cast<size_t>(mw.memIdx)];
  const uint32_t oD = prog_->layout.off[static_cast<size_t>(w.data)];
  const bool dPacked = prog_->layout.isPacked(w.data);
  uint64_t changed = 0;
  for (uint64_t t = m; t != 0; t &= t - 1) {
    const unsigned l = lowestLane(t);
    // Same early-out order as the scalar engine (comparisons only counted
    // for writes that pass the enable/mask/bounds guards).
    if (laneSigWord0(w.en, l) == 0) continue;
    if (laneSigWord0(w.mask, l) == 0) continue;
    const uint64_t addr = laneSigWord0(w.addr, l);
    if (addr >= mem.depth) continue;
    accCmps_[l]++;
    bool laneChanged = false;
    for (uint32_t i = 0; i < rw; i++) {
      const uint64_t dv = dPacked ? (vals_[oD] >> l) & 1 : vals_[oD + i * stride_ + l];
      uint64_t& mv = words[(addr * rw + i) * stride_ + l];
      if (mv != dv) {
        mv = dv;
        laneChanged = true;
      }
    }
    if (laneChanged) changed |= laneBit(l);
  }
  if (changed != 0) wakeMask(mw.wakeParts, changed);
}

uint64_t LaneEngine::outputDiffMask(int32_t sig, uint32_t saveOff) const {
  const uint32_t off = prog_->layout.off[static_cast<size_t>(sig)];
  if (prog_->layout.isPacked(sig))
    return (outputSave_[saveOff] ^ vals_[off]) & allMask_;
  const uint32_t nw = scalarLayout_->nwords[static_cast<size_t>(sig)];
  uint64_t mask = 0;
  for (unsigned l = 0; l < lanes_; l++) {
    uint64_t d = 0;
    for (uint32_t i = 0; i < nw; i++)
      d |= outputSave_[saveOff + i * stride_ + l] ^ vals_[off + i * stride_ + l];
    if (d != 0) mask |= laneBit(l);
  }
  return mask;
}

void LaneEngine::runPartition(size_t pos, const CondPart& part, uint64_t m) {
  obs::TraceSpan span("lane.part", obs::TraceCat::None, obs::TraceDetail::Partition,
                      "part", pos);
  groupPartitionRuns_++;
  // Live lanes riding along inactive: the masked-activity composition at
  // work (they recompute unchanged values but commit nothing).
  maskedLaneSkips_ += laneCount(liveMask_ & ~m);
  addMasked(accActs_, m, 1);
  addMasked(accOps_, m, part.ops.size());

  // Save old output values (all lanes — diffs are masked later).
  const size_t outBase = partOutBase_[pos];
  for (size_t oi = 0; oi < part.outputs.size(); oi++) {
    const PartOutput& o = part.outputs[oi];
    const uint32_t so = outputSaveOff_[outBase + oi];
    const uint32_t vo = prog_->layout.off[static_cast<size_t>(o.sig)];
    const uint32_t nw =
        prog_->layout.isPacked(o.sig) ? 1 : scalarLayout_->nwords[o.sig] * stride_;
    for (uint32_t i = 0; i < nw; i++) outputSave_[so + i] = vals_[vo + i];
  }

  // Evaluate each op once for ALL lanes. Inactive lanes recompute their
  // current values from unchanged inputs — combinational evaluation is
  // pure, so this is free of observable effect; only commits and counters
  // honor the mask.
  if (!ir_->hasCombLoops()) {
    for (int32_t opIdx : part.ops) evalOp(prog_->ops[static_cast<size_t>(opIdx)]);
  } else {
    for (size_t k = 0; k < part.ops.size();) {
      int32_t opIdx = part.ops[k];
      int32_t super = ir_->superOf(static_cast<size_t>(opIdx));
      if (super < 0) {
        evalOp(prog_->ops[static_cast<size_t>(opIdx)]);
        k++;
        continue;
      }
      size_t j = k;
      while (j < part.ops.size() && ir_->superOf(static_cast<size_t>(part.ops[j])) == super)
        j++;
      evalSuperRangeLanes(prog_->ops.data() + opIdx, j - k);
      k = j;
    }
  }

  // Elided state updates, masked to the active lanes.
  for (const auto& rw : part.regWrites) applyRegWrite(rw, m);
  for (const auto& mw : part.memWrites) applyMemWrite(mw, m);

  // Push-direction triggering with per-lane change masks.
  addMasked(accCmps_, m, part.outputs.size());
  for (size_t oi = 0; oi < part.outputs.size(); oi++) {
    const PartOutput& o = part.outputs[oi];
    const uint64_t diff = outputDiffMask(o.sig, outputSaveOff_[outBase + oi]) & m;
    if (diff != 0) wakeMask(o.consumers, diff);
  }
}

void LaneEngine::sweepInputs() {
  // 1. External input change detection, per lane (fresh lanes skip the
  //    diff — their partitions are all pending anyway).
  const uint64_t cmp = liveMask_ & ~freshMask_;
  for (size_t i = 0; i < ir_->inputs.size(); i++) {
    const int32_t in = ir_->inputs[i];
    const uint32_t off = prog_->layout.off[static_cast<size_t>(in)];
    const bool packed = prog_->layout.isPacked(in);
    if (cmp != 0) {
      uint64_t diff = 0;
      if (packed) {
        diff = (vals_[off] ^ prevInputs_[off]) & cmp;
      } else {
        const uint32_t nw = scalarLayout_->nwords[static_cast<size_t>(in)];
        for (uint64_t t = cmp; t != 0; t &= t - 1) {
          const unsigned l = lowestLane(t);
          for (uint32_t wd = 0; wd < nw; wd++)
            if (vals_[off + wd * stride_ + l] != prevInputs_[off + wd * stride_ + l]) {
              diff |= laneBit(l);
              break;
            }
        }
      }
      if (diff != 0) wakeMask(sched_.inputConsumers[i], diff);
    }
    const uint32_t nw =
        packed ? 1 : scalarLayout_->nwords[static_cast<size_t>(in)] * stride_;
    for (uint32_t wd = 0; wd < nw; wd++) prevInputs_[off + wd] = vals_[off + wd];
  }
  freshMask_ = 0;
}

std::string LaneEngine::laneFormatPrintf(const sim::PrintInfo& p, unsigned l) const {
  // Per-lane mirror of sim::formatPrintf over the lane arena.
  std::string out;
  size_t argIdx = 0;
  for (size_t i = 0; i < p.format.size(); i++) {
    char ch = p.format[i];
    if (ch != '%' || i + 1 >= p.format.size()) {
      out += ch;
      continue;
    }
    char f = p.format[++i];
    if (f == '%') {
      out += '%';
      continue;
    }
    if (argIdx >= p.args.size()) {
      out += '%';
      out += f;
      continue;
    }
    int32_t sig = p.args[argIdx++];
    BitVec v = laneLoadBV(sig, l);
    bool sgn = ir_->signals[static_cast<size_t>(sig)].isSigned;
    switch (f) {
      case 'd':
        out += sgn ? v.toSignedDecString() : v.toDecString();
        break;
      case 'x':
        out += v.toHexString();
        break;
      case 'b':
        out += v.toBinString();
        break;
      case 'c':
        out += static_cast<char>(v.toU64() & 0xff);
        break;
      default:
        out += '%';
        out += f;
        break;
    }
  }
  return out;
}

void LaneEngine::finishCycle() {
  // 3. Side effects from stale-but-correct enables, per live lane.
  for (const auto& p : ir_->prints)
    for (uint64_t t = liveMask_; t != 0; t &= t - 1) {
      const unsigned l = lowestLane(t);
      if (laneSigWord0(p.en, l) != 0) views_[l]->printBuf_ += laneFormatPrintf(p, l);
    }
  for (const auto& s : ir_->stops)
    for (uint64_t t = liveMask_; t != 0; t &= t - 1) {
      const unsigned l = lowestLane(t);
      if (laneSigWord0(s.en, l) != 0 && !views_[l]->stopped_) {
        views_[l]->stopped_ = true;
        views_[l]->exitCode_ = s.exitCode;
      }
    }
  for (const auto& a : ir_->asserts)
    for (uint64_t t = liveMask_; t != 0; t &= t - 1) {
      const unsigned l = lowestLane(t);
      if (laneSigWord0(a.en, l) != 0 && laneSigWord0(a.pred, l) == 0 &&
          !views_[l]->stopped_) {
        views_[l]->printBuf_ += "assertion failed: " + a.message + "\n";
        views_[l]->stopped_ = true;
        views_[l]->exitCode_ = 65;
      }
    }

  // 4. Phase 2: non-elided state elements, masked to live lanes.
  for (const auto& rw : sched_.deferredRegs) applyRegWrite(rw, liveMask_);
  for (const auto& mw : sched_.deferredMemWrites) applyMemWrite(mw, liveMask_);

  // Cycle accounting, then retire lanes that stopped THIS tick — the
  // stopping cycle completes in full (matching a solo run's final tick),
  // after which the lane's state freezes.
  uint64_t stoppedNow = 0;
  for (uint64_t t = liveMask_; t != 0; t &= t - 1) {
    const unsigned l = lowestLane(t);
    views_[l]->stats_.cycles++;
    if (views_[l]->stopped_) stoppedNow |= laneBit(l);
  }
  for (uint64_t t = stoppedNow; t != 0; t &= t - 1) freezeLane(lowestLane(t));
  liveMask_ &= ~stoppedNow;
}

void LaneEngine::tick() {
  obs::TraceSpan span("lane.tick", obs::trace_detail::inPooledWork()
                                       ? obs::TraceCat::None
                                       : obs::TraceCat::Busy,
                      obs::TraceDetail::Wave, "cycle", groupTicks_);
  sweepInputs();

  // 2. Partition sweep: a partition executes when ANY live lane has a
  //    pending wake; the union mask rides through the run so commits and
  //    counters stay per-lane exact.
  const size_t nparts = sched_.parts.size();
  addMasked(accChecks_, liveMask_, nparts);
  for (size_t pos = 0; pos < nparts; pos++) {
    const uint64_t m = activeMask_[pos] & liveMask_;
    activeMask_[pos] &= ~m;  // deactivate consumed lanes first (Figure 1)
    if (m == 0) {
      groupPartitionSkips_++;
      continue;
    }
    runPartition(pos, sched_.parts[pos], m);
  }

  finishCycle();
  flushLaneStats();
  groupTicks_++;
}

void LaneEngine::flushLaneStats() {
  for (unsigned l = 0; l < lanes_; l++) {
    sim::EngineStats& st = views_[l]->stats_;
    st.partitionChecks += accChecks_[l];
    st.partitionActivations += accActs_[l];
    st.opsEvaluated += accOps_[l];
    st.outputComparisons += accCmps_[l];
    st.triggerSets += accTrigs_[l];
    accChecks_[l] = accActs_[l] = accOps_[l] = accCmps_[l] = accTrigs_[l] = 0;
  }
}

double LaneEngine::laneEffectiveActivity(unsigned l) const {
  const sim::EngineStats& st = views_.at(l)->stats_;
  const uint64_t total = static_cast<uint64_t>(ir_->ops.size()) * st.cycles;
  return total == 0 ? 0.0 : static_cast<double>(st.opsEvaluated) / static_cast<double>(total);
}

// --- per-lane lifecycle ----------------------------------------------------

void LaneEngine::pokeLane(int32_t sig, unsigned l, uint64_t value) {
  const uint32_t w = ir_->signals[static_cast<size_t>(sig)].width;
  const uint32_t off = prog_->layout.off[static_cast<size_t>(sig)];
  if (prog_->layout.isPacked(sig)) {
    storeLaneWord(off, true, l, value & maskW(w));
    syncFrozenSig(l, sig);
    return;
  }
  vals_[off + l] = value & maskW(w);
  for (uint32_t i = 1; i < scalarLayout_->nwords[static_cast<size_t>(sig)]; i++)
    vals_[off + i * stride_ + l] = 0;
  syncFrozenSig(l, sig);
}

void LaneEngine::pokeMemLane(size_t mem, unsigned l, uint64_t addr, uint64_t value) {
  const uint32_t rw = memRowWords_[mem];
  memWords_[mem][(addr * rw) * stride_ + l] =
      value & maskW(std::min(ir_->mems[mem].width, 64u));
  for (uint32_t i = 1; i < rw; i++) memWords_[mem][(addr * rw + i) * stride_ + l] = 0;
}

uint64_t LaneEngine::peekMemLane(size_t mem, unsigned l, uint64_t addr) const {
  return memWords_[mem][(addr * memRowWords_[mem]) * stride_ + l];
}

void LaneEngine::rearmLane(unsigned l) {
  const uint64_t bit = laneBit(l);
  for (auto& m : activeMask_) m |= bit;
  freshMask_ |= bit;
}

void LaneEngine::freezeLane(unsigned l) {
  if (!frozenVals_[l].empty()) return;
  std::vector<uint64_t>& f = frozenVals_[l];
  f.assign(scalarLayout_->totalWords, 0);
  for (size_t sig = 0; sig < ir_->signals.size(); sig++) {
    const uint32_t so = scalarLayout_->offset[sig];
    const uint32_t lo = prog_->layout.off[sig];
    if (prog_->layout.packed[sig] != 0) {
      f[so] = (vals_[lo] >> l) & 1;
    } else {
      for (uint32_t i = 0; i < scalarLayout_->nwords[sig]; i++)
        f[so + i] = vals_[lo + i * stride_ + l];
    }
  }
}

void LaneEngine::syncFrozenSig(unsigned l, int32_t sig) {
  if (frozenVals_[l].empty()) return;
  const size_t s = static_cast<size_t>(sig);
  const uint32_t so = scalarLayout_->offset[s];
  const uint32_t lo = prog_->layout.off[s];
  if (prog_->layout.packed[s] != 0) {
    frozenVals_[l][so] = (vals_[lo] >> l) & 1;
  } else {
    for (uint32_t i = 0; i < scalarLayout_->nwords[s]; i++)
      frozenVals_[l][so + i] = vals_[lo + i * stride_ + l];
  }
}

void LaneEngine::retireLane(unsigned l) {
  if (!laneLive(l)) return;
  freezeLane(l);
  liveMask_ &= ~laneBit(l);
}

void LaneEngine::randomizeLane(unsigned l, uint64_t seed) {
  // Replays the scalar randomizeState (seed, slot) sequence into this
  // lane's slice, so a lane randomization matches any scalar engine's.
  uint64_t slot = 0;
  for (const RegInfo& r : ir_->regs) {
    const uint32_t w = ir_->signals[static_cast<size_t>(r.sig)].width;
    const uint32_t nw = scalarLayout_->nwords[static_cast<size_t>(r.sig)];
    const uint32_t off = prog_->layout.off[static_cast<size_t>(r.sig)];
    if (prog_->layout.isPacked(r.sig)) {
      uint64_t v = sim::stateRandomDraw(seed, slot++);  // nw == 1 for width <= 1
      if (w % 64 != 0) v &= BitVec::topWordMask(w);
      if (w == 0) v = 0;
      storeLaneWord(off, true, l, v);
    } else {
      for (uint32_t i = 0; i < nw; i++)
        vals_[off + i * stride_ + l] = sim::stateRandomDraw(seed, slot++);
      if (w % 64 != 0) vals_[off + (nw - 1) * stride_ + l] &= BitVec::topWordMask(w);
      if (w == 0) vals_[off + l] = 0;
    }
  }
  for (size_t m = 0; m < ir_->mems.size(); m++) {
    const uint32_t w = ir_->mems[m].width;
    const uint32_t rw = memRowWords_[m];
    for (uint64_t row = 0; row < ir_->mems[m].depth; row++) {
      for (uint32_t i = 0; i < rw; i++)
        memWords_[m][(row * rw + i) * stride_ + l] = sim::stateRandomDraw(seed, slot++);
      if (w % 64 != 0)
        memWords_[m][(row * rw + rw - 1) * stride_ + l] &= BitVec::topWordMask(w);
    }
  }
  rearmLane(l);
}

sim::Engine::Snapshot LaneEngine::saveLane(unsigned l) const {
  // Gathered into the SCALAR layout: snapshots are interchangeable with
  // every other engine kind over the same design.
  sim::Engine::Snapshot s;
  if (!frozenVals_[l].empty()) {
    s.vals = frozenVals_[l];
  } else {
    s.vals.assign(scalarLayout_->totalWords, 0);
    for (size_t sig = 0; sig < ir_->signals.size(); sig++) {
      const uint32_t so = scalarLayout_->offset[sig];
      const uint32_t lo = prog_->layout.off[sig];
      if (prog_->layout.packed[sig] != 0) {
        s.vals[so] = (vals_[lo] >> l) & 1;
      } else {
        for (uint32_t i = 0; i < scalarLayout_->nwords[sig]; i++)
          s.vals[so + i] = vals_[lo + i * stride_ + l];
      }
    }
  }
  s.memWords.resize(ir_->mems.size());
  for (size_t m = 0; m < ir_->mems.size(); m++) {
    s.memWords[m].resize(memWords_[m].size() / stride_);
    for (size_t wI = 0; wI < s.memWords[m].size(); wI++)
      s.memWords[m][wI] = memWords_[m][wI * stride_ + l];
  }
  s.stopped = views_[l]->stopped_;
  s.exitCode = views_[l]->exitCode_;
  return s;
}

void LaneEngine::restoreLane(unsigned l, const sim::Engine::Snapshot& snapshot) {
  if (snapshot.vals.size() != scalarLayout_->totalWords ||
      snapshot.memWords.size() != ir_->mems.size())
    throw std::invalid_argument("snapshot does not match this engine's design");
  for (size_t sig = 0; sig < ir_->signals.size(); sig++) {
    const uint32_t so = scalarLayout_->offset[sig];
    const uint32_t lo = prog_->layout.off[sig];
    if (prog_->layout.packed[sig] != 0) {
      storeLaneWord(lo, true, l, snapshot.vals[so]);
    } else {
      for (uint32_t i = 0; i < scalarLayout_->nwords[sig]; i++)
        vals_[lo + i * stride_ + l] = snapshot.vals[so + i];
    }
  }
  for (size_t m = 0; m < ir_->mems.size(); m++)
    for (size_t wI = 0; wI < snapshot.memWords[m].size(); wI++)
      memWords_[m][wI * stride_ + l] = snapshot.memWords[m][wI];
  views_[l]->stopped_ = snapshot.stopped;
  views_[l]->exitCode_ = snapshot.exitCode;
  rearmLane(l);
  frozenVals_[l].clear();
  if (snapshot.stopped) {
    freezeLane(l);
    liveMask_ &= ~laneBit(l);
  } else {
    liveMask_ |= laneBit(l);
  }
}

void LaneEngine::resetLaneState(unsigned l) {
  for (size_t sig = 0; sig < ir_->signals.size(); sig++) {
    const uint32_t lo = prog_->layout.off[sig];
    if (prog_->layout.packed[sig] != 0) {
      vals_[lo] &= ~laneBit(l);
    } else {
      for (uint32_t i = 0; i < scalarLayout_->nwords[sig]; i++)
        vals_[lo + i * stride_ + l] = 0;
    }
  }
  for (size_t m = 0; m < ir_->mems.size(); m++)
    for (size_t wI = 0; wI < memWords_[m].size() / stride_; wI++)
      memWords_[m][wI * stride_ + l] = 0;
  for (const auto& lop : prog_->ops)
    if (lop.kernel == LaneKernel::ConstOp) evalConstLane(lop, l);
  rearmLane(l);
  frozenVals_[l].clear();
  liveMask_ |= laneBit(l);
}

// ---------------------------------------------------------------------------
// LaneBroadcastEngine

LaneBroadcastEngine::LaneBroadcastEngine(std::shared_ptr<const CompiledCcss> ccss,
                                         unsigned lanes)
    : Engine(ccss->design, ViewTag{}), group_(std::move(ccss), lanes) {}

void LaneBroadcastEngine::syncFromLane0() {
  sim::Engine& l0 = group_.lane(0);
  stats_ = l0.stats();
  stopped_ = l0.stopped();
  exitCode_ = l0.exitCode();
  if (printBuf_.size() != l0.printOutput().size()) printBuf_ = l0.printOutput();
}

void LaneBroadcastEngine::tick() {
  group_.tick();
  syncFromLane0();
}

void LaneBroadcastEngine::poke(const std::string& name, uint64_t value) {
  for (unsigned l = 0; l < group_.lanes(); l++) group_.lane(l).poke(name, value);
}

void LaneBroadcastEngine::pokeBV(const std::string& name, const BitVec& value) {
  for (unsigned l = 0; l < group_.lanes(); l++) group_.lane(l).pokeBV(name, value);
}

uint64_t LaneBroadcastEngine::peek(const std::string& name) const {
  return group_.lane(0).peek(name);
}

BitVec LaneBroadcastEngine::peekBV(const std::string& name) const {
  return group_.lane(0).peekBV(name);
}

uint64_t LaneBroadcastEngine::peekSig(int32_t sig) const { return group_.lane(0).peekSig(sig); }

BitVec LaneBroadcastEngine::peekSigBV(int32_t sig) const {
  return group_.lane(0).peekSigBV(sig);
}

void LaneBroadcastEngine::pokeMem(const std::string& memName, uint64_t addr, uint64_t value) {
  for (unsigned l = 0; l < group_.lanes(); l++) group_.lane(l).pokeMem(memName, addr, value);
}

uint64_t LaneBroadcastEngine::peekMem(const std::string& memName, uint64_t addr) const {
  return group_.lane(0).peekMem(memName, addr);
}

void LaneBroadcastEngine::resetState() {
  for (unsigned l = 0; l < group_.lanes(); l++) group_.lane(l).resetState();
  stats_.resetCounters();
  stopped_ = false;
  exitCode_ = 0;
  printBuf_.clear();
}

void LaneBroadcastEngine::randomizeState(uint64_t seed) {
  for (unsigned l = 0; l < group_.lanes(); l++) group_.lane(l).randomizeState(seed);
  syncFromLane0();
}

sim::Engine::Snapshot LaneBroadcastEngine::saveState() const {
  return group_.lane(0).saveState();
}

void LaneBroadcastEngine::restoreState(const Snapshot& snapshot) {
  for (unsigned l = 0; l < group_.lanes(); l++) group_.lane(l).restoreState(snapshot);
  syncFromLane0();
}

}  // namespace essent::core
