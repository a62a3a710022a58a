#include "sim/builder.h"

#include <functional>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "firrtl/parser.h"
#include "firrtl/passes.h"
#include "firrtl/widths.h"
#include "graph/graph.h"
#include "obs/phase_timer.h"
#include "support/bvops.h"
#include "support/strutil.h"

namespace essent::sim {

namespace {

using firrtl::Expr;
using firrtl::ExprKind;
using firrtl::PrimOpKind;
using firrtl::Stmt;
using firrtl::StmtKind;
using firrtl::TypeKind;

OpCode primToOpCode(PrimOpKind k) {
  using P = PrimOpKind;
  switch (k) {
    case P::Add: return OpCode::Add;
    case P::Sub: return OpCode::Sub;
    case P::Mul: return OpCode::Mul;
    case P::Div: return OpCode::Div;
    case P::Rem: return OpCode::Rem;
    case P::Lt: return OpCode::Lt;
    case P::Leq: return OpCode::Leq;
    case P::Gt: return OpCode::Gt;
    case P::Geq: return OpCode::Geq;
    case P::Eq: return OpCode::Eq;
    case P::Neq: return OpCode::Neq;
    case P::Pad: return OpCode::Pad;
    case P::AsUInt: return OpCode::Copy;
    case P::AsSInt: return OpCode::Copy;
    case P::Shl: return OpCode::Shl;
    case P::Shr: return OpCode::Shr;
    case P::Dshl: return OpCode::Dshl;
    case P::Dshr: return OpCode::Dshr;
    case P::Cvt: return OpCode::Cvt;
    case P::Neg: return OpCode::Neg;
    case P::Not: return OpCode::Not;
    case P::And: return OpCode::And;
    case P::Or: return OpCode::Or;
    case P::Xor: return OpCode::Xor;
    case P::Andr: return OpCode::Andr;
    case P::Orr: return OpCode::Orr;
    case P::Xorr: return OpCode::Xorr;
    case P::Cat: return OpCode::Cat;
    case P::Bits: return OpCode::Bits;
    case P::Head: return OpCode::Head;
    case P::Tail: return OpCode::Tail;
    default:
      throw BuildError(std::string("unsupported primop in simulation: ") +
                       firrtl::primOpName(k));
  }
}

class Builder {
 public:
  Builder(const firrtl::Module& mod, const BuildOptions& opts) : mod_(mod), opts_(opts) {}

  SimIR run() {
    ir_.name = mod_.name;
    declarePorts();
    declareBody(mod_.body);
    buildBody(mod_.body);
    buildMemReads();
    checkDriven();
    topoSortOps();
    if (opts_.constProp) constantPropagate(ir_);
    if (opts_.cse) eliminateCommonSubexprs(ir_);
    if (opts_.dce) deadCodeEliminate(ir_);
    ir_.validate();
    return std::move(ir_);
  }

 private:
  const firrtl::Module& mod_;
  BuildOptions opts_;
  SimIR ir_;
  std::unordered_set<std::string> clockNames_;
  // Register name -> pending reset info (built during connects).
  struct PendingReg {
    firrtl::Type type;
    const Stmt* stmt;
    bool connected = false;
  };
  std::map<std::string, PendingReg> pendingRegs_;
  std::unordered_map<std::string, size_t> memByName_;
  std::unordered_set<std::string> memReadDataNames_;
  std::unordered_map<std::string, int32_t> constIntern_;

  int32_t newSignal(std::string name, uint32_t width, bool isSigned, SigKind kind) {
    Signal s;
    s.name = std::move(name);
    s.width = width;
    s.isSigned = isSigned;
    s.kind = kind;
    ir_.signals.push_back(std::move(s));
    int32_t id = static_cast<int32_t>(ir_.signals.size()) - 1;
    ir_.indexSignalName(id);
    return id;
  }

  int32_t newTemp(uint32_t width, bool isSigned) {
    return newSignal("", width, isSigned, SigKind::Temp);
  }

  Op& addOp(OpCode code, int32_t dest) {
    Op op;
    op.code = code;
    op.dest = dest;
    ir_.ops.push_back(op);
    ir_.signals[static_cast<size_t>(dest)].defOp = static_cast<int32_t>(ir_.ops.size()) - 1;
    return ir_.ops.back();
  }

  int32_t lookup(const std::string& name) {
    int32_t id = ir_.findSignal(name);
    if (id < 0) {
      if (clockNames_.count(name))
        throw BuildError("clock '" + name + "' used where a value is required");
      throw BuildError("reference to unknown signal '" + name + "'");
    }
    return id;
  }

  bool isClockType(const firrtl::Type& t) const { return t.kind == TypeKind::Clock; }

  // --- declaration pass ---

  void declarePorts() {
    for (const auto& p : mod_.ports) {
      if (isClockType(p.type)) {
        clockNames_.insert(p.name);
        continue;
      }
      SigKind k = p.dir == firrtl::PortDir::Input ? SigKind::Input : SigKind::Output;
      int32_t id = newSignal(p.name, p.type.simWidth(), p.type.isSigned(), k);
      if (k == SigKind::Input) ir_.inputs.push_back(id);
      else ir_.outputs.push_back(id);
    }
  }

  void declareBody(const std::vector<firrtl::StmtPtr>& body) {
    for (const auto& s : body) {
      switch (s->kind) {
        case StmtKind::Wire:
          if (isClockType(s->type)) clockNames_.insert(s->name);
          else newSignal(s->name, s->type.simWidth(), s->type.isSigned(), SigKind::Node);
          break;
        case StmtKind::Node:
          if (s->expr->type.kind == TypeKind::Clock) clockNames_.insert(s->name);
          else newSignal(s->name, s->expr->type.simWidth(), s->expr->type.isSigned(),
                         SigKind::Node);
          break;
        case StmtKind::Reg: {
          newSignal(s->name, s->type.simWidth(), s->type.isSigned(), SigKind::Register);
          pendingRegs_[s->name] = PendingReg{s->type, s.get(), false};
          break;
        }
        case StmtKind::Mem:
          declareMem(*s);
          break;
        case StmtKind::When:
          throw BuildError("when statement present; run expandWhens first");
        case StmtKind::Inst:
          throw BuildError("instance present; run flattenInstances first");
        default:
          break;
      }
    }
  }

  void declareMem(const Stmt& s) {
    MemInfo m;
    m.name = s.name;
    m.width = s.type.simWidth();
    m.depth = s.depth;
    uint32_t aw = firrtl::memAddrWidth(s.depth);
    bool sgn = s.type.isSigned();
    for (const auto& r : s.readers) {
      MemReader rd;
      std::string base = s.name + "." + r.name;
      rd.addr = newSignal(base + ".addr", aw, false, SigKind::Node);
      rd.en = newSignal(base + ".en", 1, false, SigKind::Node);
      clockNames_.insert(base + ".clk");
      if (s.readLatency == 0) {
        rd.data = newSignal(base + ".data", m.width, sgn, SigKind::Node);
      } else {
        // Latency-1 read: the data port is a synthesized register whose next
        // value is the combinational read (sampled with old memory contents).
        rd.data = newSignal(base + ".data", m.width, sgn, SigKind::Register);
      }
      memReadDataNames_.insert(base + ".data");
      m.readers.push_back(rd);
    }
    for (const auto& w : s.writers) {
      MemWriter wr;
      std::string base = s.name + "." + w.name;
      wr.addr = newSignal(base + ".addr", aw, false, SigKind::Node);
      wr.en = newSignal(base + ".en", 1, false, SigKind::Node);
      wr.data = newSignal(base + ".data", m.width, sgn, SigKind::Node);
      wr.mask = newSignal(base + ".mask", 1, false, SigKind::Node);
      clockNames_.insert(base + ".clk");
      m.writers.push_back(wr);
    }
    memByName_[s.name] = ir_.mems.size();
    memLatency1_.push_back(s.readLatency == 1);
    ir_.mems.push_back(std::move(m));
  }

  std::vector<bool> memLatency1_;

  // --- op-building pass ---

  void buildBody(const std::vector<firrtl::StmtPtr>& body) {
    for (const auto& s : body) {
      switch (s->kind) {
        case StmtKind::Node: {
          if (clockNames_.count(s->name)) break;
          buildExprInto(*s->expr, lookup(s->name));
          break;
        }
        case StmtKind::Connect:
          buildConnect(*s);
          break;
        case StmtKind::Printf: {
          PrintInfo p;
          p.en = combSnapshot(buildExpr(*s->expr));
          p.format = s->format;
          for (const auto& a : s->printArgs) p.args.push_back(combSnapshot(buildExpr(*a)));
          ir_.prints.push_back(std::move(p));
          break;
        }
        case StmtKind::Stop: {
          StopInfo st;
          st.en = combSnapshot(buildExpr(*s->expr));
          st.exitCode = s->exitCode;
          ir_.stops.push_back(st);
          break;
        }
        case StmtKind::Assert: {
          AssertInfo ai;
          ai.pred = combSnapshot(buildExpr(*s->pred));
          ai.en = combSnapshot(buildExpr(*s->expr));
          ai.message = s->format;
          ir_.asserts.push_back(std::move(ai));
          break;
        }
        default:
          break;
      }
    }
    // Registers never connected hold their value (next = current).
    for (auto& [name, pr] : pendingRegs_) {
      if (!pr.connected) finishRegister(name, pr, lookup(name));
    }
  }

  void buildConnect(const Stmt& s) {
    if (clockNames_.count(s.name)) return;  // clock wiring is implicit
    auto regIt = pendingRegs_.find(s.name);
    if (regIt != pendingRegs_.end() && !regIt->second.connected) {
      int32_t rhs = buildExpr(*s.expr);
      finishRegister(s.name, regIt->second, rhs);
      return;
    }
    // Illegal connect targets are rejected here rather than left for the IR
    // validator, which would report them as internal invariant violations.
    int32_t dest = lookup(s.name);
    const Signal& dsig = ir_.signals[static_cast<size_t>(dest)];
    if (dsig.kind == SigKind::Input)
      throw BuildError("cannot connect to input port '" + s.name + "'");
    if (memReadDataNames_.count(s.name))
      throw BuildError("cannot connect to memory read port '" + s.name + "'");
    if (dsig.kind == SigKind::Register)
      throw BuildError("register '" + s.name + "' is driven more than once");
    if (dsig.defOp >= 0)
      throw BuildError("'" + s.name + "' is driven more than once");
    buildExprInto(*s.expr, dest);
  }

  // Folds the reset mux and records RegInfo. `rhs` is the raw next value.
  void finishRegister(const std::string& name, PendingReg& pr, int32_t rhs) {
    int32_t regSig = lookup(name);
    const Stmt* st = pr.stmt;
    int32_t nextVal = rhs;
    if (st->resetCond) {
      // Every engine samples reset at the clock edge, so an asynchronous
      // reset would simulate as a synchronous one, the same wrong way in
      // all of them. Refuse it instead.
      if (st->resetCond->type.kind == TypeKind::AsyncReset)
        throw BuildError("register '" + name +
                         "' has an asynchronous reset, which is not supported");
      int32_t cond = buildExpr(*st->resetCond);
      int32_t init = buildExpr(*st->resetInit);
      uint32_t w = ir_.signals[regSig].width;
      bool sgn = ir_.signals[regSig].isSigned;
      // Reset arms must match the register width for the mux.
      int32_t initAdj = copyTo(init, w, sgn);
      int32_t rhsAdj = copyTo(rhs, w, sgn);
      int32_t muxSig = newTemp(w, sgn);
      Op& op = addOp(OpCode::Mux, muxSig);
      op.args[0] = cond;
      op.args[1] = initAdj;
      op.args[2] = rhsAdj;
      op.signedOp = sgn;
      nextVal = muxSig;
    } else {
      nextVal = copyTo(rhs, ir_.signals[regSig].width, ir_.signals[regSig].isSigned);
      // A register loaded straight from another register (a shift chain, a
      // swap) reads it through a Copy, for the reason combSnapshot gives:
      // engines write registers one at a time, and a write that read a
      // register signal directly could see that register's new value.
      if (ir_.signals[static_cast<size_t>(nextVal)].kind == SigKind::Register)
        nextVal = combSnapshot(nextVal);
    }
    ir_.regs.push_back(RegInfo{regSig, nextVal});
    pr.connected = true;
  }

  // printf/stop side effects fire after the partition sweep in the CCSS
  // engine, by which time in-place (elided) register and memory updates have
  // already landed. Their enables and arguments therefore must never read a
  // state signal directly: this wraps state-produced values in a Copy op —
  // a combinational node whose partition the elision ordering edges force
  // before the state writer, so the fired value is the pre-update one, in
  // every engine.
  int32_t combSnapshot(int32_t src) {
    if (ir_.signals[static_cast<size_t>(src)].defOp >= 0) return src;  // already comb
    int32_t t = newTemp(ir_.signals[static_cast<size_t>(src)].width,
                        ir_.signals[static_cast<size_t>(src)].isSigned);
    Op& op = addOp(OpCode::Copy, t);
    op.args[0] = src;
    op.signedOp = ir_.signals[static_cast<size_t>(src)].isSigned;
    return t;
  }

  // Returns src if it already has the wanted width; otherwise inserts a
  // width-adjusting Copy into a fresh temp.
  int32_t copyTo(int32_t src, uint32_t width, bool wantSigned) {
    if (ir_.signals[src].width == width) return src;
    int32_t t = newTemp(width, wantSigned);
    Op& op = addOp(OpCode::Copy, t);
    op.args[0] = src;
    op.signedOp = ir_.signals[src].isSigned;
    return t;
  }

  void buildMemReads() {
    for (size_t mi = 0; mi < ir_.mems.size(); mi++) {
      MemInfo& m = ir_.mems[mi];
      for (auto& rd : m.readers) {
        if (!memLatency1_[mi]) {
          Op& op = addOp(OpCode::MemRead, rd.data);
          op.args[0] = rd.addr;
          op.args[1] = rd.en;
          op.imm0 = static_cast<int64_t>(mi);
        } else {
          int32_t t = newTemp(m.width, ir_.signals[rd.data].isSigned);
          Op& op = addOp(OpCode::MemRead, t);
          op.args[0] = rd.addr;
          op.args[1] = rd.en;
          op.imm0 = static_cast<int64_t>(mi);
          ir_.regs.push_back(RegInfo{rd.data, t});
        }
      }
    }
  }

  int32_t internConst(const BitVec& v, uint32_t width, bool isSigned) {
    std::string key = strfmt("%u:%d:", width, isSigned ? 1 : 0) + v.toHexString();
    auto it = constIntern_.find(key);
    if (it != constIntern_.end()) return it->second;
    ir_.constPool.push_back(bvops::extend(v, false, width));
    int32_t sig = newTemp(width, isSigned);
    Op& op = addOp(OpCode::Const, sig);
    op.imm0 = static_cast<int64_t>(ir_.constPool.size()) - 1;
    constIntern_[key] = sig;
    return sig;
  }

  int32_t buildExpr(const Expr& e) {
    switch (e.kind) {
      case ExprKind::Ref:
        return lookup(e.name);
      case ExprKind::UIntLit:
        return internConst(e.value, e.litWidth, false);
      case ExprKind::SIntLit:
        return internConst(e.value, e.litWidth, true);
      case ExprKind::Mux: {
        int32_t sel = buildExpr(*e.args[0]);
        int32_t tv = buildExpr(*e.args[1]);
        int32_t fv = buildExpr(*e.args[2]);
        int32_t dest = newTemp(e.type.simWidth(), e.type.isSigned());
        Op& op = addOp(OpCode::Mux, dest);
        op.args[0] = sel;
        op.args[1] = tv;
        op.args[2] = fv;
        op.signedOp = e.type.isSigned();
        return dest;
      }
      case ExprKind::ValidIf:
        // Deterministic choice: validif evaluates to its value (the paper's
        // generator makes the same choice); the condition is dropped and its
        // cone reclaimed by DCE when otherwise unused.
        return buildExpr(*e.args[1]);
      case ExprKind::Prim:
        break;
    }
    OpCode code = primToOpCode(e.op);
    std::vector<int32_t> argIds;
    for (const auto& a : e.args) argIds.push_back(buildExpr(*a));
    int32_t dest = newTemp(e.type.simWidth(), e.type.isSigned());
    Op& op = addOp(code, dest);
    for (size_t k = 0; k < argIds.size(); k++) op.args[k] = argIds[k];
    if (!e.consts.empty()) op.imm0 = e.consts[0];
    if (e.consts.size() > 1) op.imm1 = e.consts[1];
    // Operand signedness drives semantics; for casts it is the source's.
    bool argSigned = !e.args.empty() && e.args[0]->type.isSigned();
    op.signedOp = argSigned;
    return dest;
  }

  void buildExprInto(const Expr& e, int32_t dest) {
    int32_t src = buildExpr(e);
    Op& op = addOp(OpCode::Copy, dest);
    op.args[0] = src;
    op.signedOp = ir_.signals[src].isSigned;
  }

  // Every signal an op, register next-value, or memory port reads must be
  // produced by something: an input, a register, or an op. A read of a
  // never-driven wire or output (legal to write in a malformed .fir) would
  // otherwise surface much later as an IR-validator internal invariant
  // violation instead of a front-end error.
  void checkDriven() const {
    auto require = [&](int32_t sig) {
      const Signal& sg = ir_.signals[static_cast<size_t>(sig)];
      if (sg.kind == SigKind::Input || sg.kind == SigKind::Register || sg.defOp >= 0) return;
      throw BuildError("signal '" + sg.name + "' is read but never driven");
    };
    for (const Op& op : ir_.ops)
      for (int k = 0, n = op.numArgs(); k < n; k++) require(op.args[k]);
    for (const RegInfo& r : ir_.regs) require(r.next);
    for (const MemInfo& m : ir_.mems)
      for (const MemWriter& w : m.writers) {
        require(w.addr);
        require(w.en);
        require(w.data);
        require(w.mask);
      }
  }

  void topoSortOps() {
    size_t n = ir_.ops.size();
    // Dependency graph: op i depends on defOp(arg) for each arg.
    graph::DiGraph og(static_cast<graph::NodeId>(n));
    for (size_t i = 0; i < n; i++) {
      const Op& op = ir_.ops[i];
      int na = op.numArgs();
      for (int k = 0; k < na; k++) {
        int32_t d = ir_.signals[op.args[k]].defOp;
        if (d >= 0) og.addEdge(d, static_cast<graph::NodeId>(i));
      }
    }
    int32_t numSccs = 0;
    auto sccOf = graph::tarjanScc(og, &numSccs);
    std::vector<int> sccSize(static_cast<size_t>(numSccs), 0);
    for (int32_t s : sccOf) sccSize[static_cast<size_t>(s)]++;
    bool hasLoops = false;
    for (int c : sccSize) hasLoops |= c >= 2;

    if (hasLoops && !opts_.allowCombLoops) {
      // Report each strongly connected component by its named signals (the
      // paper assumes designs are acyclic after state splitting — §II — so
      // a combinational SCC is a design error worth a precise diagnosis).
      std::string report;
      int reported = 0;
      for (int32_t scc = 0; scc < numSccs && reported < 3; scc++) {
        if (sccSize[static_cast<size_t>(scc)] < 2) continue;
        reported++;
        report += strfmt("\n  cycle %d (%d ops):", reported, sccSize[static_cast<size_t>(scc)]);
        int listed = 0;
        for (size_t i = 0; i < n && listed < 8; i++) {
          if (sccOf[i] != scc) continue;
          const std::string& nm = ir_.signals[ir_.ops[i].dest].name;
          if (!nm.empty()) {
            report += " " + nm;
            listed++;
          }
        }
      }
      throw BuildError("combinational cycle(s) detected; break them with a register, merge "
                       "manually, or build with allowCombLoops to iterate supernodes to "
                       "convergence:" + report);
    }

    // Tarjan assigns SCC ids in reverse topological order of the
    // condensation (an SCC's id is >= those it can reach), so descending id
    // order is a valid schedule with each SCC's members contiguous.
    std::vector<std::vector<int32_t>> byScc(static_cast<size_t>(numSccs));
    for (size_t i = 0; i < n; i++) byScc[static_cast<size_t>(sccOf[i])].push_back(static_cast<int32_t>(i));
    std::vector<Op> sorted;
    sorted.reserve(n);
    ir_.opSuper.clear();
    ir_.supers.clear();
    for (int32_t scc = numSccs; scc-- > 0;) {
      const auto& members = byScc[static_cast<size_t>(scc)];
      int32_t superId = -1;
      if (members.size() >= 2) {
        superId = static_cast<int32_t>(ir_.supers.size());
        ir_.supers.emplace_back();
      }
      for (int32_t idx : members) {
        if (superId >= 0) ir_.supers.back().push_back(static_cast<int32_t>(sorted.size()));
        sorted.push_back(ir_.ops[static_cast<size_t>(idx)]);
        ir_.opSuper.push_back(superId);
      }
    }
    if (!hasLoops) ir_.opSuper.clear();
    ir_.ops = std::move(sorted);
    for (size_t i = 0; i < ir_.ops.size(); i++)
      ir_.signals[ir_.ops[i].dest].defOp = static_cast<int32_t>(i);
  }
};

}  // namespace

SimIR buildSimIR(const firrtl::Module& lowered, const BuildOptions& opts) {
  obs::ScopedPhaseTimer timer("build-ir");
  Builder b(lowered, opts);
  return b.run();
}

SimIR buildFromFirrtl(const std::string& firrtlText, const BuildOptions& opts) {
  std::unique_ptr<firrtl::Circuit> circuit;
  {
    obs::ScopedPhaseTimer timer("parse");
    circuit = firrtl::parseCircuit(firrtlText);
  }
  std::unique_ptr<firrtl::Module> lowered;
  {
    obs::ScopedPhaseTimer timer("lower");
    lowered = firrtl::lowerCircuit(*circuit);
  }
  return buildSimIR(*lowered, opts);
}

namespace {

uint64_t satAdd(uint64_t a, uint64_t b) {
  uint64_t s = a + b;
  return s < a ? UINT64_MAX : s;
}

uint64_t satMul(uint64_t a, uint64_t b) {
  if (a == 0 || b == 0) return 0;
  if (a > UINT64_MAX / b) return UINT64_MAX;
  return a * b;
}

// Ground leaves a declaration of this type expands to during lowering.
uint64_t typeScalarCount(const firrtl::Type& t) {
  switch (t.kind) {
    case TypeKind::Bundle: {
      uint64_t total = 0;
      for (const auto& f : *t.fields) total = satAdd(total, typeScalarCount(f.type));
      return total;
    }
    case TypeKind::Vector:
      return satMul(t.size, typeScalarCount(*t.elem));
    default:
      return 1;
  }
}

struct AstCost {
  uint64_t decls = 0;     // scalar declarations/connects after lowering
  uint64_t memBytes = 0;  // memory state bytes
};

void accumulateStmts(const std::vector<firrtl::StmtPtr>& body,
                     const std::function<uint64_t(const std::string&)>& instCost, AstCost& c) {
  for (const auto& s : body) {
    switch (s->kind) {
      case StmtKind::Wire:
      case StmtKind::Reg:
        c.decls = satAdd(c.decls, typeScalarCount(s->type));
        break;
      case StmtKind::Node:
      case StmtKind::Connect:
      case StmtKind::Invalidate:
        c.decls = satAdd(c.decls, 1);
        break;
      case StmtKind::Mem: {
        uint64_t rowBytes = (static_cast<uint64_t>(s->type.simWidth()) + 7) / 8;
        c.memBytes = satAdd(c.memBytes, satMul(s->depth, rowBytes == 0 ? 1 : rowBytes));
        c.decls = satAdd(c.decls, satMul(5, s->readers.size() + s->writers.size()) + 1);
        break;
      }
      case StmtKind::Inst:
        c.decls = satAdd(c.decls, instCost(s->moduleName));
        break;
      case StmtKind::When:
        accumulateStmts(s->thenBody, instCost, c);
        accumulateStmts(s->elseBody, instCost, c);
        break;
      default:
        break;
    }
  }
}

// Post-lowering footprint estimated from the AST, with instance fan-out
// multiplied through the hierarchy (a k-wide chain of depth d costs k^d —
// the classic blow-up a crafted input uses, and exactly what must be
// refused before flattenInstances materializes it). Instance cycles are
// flattenInstances' problem; they count as a single unit here.
void checkCircuitResources(const firrtl::Circuit& circuit, const support::ResourceGuard& guard) {
  std::unordered_map<std::string, AstCost> memo;
  std::unordered_set<std::string> inProgress;
  std::function<AstCost(const firrtl::Module&)> costOf = [&](const firrtl::Module& m) -> AstCost {
    auto it = memo.find(m.name);
    if (it != memo.end()) return it->second;
    if (!inProgress.insert(m.name).second) return AstCost{1, 0};
    AstCost c;
    for (const auto& p : m.ports) c.decls = satAdd(c.decls, typeScalarCount(p.type));
    AstCost mem;  // aggregate child memBytes alongside decls
    auto instCost = [&](const std::string& name) -> uint64_t {
      const firrtl::Module* child = circuit.findModule(name);
      if (!child) return 1;
      AstCost cc = costOf(*child);
      mem.memBytes = satAdd(mem.memBytes, cc.memBytes);
      return cc.decls;
    };
    accumulateStmts(m.body, instCost, c);
    c.memBytes = satAdd(c.memBytes, mem.memBytes);
    inProgress.erase(m.name);
    memo[m.name] = c;
    return c;
  };
  const firrtl::Module* main = circuit.mainModule();
  if (!main) return;
  AstCost total = costOf(*main);
  guard.checkIrOps(total.decls);
  guard.checkSimMem(total.memBytes);
}

}  // namespace

uint64_t estimateStateBytes(const SimIR& ir) {
  uint64_t bytes = 0;
  for (const auto& s : ir.signals)
    bytes = satAdd(bytes, (static_cast<uint64_t>(s.width) + 7) / 8);
  for (const auto& m : ir.mems) {
    uint64_t rowBytes = (static_cast<uint64_t>(m.width) + 7) / 8;
    bytes = satAdd(bytes, satMul(m.depth, rowBytes == 0 ? 1 : rowBytes));
  }
  return bytes;
}

std::optional<SimIR> buildFromFirrtlDiag(const std::string& firrtlText, const BuildOptions& opts,
                                         diag::DiagEngine& de,
                                         const support::ResourceLimits& limits) {
  support::ResourceGuard guard(limits);
  std::unique_ptr<firrtl::Circuit> circuit;
  {
    obs::ScopedPhaseTimer timer("parse");
    circuit = firrtl::parseCircuit(firrtlText, de);
  }
  if (de.hasErrors()) return std::nullopt;

  try {
    checkCircuitResources(*circuit, guard);
  } catch (const support::ResourceExhausted& e) {
    de.error(e.code(), e.what(), {});
    return std::nullopt;
  }

  std::unique_ptr<firrtl::Module> lowered;
  try {
    obs::ScopedPhaseTimer timer("lower");
    // lowerCircuit's phases, but with diag-collecting width inference so
    // every width error in the module surfaces in this one pass.
    firrtl::Circuit copy;
    copy.name = circuit->name;
    for (const auto& m : circuit->modules) {
      auto cm = std::make_unique<firrtl::Module>();
      cm->name = m->name;
      cm->ports = m->ports;
      for (const auto& s : m->body) cm->body.push_back(s->clone());
      copy.modules.push_back(std::move(cm));
    }
    firrtl::lowerAggregates(copy);
    lowered = firrtl::flattenInstances(copy);
    firrtl::expandWhens(*lowered);
    if (!firrtl::inferUnknownWidths(*lowered, de)) return std::nullopt;
    firrtl::inferModuleWidths(*lowered, de);
    if (de.hasErrors()) return std::nullopt;
  } catch (const firrtl::WidthError& e) {
    // Structural failures from the lowering passes themselves (unknown
    // module, instantiation cycle, aggregate misuse) fail as a unit.
    std::string msg = e.what();
    const std::string pfx = "firrtl width error: ";
    if (msg.rfind(pfx, 0) == 0) msg = msg.substr(pfx.size());
    de.error("E0305", msg, {});
    return std::nullopt;
  }

  try {
    SimIR ir = buildSimIR(*lowered, opts);
    guard.checkIrOps(ir.ops.size());
    guard.checkSimMem(estimateStateBytes(ir));
    guard.checkDeadline();
    return ir;
  } catch (const BuildError& e) {
    std::string msg = e.what();
    const std::string pfx = "sim build error: ";
    if (msg.rfind(pfx, 0) == 0) msg = msg.substr(pfx.size());
    de.error("E0401", msg, {});
    return std::nullopt;
  } catch (const support::ResourceExhausted& e) {
    de.error(e.code(), e.what(), {});
    return std::nullopt;
  }
}

}  // namespace essent::sim
