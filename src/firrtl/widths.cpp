#include "firrtl/widths.h"

#include <optional>

#include "support/bvops.h"
#include "support/strutil.h"

namespace essent::firrtl {

uint32_t memAddrWidth(uint64_t depth) {
  uint32_t w = 1;
  while ((uint64_t{1} << w) < depth) w++;
  return w;
}

void SymbolTable::define(const std::string& name, Type type) {
  if (!table_.emplace(name, type).second)
    throw WidthError("duplicate definition of '" + name + "'");
}

bool SymbolTable::tryDefine(const std::string& name, Type type) {
  return table_.emplace(name, type).second;
}

Type SymbolTable::lookup(const std::string& name) const {
  auto it = table_.find(name);
  if (it == table_.end()) throw WidthError("reference to undefined signal '" + name + "'");
  return it->second;
}

namespace {

void collectDecls(const std::vector<StmtPtr>& body, SymbolTable& st) {
  for (const auto& s : body) {
    switch (s->kind) {
      case StmtKind::Wire:
      case StmtKind::Reg:
        if (!s->type.isGround())
          throw WidthError("aggregate-typed '" + s->name + "' survived lowering; run "
                           "lowerAggregates first");
        st.define(s->name, s->type);
        break;
      case StmtKind::Node:
        // Node types are resolved during inference; placeholder defined later.
        break;
      case StmtKind::Mem: {
        uint32_t aw = memAddrWidth(s->depth);
        for (const auto& r : s->readers) {
          st.define(s->name + "." + r.name + ".addr", Type::uint_(aw));
          st.define(s->name + "." + r.name + ".en", Type::uint_(1));
          st.define(s->name + "." + r.name + ".clk", Type::clock());
          st.define(s->name + "." + r.name + ".data", s->type);
        }
        for (const auto& w : s->writers) {
          st.define(s->name + "." + w.name + ".addr", Type::uint_(aw));
          st.define(s->name + "." + w.name + ".en", Type::uint_(1));
          st.define(s->name + "." + w.name + ".clk", Type::clock());
          st.define(s->name + "." + w.name + ".data", s->type);
          st.define(s->name + "." + w.name + ".mask", Type::uint_(1));
        }
        break;
      }
      case StmtKind::Inst:
        throw WidthError("instance '" + s->name + "' present; run flattenInstances first");
      case StmtKind::When:
        collectDecls(s->thenBody, st);
        collectDecls(s->elseBody, st);
        break;
      default:
        break;
    }
  }
}

bool isIntLike(const Type& t) {
  return t.kind == TypeKind::UInt || t.kind == TypeKind::SInt ||
         t.kind == TypeKind::Reset || t.kind == TypeKind::AsyncReset;
}

// Reset/AsyncReset participate in logic as UInt<1>.
Type asIntType(const Type& t) {
  if (t.kind == TypeKind::Reset || t.kind == TypeKind::AsyncReset) return Type::uint_(1);
  return t;
}

void requireIntLike(const Type& t, const char* what) {
  if (!isIntLike(t)) throw WidthError(strfmt("%s must be an integer type, got %s", what, t.toString().c_str()));
}

void requireSameSign(const Type& a, const Type& b, const char* what) {
  if (a.isSigned() != b.isSigned())
    throw WidthError(strfmt("%s requires operands of matching signedness (%s vs %s)", what,
                            a.toString().c_str(), b.toString().c_str()));
}

diag::SourceSpan stmtSpan(const Stmt& s) {
  diag::SourceSpan sp;
  sp.line = s.line;
  sp.col = s.col;
  return sp;
}

// WidthError::what() prepends a fixed prefix; diagnostics carry their own
// severity/code, so strip it when re-reporting.
std::string stripWidthPrefix(const char* what) {
  std::string m = what;
  const std::string pfx = "firrtl width error: ";
  if (m.rfind(pfx, 0) == 0) m = m.substr(pfx.size());
  return m;
}

void collectDeclsDiag(const std::vector<StmtPtr>& body, SymbolTable& st, diag::DiagEngine& de) {
  for (const auto& s : body) {
    switch (s->kind) {
      case StmtKind::Wire:
      case StmtKind::Reg:
        if (!s->type.isGround()) {
          de.error("E0304",
                   "aggregate-typed '" + s->name + "' survived lowering; run lowerAggregates first",
                   stmtSpan(*s));
          break;
        }
        if (!st.tryDefine(s->name, s->type))
          de.error("E0301", "duplicate definition of '" + s->name + "'", stmtSpan(*s));
        break;
      case StmtKind::Node:
        break;
      case StmtKind::Mem: {
        uint32_t aw = memAddrWidth(s->depth);
        bool dup = false;
        for (const auto& r : s->readers) {
          dup |= !st.tryDefine(s->name + "." + r.name + ".addr", Type::uint_(aw));
          st.tryDefine(s->name + "." + r.name + ".en", Type::uint_(1));
          st.tryDefine(s->name + "." + r.name + ".clk", Type::clock());
          st.tryDefine(s->name + "." + r.name + ".data", s->type);
        }
        for (const auto& w : s->writers) {
          dup |= !st.tryDefine(s->name + "." + w.name + ".addr", Type::uint_(aw));
          st.tryDefine(s->name + "." + w.name + ".en", Type::uint_(1));
          st.tryDefine(s->name + "." + w.name + ".clk", Type::clock());
          st.tryDefine(s->name + "." + w.name + ".data", s->type);
          st.tryDefine(s->name + "." + w.name + ".mask", Type::uint_(1));
        }
        if (dup)
          de.error("E0301", "duplicate mem port on '" + s->name + "'", stmtSpan(*s));
        break;
      }
      case StmtKind::Inst:
        de.error("E0304", "instance '" + s->name + "' present; run flattenInstances first",
                 stmtSpan(*s));
        break;
      case StmtKind::When:
        collectDeclsDiag(s->thenBody, st, de);
        collectDeclsDiag(s->elseBody, st, de);
        break;
      default:
        break;
    }
  }
}

}  // namespace

SymbolTable SymbolTable::build(const Module& module) {
  SymbolTable st;
  for (const auto& p : module.ports) st.define(p.name, p.type);
  collectDecls(module.body, st);
  return st;
}

SymbolTable SymbolTable::build(const Module& module, diag::DiagEngine& de) {
  SymbolTable st;
  for (const auto& p : module.ports) {
    if (!st.tryDefine(p.name, p.type))
      de.error("E0301", "duplicate port '" + p.name + "'", {});
  }
  collectDeclsDiag(module.body, st, de);
  return st;
}

Type inferExprType(Expr& e, const SymbolTable& st) {
  switch (e.kind) {
    case ExprKind::Ref:
      e.type = st.lookup(e.name);
      return e.type;
    case ExprKind::UIntLit:
      e.type = Type::uint_(e.litWidth);
      return e.type;
    case ExprKind::SIntLit:
      e.type = Type::sint(e.litWidth);
      return e.type;
    case ExprKind::Mux: {
      Type sel = asIntType(inferExprType(*e.args[0], st));
      requireIntLike(sel, "mux selector");
      Type tv = asIntType(inferExprType(*e.args[1], st));
      Type fv = asIntType(inferExprType(*e.args[2], st));
      requireIntLike(tv, "mux operand");
      requireIntLike(fv, "mux operand");
      requireSameSign(tv, fv, "mux");
      e.type = tv.isSigned() ? Type::sint(std::max(tv.width, fv.width))
                             : Type::uint_(std::max(tv.width, fv.width));
      return e.type;
    }
    case ExprKind::ValidIf: {
      Type cond = asIntType(inferExprType(*e.args[0], st));
      requireIntLike(cond, "validif condition");
      Type val = inferExprType(*e.args[1], st);
      e.type = val;
      return e.type;
    }
    case ExprKind::Prim:
      break;
  }

  // Primitive operations.
  std::vector<Type> at;
  for (auto& a : e.args) at.push_back(asIntType(inferExprType(*a, st)));
  auto c = [&](size_t i) { return e.consts[i]; };
  using K = PrimOpKind;
  switch (e.op) {
    case K::Add:
    case K::Sub:
      requireIntLike(at[0], "add/sub operand");
      requireSameSign(at[0], at[1], "add/sub");
      e.type = at[0].isSigned() ? Type::sint(bvops::addWidth(at[0].width, at[1].width))
                                : Type::uint_(bvops::addWidth(at[0].width, at[1].width));
      break;
    case K::Mul:
      requireSameSign(at[0], at[1], "mul");
      e.type = at[0].isSigned() ? Type::sint(bvops::mulWidth(at[0].width, at[1].width))
                                : Type::uint_(bvops::mulWidth(at[0].width, at[1].width));
      break;
    case K::Div:
      requireSameSign(at[0], at[1], "div");
      e.type = at[0].isSigned()
                   ? Type::sint(bvops::divWidth(at[0].width, at[1].width, true))
                   : Type::uint_(bvops::divWidth(at[0].width, at[1].width, false));
      break;
    case K::Rem:
      requireSameSign(at[0], at[1], "rem");
      e.type = at[0].isSigned() ? Type::sint(bvops::remWidth(at[0].width, at[1].width))
                                : Type::uint_(bvops::remWidth(at[0].width, at[1].width));
      break;
    case K::Lt:
    case K::Leq:
    case K::Gt:
    case K::Geq:
    case K::Eq:
    case K::Neq:
      requireSameSign(at[0], at[1], "comparison");
      e.type = Type::uint_(1);
      break;
    case K::Pad:
      e.type = at[0].isSigned()
                   ? Type::sint(bvops::padWidth(at[0].width, static_cast<uint32_t>(c(0))))
                   : Type::uint_(bvops::padWidth(at[0].width, static_cast<uint32_t>(c(0))));
      break;
    case K::AsUInt:
      e.type = Type::uint_(at[0].width);
      break;
    case K::AsSInt:
      e.type = Type::sint(at[0].width);
      break;
    case K::AsClock:
      e.type = Type::clock();
      break;
    case K::AsAsyncReset:
      e.type = {TypeKind::AsyncReset, 1, true, nullptr, nullptr, 0};
      break;
    case K::Shl:
      e.type = at[0].isSigned()
                   ? Type::sint(bvops::shlWidth(at[0].width, static_cast<uint32_t>(c(0))))
                   : Type::uint_(bvops::shlWidth(at[0].width, static_cast<uint32_t>(c(0))));
      break;
    case K::Shr:
      e.type = at[0].isSigned()
                   ? Type::sint(bvops::shrWidth(at[0].width, static_cast<uint32_t>(c(0))))
                   : Type::uint_(bvops::shrWidth(at[0].width, static_cast<uint32_t>(c(0))));
      break;
    case K::Dshl:
      if (at[1].isSigned()) throw WidthError("dshl shift amount must be unsigned");
      e.type = at[0].isSigned() ? Type::sint(bvops::dshlWidth(at[0].width, at[1].width))
                                : Type::uint_(bvops::dshlWidth(at[0].width, at[1].width));
      break;
    case K::Dshr:
      if (at[1].isSigned()) throw WidthError("dshr shift amount must be unsigned");
      e.type = at[0];
      break;
    case K::Cvt:
      e.type = Type::sint(bvops::cvtWidth(at[0].width, at[0].isSigned()));
      break;
    case K::Neg:
      e.type = Type::sint(bvops::negWidth(at[0].width));
      break;
    case K::Not:
      e.type = Type::uint_(at[0].width);
      break;
    case K::And:
    case K::Or:
    case K::Xor:
      e.type = Type::uint_(bvops::bitwiseWidth(at[0].width, at[1].width));
      break;
    case K::Andr:
    case K::Orr:
    case K::Xorr:
      e.type = Type::uint_(1);
      break;
    case K::Cat:
      e.type = Type::uint_(bvops::catWidth(at[0].width, at[1].width));
      break;
    case K::Bits: {
      uint32_t hi = static_cast<uint32_t>(c(0)), lo = static_cast<uint32_t>(c(1));
      if (hi < lo || hi >= at[0].width)
        throw WidthError(strfmt("bits(%u, %u) out of range for width %u", hi, lo, at[0].width));
      e.type = Type::uint_(bvops::bitsWidth(hi, lo));
      break;
    }
    case K::Head: {
      uint32_t nb = static_cast<uint32_t>(c(0));
      if (nb > at[0].width) throw WidthError("head amount exceeds width");
      e.type = Type::uint_(bvops::headWidth(nb));
      break;
    }
    case K::Tail: {
      uint32_t nb = static_cast<uint32_t>(c(0));
      if (nb > at[0].width) throw WidthError("tail amount exceeds width");
      e.type = Type::uint_(bvops::tailWidth(at[0].width, nb));
      break;
    }
  }
  return e.type;
}

namespace {

// Single non-when statement; throws WidthError on the first problem. The
// two drivers below (throwing / diag-collecting) handle `when` recursion
// themselves so each can apply its own failure policy.
void inferOneStmt(Stmt& s, SymbolTable& st) {
  switch (s.kind) {
    case StmtKind::Node: {
      Type t = inferExprType(*s.expr, st);
      s.type = asIntType(t);
      // A node aliasing a clock or an async reset keeps that type, so the
      // IR builder still sees what the alias stands for.
      if (t.kind == TypeKind::Clock || t.kind == TypeKind::AsyncReset) s.type = t;
      st.define(s.name, s.type);
      break;
    }
    case StmtKind::Reg: {
      inferExprType(*s.clock, st);
      if (s.resetCond) {
        Type rc = inferExprType(*s.resetCond, st);
        if (!isIntLike(rc)) throw WidthError("register reset condition must be 1-bit");
        inferExprType(*s.resetInit, st);
      }
      break;
    }
    case StmtKind::Connect: {
      Type lhs = st.lookup(s.name);
      Type rhs = inferExprType(*s.expr, st);
      if (lhs.kind == TypeKind::Clock) {
        if (rhs.kind != TypeKind::Clock)
          throw WidthError("cannot connect non-clock to clock '" + s.name + "'");
      } else if (!isIntLike(rhs) && rhs.kind != TypeKind::Clock) {
        throw WidthError("cannot connect clock-typed value to '" + s.name + "'");
      }
      break;
    }
    case StmtKind::Printf:
      inferExprType(*s.clock, st);
      inferExprType(*s.expr, st);
      for (auto& a : s.printArgs) inferExprType(*a, st);
      break;
    case StmtKind::Stop:
      inferExprType(*s.clock, st);
      inferExprType(*s.expr, st);
      break;
    case StmtKind::Assert:
      inferExprType(*s.clock, st);
      inferExprType(*s.pred, st);
      inferExprType(*s.expr, st);
      break;
    case StmtKind::Invalidate:
      st.lookup(s.name);
      break;
    default:
      break;
  }
}

void checkWhenCond(Stmt& s, SymbolTable& st) {
  Type cond = inferExprType(*s.expr, st);
  if (!isIntLike(cond)) throw WidthError("when condition must be 1-bit integer");
}

void inferStmts(std::vector<StmtPtr>& body, SymbolTable& st) {
  for (auto& s : body) {
    if (s->kind == StmtKind::When) {
      checkWhenCond(*s, st);
      inferStmts(s->thenBody, st);
      inferStmts(s->elseBody, st);
    } else {
      inferOneStmt(*s, st);
    }
  }
}

void inferStmtsDiag(std::vector<StmtPtr>& body, SymbolTable& st, diag::DiagEngine& de) {
  for (auto& s : body) {
    if (de.atErrorLimit()) return;
    if (s->kind == StmtKind::When) {
      try {
        checkWhenCond(*s, st);
      } catch (const WidthError& e) {
        de.error("E0303", stripWidthPrefix(e.what()), stmtSpan(*s));
      }
      // Check both bodies even when the condition was bad: their errors are
      // independent of the condition's type.
      inferStmtsDiag(s->thenBody, st, de);
      inferStmtsDiag(s->elseBody, st, de);
    } else {
      try {
        inferOneStmt(*s, st);
      } catch (const WidthError& e) {
        de.error("E0303", stripWidthPrefix(e.what()), stmtSpan(*s));
        // A node whose value failed still needs *some* type, or every later
        // reference to it cascades into "undefined signal".
        if (s->kind == StmtKind::Node) st.tryDefine(s->name, Type::uint_(1));
      }
    }
  }
}

}  // namespace

namespace {

struct WS {
  uint32_t width;
  bool sgn;
};

// Width+signedness of `e` with unknown-width refs tolerated: nullopt when
// any input width is still unresolved. Mirrors inferExprType's rules but
// runs pre-inference (expression `type` fields are not yet filled in).
std::optional<WS> tryExprWidth(const Expr& e, const SymbolTable& st) {
  auto widthOf = [&](const Expr& sub) { return tryExprWidth(sub, st); };
  switch (e.kind) {
    case ExprKind::Ref: {
      if (!st.contains(e.name)) return std::nullopt;
      Type t = st.lookup(e.name);
      if ((t.kind == TypeKind::UInt || t.kind == TypeKind::SInt) && !t.widthKnown)
        return std::nullopt;
      return WS{t.simWidth(), t.isSigned()};
    }
    case ExprKind::UIntLit:
      return WS{e.litWidth, false};
    case ExprKind::SIntLit:
      return WS{e.litWidth, true};
    case ExprKind::Mux: {
      auto a = widthOf(*e.args[1]), b = widthOf(*e.args[2]);
      if (!a || !b) return std::nullopt;
      return WS{std::max(a->width, b->width), a->sgn};
    }
    case ExprKind::ValidIf:
      return widthOf(*e.args[1]);
    case ExprKind::Prim:
      break;
  }
  std::vector<WS> w;
  for (const auto& a : e.args) {
    auto aw = widthOf(*a);
    if (!aw) return std::nullopt;
    w.push_back(*aw);
  }
  auto c = [&](size_t i) { return static_cast<uint32_t>(e.consts[i]); };
  using K = PrimOpKind;
  switch (e.op) {
    case K::Add:
    case K::Sub: return WS{bvops::addWidth(w[0].width, w[1].width), w[0].sgn};
    case K::Mul: return WS{bvops::mulWidth(w[0].width, w[1].width), w[0].sgn};
    case K::Div: return WS{bvops::divWidth(w[0].width, w[1].width, w[0].sgn), w[0].sgn};
    case K::Rem: return WS{bvops::remWidth(w[0].width, w[1].width), w[0].sgn};
    case K::Lt: case K::Leq: case K::Gt: case K::Geq: case K::Eq: case K::Neq:
      return WS{1, false};
    case K::Pad: return WS{bvops::padWidth(w[0].width, c(0)), w[0].sgn};
    case K::AsUInt: return WS{w[0].width, false};
    case K::AsSInt: return WS{w[0].width, true};
    case K::AsClock: case K::AsAsyncReset: return WS{1, false};
    case K::Shl: return WS{bvops::shlWidth(w[0].width, c(0)), w[0].sgn};
    case K::Shr: return WS{bvops::shrWidth(w[0].width, c(0)), w[0].sgn};
    case K::Dshl: return WS{bvops::dshlWidth(w[0].width, w[1].width), w[0].sgn};
    case K::Dshr: return WS{w[0].width, w[0].sgn};
    case K::Cvt: return WS{bvops::cvtWidth(w[0].width, w[0].sgn), true};
    case K::Neg: return WS{bvops::negWidth(w[0].width), true};
    case K::Not: return WS{w[0].width, false};
    case K::And: case K::Or: case K::Xor:
      return WS{bvops::bitwiseWidth(w[0].width, w[1].width), false};
    case K::Andr: case K::Orr: case K::Xorr: return WS{1, false};
    case K::Cat: return WS{bvops::catWidth(w[0].width, w[1].width), false};
    case K::Bits: return WS{bvops::bitsWidth(c(0), c(1)), false};
    case K::Head: return WS{bvops::headWidth(c(0)), false};
    case K::Tail: return WS{bvops::tailWidth(w[0].width, c(0)), false};
  }
  return std::nullopt;
}

}  // namespace

void inferUnknownWidths(Module& module) {
  // Collect the unknown-width declarations.
  auto unknownType = [](const Type& t) {
    return (t.kind == TypeKind::UInt || t.kind == TypeKind::SInt) && !t.widthKnown;
  };
  bool anyUnknown = false;
  for (const auto& p : module.ports) anyUnknown |= unknownType(p.type);
  for (const auto& s : module.body)
    if (s->kind == StmtKind::Wire || s->kind == StmtKind::Reg)
      anyUnknown |= unknownType(s->type);
  if (!anyUnknown) return;

  for (const auto& p : module.ports) {
    if (unknownType(p.type) && p.dir == PortDir::Input)
      throw WidthError("input port '" + p.name + "' must have an explicit width");
  }

  // Fixpoint: resolve any target whose single connect has a computable
  // width. Bounded by the number of unknowns.
  for (int pass = 0; pass < 64; pass++) {
    SymbolTable st = SymbolTable::build(module);
    // Nodes contribute too: define their types when computable.
    for (const auto& s : module.body) {
      if (s->kind != StmtKind::Node) continue;
      auto w = tryExprWidth(*s->expr, st);
      if (w && !st.contains(s->name))
        st.define(s->name, w->sgn ? Type::sint(w->width) : Type::uint_(w->width));
    }
    bool progress = false;
    bool remaining = false;
    auto resolve = [&](Type& t, const std::string& name) {
      if (!unknownType(t)) return;
      for (const auto& s2 : module.body) {
        if (s2->kind != StmtKind::Connect || s2->name != name) continue;
        auto w = tryExprWidth(*s2->expr, st);
        if (w) {
          t.width = w->width;
          t.widthKnown = true;
          progress = true;
          return;
        }
      }
      remaining = true;
    };
    for (auto& p : module.ports) resolve(p.type, p.name);
    for (auto& s : module.body)
      if (s->kind == StmtKind::Wire || s->kind == StmtKind::Reg) resolve(s->type, s->name);
    if (!remaining) return;
    if (!progress) {
      std::string names;
      for (const auto& s : module.body)
        if ((s->kind == StmtKind::Wire || s->kind == StmtKind::Reg) && unknownType(s->type))
          names += " " + s->name;
      throw WidthError("cannot infer widths (self-referential or undriven):" + names);
    }
  }
}

void inferModuleWidths(Module& module) {
  for (const auto& p : module.ports) {
    if (!p.type.widthKnown)
      throw WidthError("port '" + p.name + "' must have an explicit width");
  }
  SymbolTable st = SymbolTable::build(module);
  inferStmts(module.body, st);
}

bool inferUnknownWidths(Module& module, diag::DiagEngine& de) {
  size_t before = de.errorCount();
  // The fixpoint either converges or fails as a whole; there is no useful
  // per-statement recovery, so one diagnostic covers the run.
  try {
    inferUnknownWidths(module);
  } catch (const WidthError& e) {
    de.error("E0302", stripWidthPrefix(e.what()), {});
  }
  return de.errorCount() == before;
}

bool inferModuleWidths(Module& module, diag::DiagEngine& de) {
  size_t before = de.errorCount();
  for (const auto& p : module.ports) {
    if (!p.type.widthKnown)
      de.error("E0302", "port '" + p.name + "' must have an explicit width", {});
  }
  SymbolTable st = SymbolTable::build(module, de);
  inferStmtsDiag(module.body, st, de);
  return de.errorCount() == before;
}

}  // namespace essent::firrtl
