#include "codegen/emitter.h"

#include <algorithm>

#include <unordered_map>
#include <unordered_set>

#include "obs/phase_timer.h"
#include "support/strutil.h"

namespace essent::codegen {

using core::CondPartSchedule;
using sim::Op;
using sim::OpCode;
using sim::SigKind;
using sim::SimIR;

namespace {

// Each memory's array is mem_<sanitized name>. Memories whose names sanitize
// alike (memory b of instance x and a top-level x_b) keep the first that
// name and give the rest a numeric suffix no other memory's array takes, so
// a name that collides with nothing stays as a harness spells it.
std::vector<std::string> buildMemNames(const SimIR& ir) {
  std::vector<std::string> names;
  std::unordered_set<std::string> bases, taken;
  for (const auto& m : ir.mems) bases.insert("mem_" + sanitizeIdent(m.name));
  for (const auto& m : ir.mems) {
    const std::string base = "mem_" + sanitizeIdent(m.name);
    std::string name = base;
    for (int suffix = 1; !taken.insert(name).second;) {
      do name = base + "_" + std::to_string(suffix++);
      while (bases.count(name));
    }
    names.push_back(name);
  }
  return names;
}

// Identifiers a signal's member name must not take. Every identifier the
// emitter makes up for itself ends in '_' (act_, part_0_, prev_a_, finish_,
// sx_, ...), and buildNames never emits a trailing '_', so those are out of
// reach by construction. Reserved here are the rest: the public names a
// harness spells (eval, the class, each memory's array), C++ keywords, and
// uint64_t, which a member of that name would hide inside the struct.
std::unordered_set<std::string> reservedNames(const SimIR& ir, const std::string& className) {
  std::unordered_set<std::string> used = {
      "eval", className, "uint64_t",
      "alignas", "alignof", "and", "and_eq", "asm", "auto", "bitand", "bitor", "bool", "break",
      "case", "catch", "char", "char8_t", "char16_t", "char32_t", "class", "co_await",
      "co_return", "co_yield", "compl", "concept", "const", "consteval", "constexpr",
      "constinit", "const_cast", "continue", "decltype", "default", "delete", "do", "double",
      "dynamic_cast", "else", "enum", "explicit", "export", "extern", "false", "float", "for",
      "friend", "goto", "if", "inline", "int", "long", "mutable", "namespace", "new",
      "noexcept", "not", "not_eq", "nullptr", "operator", "or", "or_eq", "private",
      "protected", "public", "register", "reinterpret_cast", "requires", "return", "short",
      "signed", "sizeof", "static", "static_assert", "static_cast", "struct", "switch",
      "template", "this", "thread_local", "throw", "true", "try", "typedef", "typeid",
      "typename", "union", "unsigned", "using", "virtual", "void", "volatile", "wchar_t",
      "while", "xor", "xor_eq"};
  for (std::string& m : buildMemNames(ir)) used.insert(std::move(m));
  return used;
}

std::vector<std::string> buildNames(const SimIR& ir, const std::string& className) {
  std::vector<std::string> names(ir.signals.size());
  std::unordered_set<std::string> used = reservedNames(ir, className);
  for (size_t s = 0; s < ir.signals.size(); s++) {
    const auto& sig = ir.signals[s];
    std::string base = sig.name.empty() ? strfmt("t%zu", s) : sanitizeIdent(sig.name);
    if (base.back() == '_') base += 'x';
    std::string name = base;
    int suffix = 1;
    while (!used.insert(name).second) name = base + "_" + std::to_string(suffix++);
    names[s] = name;
  }
  return names;
}

// `e` occupies at most `bits` bits (its operands fit their widths); the
// mask is dropped when that already fits `width`.
std::string maskExpr(const std::string& e, uint32_t bits, uint32_t width) {
  if (width >= 64 || bits <= width) return e;
  return strfmt("(%s) & 0x%llxull", e.c_str(), static_cast<unsigned long long>((1ull << width) - 1));
}

class Emitter {
 public:
  Emitter(const SimIR& ir, const CondPartSchedule* sched, const CodegenOptions& opts)
      : ir_(ir), sched_(sched), opts_(opts), names_(buildNames(ir, opts.className)),
        memNames_(buildMemNames(ir)) {
    for (const auto& sig : ir.signals) {
      if (sig.kind != SigKind::Dead && sig.width > 64)
        throw CodegenError("signal '" + sig.name + "' is wider than 64 bits; the C++ backend "
                           "emits uint64_t storage (use the in-process engines instead)");
    }
    if (opts.ccss && !sched) throw CodegenError("CCSS mode requires a schedule");
    resetSig_ = ir.findSignal("reset");
    computeUseCounts();
  }

  std::string run() {
    computeLocals(opts_.ccss ? partitionOfOp() : std::vector<int32_t>(ir_.ops.size(), 0));
    emitPreamble();
    emitMembers();
    if (opts_.ccss) emitPartitionFunctions();
    emitEval();
    closeStruct();
    return out_;
  }

  ShardedCpp runSharded(uint32_t shards, const std::string& base) {
    ShardedCpp sh;
    sh.headerName = base + ".h";
    const std::string& cn = opts_.className;

    // Work-function definitions, in schedule order: one per partition
    // (CCSS) or one per contiguous op slice (baseline).
    std::vector<std::string> decls, defs;
    if (opts_.ccss) {
      computeLocals(partitionOfOp());
      for (size_t pos = 0; pos < sched_->parts.size(); pos++) {
        decls.push_back(strfmt("  void part_%zu_();\n", pos));
        out_.clear();
        emitPartitionFunction(pos, strfmt("void %s::part_%zu_()", cn.c_str(), pos), "  ",
                              "}\n\n");
        defs.push_back(std::move(out_));
      }
    } else {
      // Contiguous op slices; a combinational-loop supernode's convergence
      // run is never split.
      std::vector<int32_t> chunkOf(ir_.ops.size());
      std::vector<std::vector<int32_t>> chunks;
      const size_t per = ir_.ops.size() / std::max<uint32_t>(1, shards) + 1;
      for (size_t from = 0, to; from < ir_.ops.size(); from = to) {
        to = std::min(ir_.ops.size(), from + per);
        while (to < ir_.ops.size() && ir_.superOf(to) >= 0 &&
               ir_.superOf(to) == ir_.superOf(to - 1))
          to++;
        chunks.emplace_back();
        for (size_t i = from; i < to; i++) {
          chunkOf[i] = static_cast<int32_t>(chunks.size() - 1);
          chunks.back().push_back(static_cast<int32_t>(i));
        }
      }
      computeLocals(chunkOf);
      for (size_t k = 0; k < chunks.size(); k++) {
        decls.push_back(strfmt("  void chunk_%zu_();\n", k));
        out_.clear();
        out_ += strfmt("void %s::chunk_%zu_() {\n", cn.c_str(), k);
        emitOpSeq(chunks[k], "  ");
        out_ += "}\n\n";
        defs.push_back(std::move(out_));
      }
    }

    // finish_(): side effects + phase-2 state updates + cycle count.
    out_.clear();
    out_ += strfmt("void %s::finish_() {\n", cn.c_str());
    emitPrintsAndStops("  ");
    if (opts_.ccss) {
      for (const auto& rw : sched_->deferredRegs) emitRegWrite(rw.regIdx, &rw.wakeParts, "  ");
      for (const auto& mw : sched_->deferredMemWrites)
        emitMemWrite(mw.memIdx, mw.writerIdx, &mw.wakeParts, "  ");
    } else {
      for (size_t r = 0; r < ir_.regs.size(); r++)
        emitRegWrite(static_cast<int32_t>(r), nullptr, "  ");
      for (size_t m = 0; m < ir_.mems.size(); m++)
        for (size_t w = 0; w < ir_.mems[m].writers.size(); w++)
          emitMemWrite(static_cast<int32_t>(m), static_cast<int32_t>(w), nullptr, "  ");
    }
    out_ += "  cycles_++;\n}\n";
    const std::string finishDef = std::move(out_);

    // Contiguous assignment of work functions to units, balanced by
    // emitted byte count (schedule order is preserved by the call sites,
    // so placement only affects compile-time balance).
    const uint32_t S = std::max<uint32_t>(
        1, std::min<uint32_t>(shards, static_cast<uint32_t>(std::max<size_t>(1, defs.size()))));
    size_t totalBytes = 0;
    for (const auto& d : defs) totalBytes += d.size();
    std::vector<std::pair<size_t, size_t>> range(S, {0, 0});
    {
      size_t i = 0, acc = 0;
      for (uint32_t k = 0; k < S; k++) {
        range[k].first = i;
        const size_t goal = totalBytes * (k + 1) / S;
        while (i < defs.size() && (acc < goal || k + 1 == S)) acc += defs[i++].size();
        range[k].second = i;
      }
    }

    // eval(): the only cross-unit glue; lives in unit 0.
    out_.clear();
    out_ += strfmt("void %s::eval() {\n", cn.c_str());
    if (opts_.ccss) {
      out_ += "  // 1. external input change detection\n";
      emitInputSweep("  ");
      out_ += "  first_cycle_ = false;\n";
      out_ += "  // 2. singular static partition sweep, one chunk per unit\n";
      for (uint32_t k = 0; k < S; k++) out_ += strfmt("  sweepChunk_%u_();\n", k);
    } else {
      for (size_t j = 0; j < defs.size(); j++) out_ += strfmt("  chunk_%zu_();\n", j);
    }
    out_ += "  // side effects + phase-2 state updates\n  finish_();\n}\n";
    const std::string evalDef = std::move(out_);

    // Header: struct definition with member state + method declarations.
    out_.clear();
    emitPreamble();
    emitMembers();
    out_ += strfmt("  // --- evaluation (definitions sharded across %u translation units) ---\n",
                   S);
    for (const auto& d : decls) out_ += d;
    if (opts_.ccss)
      for (uint32_t k = 0; k < S; k++) out_ += strfmt("  void sweepChunk_%u_();\n", k);
    out_ += "  void finish_();\n  void eval();\n";
    closeStruct();
    sh.header = "#pragma once\n" + out_;

    for (uint32_t k = 0; k < S; k++) {
      sh.unitNames.push_back(strfmt("%s_%u.cpp", base.c_str(), k));
      std::string u = strfmt(
          "// Generated by essent-cpp (unit %u of %u). Do not edit.\n"
          "#include \"%s.h\"\n\nnamespace essent_gen {\n\n",
          k, S, base.c_str());
      for (size_t i = range[k].first; i < range[k].second; i++) u += defs[i];
      if (opts_.ccss) {
        u += strfmt("void %s::sweepChunk_%u_() {\n", cn.c_str(), k);
        for (size_t i = range[k].first; i < range[k].second; i++)
          u += strfmt("  if (act_[%zu]) part_%zu_();\n", i, i);
        u += "}\n\n";
      }
      if (k + 1 == S) u += finishDef + "\n";
      if (k == 0) u += evalDef + "\n";
      u += "}  // namespace essent_gen\n";
      sh.units.push_back(std::move(u));
    }
    return sh;
  }

 private:
  const SimIR& ir_;
  const CondPartSchedule* sched_;
  CodegenOptions opts_;
  std::vector<std::string> names_;
  std::vector<std::string> memNames_;
  std::string out_;
  int32_t resetSig_ = -1;
  // Number of consumers of each signal across the whole program; named
  // signals are pinned (never sinkable into a mux way) with a sentinel.
  std::vector<uint32_t> useCount_;
  // Signals declared as locals of their work function instead of members.
  std::vector<char> local_;

  // The schedule position of the partition each op belongs to (CCSS).
  std::vector<int32_t> partitionOfOp() const {
    std::vector<int32_t> fn(ir_.ops.size(), -1);
    for (size_t pos = 0; pos < sched_->parts.size(); pos++)
      for (int32_t op : sched_->parts[pos].ops)
        fn[static_cast<size_t>(op)] = static_cast<int32_t>(pos);
    return fn;
  }

  // Only state, IO, named signals and values shared between functions must
  // persist in the struct: every member slows the host compiler's parse of
  // the class (name lookup grows with member count) and its alias analysis.
  // So an anonymous temporary whose one defining work function (`fnOfOp`:
  // partition, chunk or eval) is also its only reader becomes a local
  // there. It stays a member when it is a partition output, is read by
  // finish-side code (deferred state writes, prints, stops, asserts) or a
  // memory reader port, holds a constant (stored once by the constructor),
  // or belongs to a combinational-loop supernode (convergence reads the
  // previous value).
  void computeLocals(const std::vector<int32_t>& fnOfOp) {
    constexpr int32_t kUnread = -1, kShared = -2;
    std::vector<int32_t> reader(ir_.signals.size(), kUnread);
    auto read = [&](int32_t s, int32_t fn) {
      if (s < 0) return;
      int32_t& r = reader[static_cast<size_t>(s)];
      r = r == kUnread || r == fn ? fn : kShared;
    };
    auto pin = [&](int32_t s) { read(s, kShared); };
    for (size_t i = 0; i < ir_.ops.size(); i++) {
      const Op& op = ir_.ops[i];
      for (int k = 0; k < op.numArgs(); k++) read(op.args[k], fnOfOp[i]);
    }
    auto regNext = [&](const core::SchedRegWrite& rw) {
      return ir_.regs[static_cast<size_t>(rw.regIdx)].next;
    };
    auto memWritePorts = [&](const core::SchedMemWrite& mw, auto&& use) {
      const sim::MemWriter& w =
          ir_.mems[static_cast<size_t>(mw.memIdx)].writers[static_cast<size_t>(mw.writerIdx)];
      for (int32_t s : {w.addr, w.en, w.data, w.mask}) use(s);
    };
    if (opts_.ccss) {
      for (size_t pos = 0; pos < sched_->parts.size(); pos++) {
        const auto& part = sched_->parts[pos];
        auto here = [&](int32_t s) { read(s, static_cast<int32_t>(pos)); };
        for (const auto& rw : part.regWrites) here(regNext(rw));
        for (const auto& mw : part.memWrites) memWritePorts(mw, here);
        for (const auto& o : part.outputs) pin(o.sig);
      }
      for (const auto& rw : sched_->deferredRegs) pin(regNext(rw));
      for (const auto& mw : sched_->deferredMemWrites) memWritePorts(mw, pin);
    } else {
      for (const auto& r : ir_.regs) pin(r.next);
      for (const auto& m : ir_.mems)
        for (const auto& w : m.writers)
          for (int32_t s : {w.addr, w.en, w.data, w.mask}) pin(s);
    }
    for (const auto& m : ir_.mems)
      for (const auto& rd : m.readers) {
        pin(rd.addr);
        pin(rd.en);
      }
    for (const auto& p : ir_.prints) {
      pin(p.en);
      for (int32_t a : p.args) pin(a);
    }
    for (const auto& st : ir_.stops) pin(st.en);
    for (const auto& a : ir_.asserts) {
      pin(a.en);
      pin(a.pred);
    }
    local_.assign(ir_.signals.size(), 0);
    for (size_t s = 0; s < ir_.signals.size(); s++) {
      const int32_t def = ir_.signals[s].defOp;
      if (ir_.signals[s].kind != SigKind::Temp || def < 0) continue;
      const size_t d = static_cast<size_t>(def);
      local_[s] = ir_.ops[d].code != OpCode::Const && ir_.superOf(d) < 0 && fnOfOp[d] >= 0 &&
                  reader[s] == fnOfOp[d];
    }
  }

  void computeUseCounts() {
    useCount_.assign(ir_.signals.size(), 0);
    auto use = [&](int32_t s) {
      if (s >= 0) useCount_[static_cast<size_t>(s)]++;
    };
    for (const auto& op : ir_.ops) {
      int n = op.numArgs();
      for (int k = 0; k < n; k++) use(op.args[k]);
    }
    for (const auto& r : ir_.regs) use(r.next);
    for (const auto& m : ir_.mems) {
      for (const auto& rd : m.readers) {
        use(rd.addr);
        use(rd.en);
      }
      for (const auto& w : m.writers) {
        use(w.addr);
        use(w.en);
        use(w.data);
        use(w.mask);
      }
    }
    for (const auto& p : ir_.prints) {
      use(p.en);
      for (int32_t a : p.args) use(a);
    }
    for (const auto& s : ir_.stops) use(s.en);
    if (sched_) {
      for (const auto& part : sched_->parts)
        for (const auto& o : part.outputs) use(o.sig);
    }
    // Observability pin: only anonymous temporaries may go stale.
    for (size_t s = 0; s < ir_.signals.size(); s++)
      if (ir_.signals[s].kind != SigKind::Temp) useCount_[s] += 1000;
  }

  const std::string& name(int32_t sig) const { return names_[static_cast<size_t>(sig)]; }
  uint32_t width(int32_t sig) const { return ir_.signals[static_cast<size_t>(sig)].width; }
  bool isSigned(int32_t sig) const { return ir_.signals[static_cast<size_t>(sig)].isSigned; }

  std::string sx(int32_t sig) const {
    return strfmt("sx_(%s, %u)", name(sig).c_str(), width(sig));
  }
  std::string sxU(int32_t sig) const {
    return strfmt("(uint64_t)sx_(%s, %u)", name(sig).c_str(), width(sig));
  }

  void emitPreamble() {
    out_ +=
        "// Generated by essent-cpp (ESSENT reproduction). Do not edit.\n"
        "#include <cstdint>\n#include <cstdio>\n#include <cstring>\n#include <type_traits>\n\n"
        "namespace essent_gen {\n\n"
        "static inline int64_t sx_(uint64_t v, int w) {\n"
        "  if (w == 0) return 0;\n"
        "  if (w >= 64) return (int64_t)v;\n"
        "  uint64_t m = 1ull << (w - 1);\n"
        "  return (int64_t)((v ^ m) - m);\n"
        "}\n"
        "static inline void printBin_(uint64_t v, int w) {\n"
        "  for (int i = w - 1; i >= 0; i--) std::putchar(((v >> i) & 1) ? '1' : '0');\n"
        "}\n\n";
    out_ += "struct " + opts_.className + " {\n";
  }

  // The constructor's memset is only valid on plain data.
  void closeStruct() {
    const char* cn = opts_.className.c_str();
    out_ += strfmt("};\nstatic_assert(std::is_trivially_copyable<%s>::value &&\n"
                   "              std::is_standard_layout<%s>::value);\n\n"
                   "}  // namespace essent_gen\n",
                   cn, cn);
  }

  // Members carry no initializers: a default member initializer per signal
  // (thousands on a SoC) is inlined into every unit that constructs the
  // struct and dominates its host compile. The constructor instead zero-fills
  // the plain-data object and stores only what is not zero.
  void emitMembers() {
    out_ += "  // --- design state (one member per signal that persists) ---\n";
    for (size_t s = 0; s < ir_.signals.size(); s++) {
      if (ir_.signals[s].kind == SigKind::Dead || local_[s]) continue;
      out_ += strfmt("  uint64_t %s;  // width %u%s\n", names_[s].c_str(), ir_.signals[s].width,
                     ir_.signals[s].isSigned ? " (signed)" : "");
    }
    for (size_t m = 0; m < ir_.mems.size(); m++) {
      out_ += strfmt("  uint64_t %s[%llu];\n", memNames_[m].c_str(),
                     static_cast<unsigned long long>(ir_.mems[m].depth));
    }
    out_ += "  uint64_t cycles_;\n  bool stopped_;\n  int exit_code_;\n";
    if (opts_.ccss) {
      out_ += strfmt("  bool act_[%zu];\n", sched_->parts.size());
      for (int32_t in : ir_.inputs) out_ += strfmt("  uint64_t prev_%s_;\n", name(in).c_str());
      out_ += "  bool first_cycle_;\n";
    }
    // Constants are stored once here and never re-evaluated.
    out_ += strfmt("\n  %s() {\n", opts_.className.c_str());
    out_ += "    std::memset(static_cast<void*>(this), 0, sizeof(*this));\n";
    for (const auto& op : ir_.ops) {
      if (op.code != OpCode::Const) continue;
      const BitVec& v = ir_.constPool[static_cast<size_t>(op.imm0)];
      if (!v.isZero())
        out_ += strfmt("    %s = 0x%sull;\n", name(op.dest).c_str(), v.toHexString().c_str());
    }
    if (opts_.ccss) out_ += "    for (bool& a_ : act_) a_ = true;\n    first_cycle_ = true;\n";
    out_ += "  }\n\n";
  }

  // RHS expression implementing `op` (pre-mask); mirrors sim/op_eval.h's
  // fast path exactly so generated simulators match the interpreter
  // bit-for-bit.
  std::string opExpr(const Op& op) {
    const bool sg = op.signedOp;
    auto A = [&] { return name(op.args[0]); };
    auto B = [&] { return name(op.args[1]); };
    auto binArith = [&](const char* sym) {
      if (sg)
        return strfmt("(uint64_t)(%s %s %s)", sx(op.args[0]).c_str(), sym, sx(op.args[1]).c_str());
      return strfmt("(%s %s %s)", A().c_str(), sym, B().c_str());
    };
    auto cmp = [&](const char* sym) {
      if (sg)
        return strfmt("(uint64_t)(%s %s %s)", sx(op.args[0]).c_str(), sym, sx(op.args[1]).c_str());
      return strfmt("(uint64_t)(%s %s %s)", A().c_str(), sym, B().c_str());
    };
    uint32_t aW = op.args[0] >= 0 ? width(op.args[0]) : 0;
    uint32_t bW = op.args[1] >= 0 ? width(op.args[1]) : 0;
    uint32_t dW = width(op.dest);
    switch (op.code) {
      case OpCode::Add: return binArith("+");
      case OpCode::Sub: return binArith("-");
      case OpCode::Mul:
        if (sg) return strfmt("((uint64_t)%s * (uint64_t)%s)", sx(op.args[0]).c_str(), sx(op.args[1]).c_str());
        return binArith("*");
      case OpCode::Div:
        if (sg)
          return strfmt("(%s == 0 ? 0 : (uint64_t)(%s / %s))", B().c_str(),
                        sx(op.args[0]).c_str(), sx(op.args[1]).c_str());
        return strfmt("(%s == 0 ? 0 : %s / %s)", B().c_str(), A().c_str(), B().c_str());
      case OpCode::Rem:
        // x % 0 := x truncated to the result width (bvops::rem semantics;
        // native C++ % would trap). The signed form also guards the divisor
        // -1: INT64_MIN % -1 is UB in C++ but mathematically 0.
        if (sg)
          return strfmt("(%s == 0 ? %s : %s == -1 ? 0 : (uint64_t)(%s %% %s))", B().c_str(),
                        A().c_str(), sx(op.args[1]).c_str(), sx(op.args[0]).c_str(),
                        sx(op.args[1]).c_str());
        return strfmt("(%s == 0 ? %s : %s %% %s)", B().c_str(), A().c_str(), A().c_str(),
                      B().c_str());
      case OpCode::Lt: return cmp("<");
      case OpCode::Leq: return cmp("<=");
      case OpCode::Gt: return cmp(">");
      case OpCode::Geq: return cmp(">=");
      case OpCode::Eq: return cmp("==");
      case OpCode::Neq: return cmp("!=");
      case OpCode::Dshl:
        return strfmt("(%s >= %u ? 0 : %s << %s)", B().c_str(), dW, A().c_str(), B().c_str());
      case OpCode::Dshr:
        if (sg)
          return strfmt("(uint64_t)(%s >> (%s > 63 ? 63 : %s))", sx(op.args[0]).c_str(),
                        B().c_str(), B().c_str());
        return strfmt("(%s >= %u ? 0 : %s >> %s)", B().c_str(), aW, A().c_str(), B().c_str());
      case OpCode::And:
        return sg ? strfmt("(%s & %s)", sxU(op.args[0]).c_str(), sxU(op.args[1]).c_str())
                  : binArith("&");
      case OpCode::Or:
        return sg ? strfmt("(%s | %s)", sxU(op.args[0]).c_str(), sxU(op.args[1]).c_str())
                  : binArith("|");
      case OpCode::Xor:
        return sg ? strfmt("(%s ^ %s)", sxU(op.args[0]).c_str(), sxU(op.args[1]).c_str())
                  : binArith("^");
      case OpCode::Cat:
        if (bW >= 64) return B();
        return strfmt("((%s << %u) | %s)", A().c_str(), bW, B().c_str());
      case OpCode::Not: return strfmt("(~%s)", A().c_str());
      case OpCode::Andr:
        return strfmt("(uint64_t)(%s == 0x%llxull)", A().c_str(),
                      static_cast<unsigned long long>(aW >= 64 ? ~0ull : (1ull << aW) - 1));
      case OpCode::Orr: return strfmt("(uint64_t)(%s != 0)", A().c_str());
      case OpCode::Xorr: return strfmt("(uint64_t)__builtin_parityll(%s)", A().c_str());
      case OpCode::Cvt:
      case OpCode::Pad:
      case OpCode::Copy:
        return sg ? sxU(op.args[0]) : A();
      case OpCode::Neg:
        return sg ? strfmt("(uint64_t)(-%s)", sx(op.args[0]).c_str())
                  : strfmt("(~%s + 1)", A().c_str());
      case OpCode::Shl:
        return op.imm0 >= 64 ? std::string("0ull")
                             : strfmt("(%s << %lld)", A().c_str(),
                                      static_cast<long long>(op.imm0));
      case OpCode::Shr:
        if (sg)
          return strfmt("(uint64_t)(%s >> %lld)", sx(op.args[0]).c_str(),
                        static_cast<long long>(op.imm0 > 63 ? 63 : op.imm0));
        return op.imm0 >= aW ? std::string("0ull")
                             : strfmt("(%s >> %lld)", A().c_str(),
                                      static_cast<long long>(op.imm0));
      case OpCode::Bits:
        return strfmt("(%s >> %lld)", A().c_str(), static_cast<long long>(op.imm1));
      case OpCode::Head:
        return op.imm0 == 0 ? std::string("0ull")
                            : strfmt("(%s >> %u)", A().c_str(),
                                     aW - static_cast<uint32_t>(op.imm0));
      case OpCode::Tail: return A();
      case OpCode::Mux: {
        std::string sel = A();
        // Branch hint (§III-B2): reset-selected mux ways are cold.
        if (opts_.branchHints && op.args[0] == resetSig_)
          sel = strfmt("__builtin_expect(%s, 0)", sel.c_str());
        std::string tv = sg ? sxU(op.args[1]) : B();
        std::string fv = sg ? sxU(op.args[2]) : name(op.args[2]);
        return strfmt("(%s ? %s : %s)", sel.c_str(), tv.c_str(), fv.c_str());
      }
      case OpCode::Const:
        return strfmt("0x%sull",
                      ir_.constPool[static_cast<size_t>(op.imm0)].toHexString().c_str());
      case OpCode::MemRead: {
        const auto& m = ir_.mems[static_cast<size_t>(op.imm0)];
        return strfmt("((%s != 0 && %s < %llu) ? %s[%s] : 0)", B().c_str(), A().c_str(),
                      static_cast<unsigned long long>(m.depth),
                      memNames_[static_cast<size_t>(op.imm0)].c_str(), A().c_str());
      }
    }
    return "0";
  }

  // Bits opExpr(op) can occupy before masking, given that every operand
  // fits its own width (each stored value is masked, and harnesses poke
  // in-range inputs); 64 where no narrower bound is cheap to state.
  uint32_t resultBits(const Op& op) const {
    const bool sg = op.signedOp;
    const uint32_t aW = op.args[0] >= 0 ? width(op.args[0]) : 64;
    const uint32_t bW = op.args[1] >= 0 ? width(op.args[1]) : 64;
    switch (op.code) {
      case OpCode::Lt: case OpCode::Leq: case OpCode::Gt: case OpCode::Geq:
      case OpCode::Eq: case OpCode::Neq:
      case OpCode::Andr: case OpCode::Orr: case OpCode::Xorr:
        return 1;
      case OpCode::Copy: case OpCode::Pad: case OpCode::Cvt:
        return sg ? 64 : aW;
      case OpCode::And: case OpCode::Or: case OpCode::Xor:
        return sg ? 64 : std::max(aW, bW);
      case OpCode::Mux:
        return sg ? 64 : std::max(bW, width(op.args[2]));
      case OpCode::Cat: return aW + bW;
      case OpCode::Bits: return aW - static_cast<uint32_t>(op.imm1);
      case OpCode::Head: return static_cast<uint32_t>(op.imm0);
      case OpCode::Shr:
        return sg ? 64 : aW - static_cast<uint32_t>(std::min<int64_t>(aW, op.imm0));
      default: return 64;
    }
  }

  // A local is declared where its op assigns it: every read is later in
  // the same function and, for a value sunk into a mux way, in that way.
  std::string declared(int32_t sig) const {
    return local_[static_cast<size_t>(sig)] ? "uint64_t " + name(sig) : name(sig);
  }

  void emitOp(const Op& op, const std::string& indent) {
    out_ += indent + declared(op.dest) + " = " +
            maskExpr(opExpr(op), resultBits(op), width(op.dest)) + ";\n";
  }

  // --- conditional evaluation of multiplexor ways (§III-B) ---

  // Emits a sequence of ops (ascending topo order). With muxShadow on, any
  // op whose result is consumed only inside one arm of a mux in the same
  // sequence is sunk into that arm's branch, so the untaken way costs
  // nothing. Constants never appear here (the constructor stores them).
  // Emits positions [from, to) of `ops` as a convergence loop over a
  // combinational-loop supernode (paper §II).
  size_t emitSuperRun(const std::vector<int32_t>& ops, size_t from, const std::string& indent) {
    int32_t super = ir_.superOf(static_cast<size_t>(ops[from]));
    size_t to = from;
    while (to < ops.size() && ir_.superOf(static_cast<size_t>(ops[to])) == super) to++;
    out_ += indent + "{ // combinational-loop supernode: iterate to convergence\n";
    out_ += indent + "  bool again_ = true;\n";
    out_ += indent + "  for (int guard_ = 0; again_ && guard_ < 1000; guard_++) {\n";
    out_ += indent + "    again_ = false;\n";
    out_ += indent + "    uint64_t prev_;\n";
    for (size_t p = from; p < to; p++) {
      const Op& op = ir_.ops[static_cast<size_t>(ops[p])];
      out_ += indent + "    prev_ = " + name(op.dest) + ";\n";
      emitOp(op, indent + "    ");
      out_ += indent + "    again_ |= prev_ != " + name(op.dest) + ";\n";
    }
    out_ += indent + "  }\n" + indent + "}\n";
    return to;
  }

  void emitOpSeq(const std::vector<int32_t>& ops, const std::string& indent) {
    if (!opts_.muxShadow) {
      for (size_t pos = 0; pos < ops.size();) {
        const Op& op = ir_.ops[static_cast<size_t>(ops[pos])];
        if (ir_.superOf(static_cast<size_t>(ops[pos])) >= 0) {
          pos = emitSuperRun(ops, pos, indent);
          continue;
        }
        if (op.code != OpCode::Const) emitOp(op, indent);
        pos++;
      }
      return;
    }
    std::unordered_map<int32_t, size_t> posOfOp;
    for (size_t pos = 0; pos < ops.size(); pos++) posOfOp[ops[pos]] = pos;
    std::vector<char> sunk(ops.size(), 0);
    std::vector<std::vector<size_t>> arms[2];
    arms[0].resize(ops.size());
    arms[1].resize(ops.size());

    // Later muxes first, so an outer way can swallow an entire nested
    // mux (whose own ways are then collected when it is reached).
    for (size_t pos = ops.size(); pos-- > 0;) {
      const Op& op = ir_.ops[static_cast<size_t>(ops[pos])];
      if (op.code != OpCode::Mux) continue;
      if (ir_.superOf(static_cast<size_t>(ops[pos])) >= 0) continue;  // stay in loop body
      for (int arm = 0; arm < 2; arm++) {
        std::vector<int32_t> stack = {op.args[arm + 1]};
        auto& armList = arms[arm][pos];
        while (!stack.empty()) {
          int32_t sig = stack.back();
          stack.pop_back();
          if (useCount_[static_cast<size_t>(sig)] != 1) continue;
          int32_t def = ir_.signals[static_cast<size_t>(sig)].defOp;
          if (def < 0) continue;
          auto it = posOfOp.find(def);
          if (it == posOfOp.end() || sunk[it->second]) continue;
          const Op& dop = ir_.ops[static_cast<size_t>(def)];
          if (dop.code == OpCode::Const) continue;
          if (ir_.superOf(static_cast<size_t>(def)) >= 0) continue;  // loops stay in place
          sunk[it->second] = 1;
          armList.push_back(it->second);
          int n = dop.numArgs();
          for (int k = 0; k < n; k++) stack.push_back(dop.args[k]);
        }
        std::sort(armList.begin(), armList.end());
      }
    }

    for (size_t pos = 0; pos < ops.size();) {
      if (sunk[pos]) {
        pos++;
        continue;
      }
      if (ir_.superOf(static_cast<size_t>(ops[pos])) >= 0) {
        pos = emitSuperRun(ops, pos, indent);
        continue;
      }
      emitPosStructured(ops, arms, pos, indent);
      pos++;
    }
  }

  void emitPosStructured(const std::vector<int32_t>& ops,
                         const std::vector<std::vector<size_t>> (&arms)[2], size_t pos,
                         const std::string& indent) {
    const Op& op = ir_.ops[static_cast<size_t>(ops[pos])];
    if (op.code == OpCode::Const) return;  // hoisted
    if (op.code != OpCode::Mux || (arms[0][pos].empty() && arms[1][pos].empty())) {
      emitOp(op, indent);
      return;
    }
    std::string sel = name(op.args[0]);
    if (opts_.branchHints && op.args[0] == resetSig_)
      sel = strfmt("__builtin_expect(%s, 0)", sel.c_str());
    const bool sg = op.signedOp;
    auto armExpr = [&](int arm) {
      int32_t src = op.args[arm + 1];
      return sg ? maskExpr(sxU(src), 64, width(op.dest))
                : maskExpr(name(src), width(src), width(op.dest));
    };
    if (local_[static_cast<size_t>(op.dest)]) out_ += indent + declared(op.dest) + ";\n";
    out_ += indent + "if (" + sel + ") {\n";
    for (size_t p : arms[0][pos]) emitPosStructured(ops, arms, p, indent + "  ");
    out_ += indent + "  " + name(op.dest) + " = " + armExpr(0) + ";\n";
    out_ += indent + "} else {\n";
    for (size_t p : arms[1][pos]) emitPosStructured(ops, arms, p, indent + "  ");
    out_ += indent + "  " + name(op.dest) + " = " + armExpr(1) + ";\n";
    out_ += indent + "}\n";
  }

  void emitRegWrite(int32_t regIdx, const std::vector<int32_t>* wakeParts,
                    const std::string& indent) {
    const auto& r = ir_.regs[static_cast<size_t>(regIdx)];
    if (wakeParts) {
      out_ += indent + strfmt("if (%s != %s) {\n", name(r.sig).c_str(), name(r.next).c_str());
      out_ += indent + strfmt("  %s = %s;\n", name(r.sig).c_str(), name(r.next).c_str());
      for (int32_t p : *wakeParts) out_ += indent + strfmt("  act_[%d] = true;\n", p);
      out_ += indent + "}\n";
    } else {
      out_ += indent + strfmt("%s = %s;\n", name(r.sig).c_str(), name(r.next).c_str());
    }
  }

  void emitMemWrite(int32_t memIdx, int32_t writerIdx, const std::vector<int32_t>* wakeParts,
                    const std::string& indent) {
    const auto& m = ir_.mems[static_cast<size_t>(memIdx)];
    const auto& w = m.writers[static_cast<size_t>(writerIdx)];
    const std::string& arr = memNames_[static_cast<size_t>(memIdx)];
    out_ += indent + strfmt("if (%s && %s && %s < %llu) {\n", name(w.en).c_str(),
                            name(w.mask).c_str(), name(w.addr).c_str(),
                            static_cast<unsigned long long>(m.depth));
    if (wakeParts && !wakeParts->empty()) {
      out_ += indent + strfmt("  if (%s[%s] != %s) {\n", arr.c_str(), name(w.addr).c_str(),
                              name(w.data).c_str());
      out_ += indent + strfmt("    %s[%s] = %s;\n", arr.c_str(), name(w.addr).c_str(),
                              name(w.data).c_str());
      for (int32_t p : *wakeParts) out_ += indent + strfmt("    act_[%d] = true;\n", p);
      out_ += indent + "  }\n";
    } else {
      out_ += indent + strfmt("  %s[%s] = %s;\n", arr.c_str(), name(w.addr).c_str(),
                              name(w.data).c_str());
    }
    out_ += indent + "}\n";
  }

  void emitPrintsAndStops(const std::string& indent) {
    const char* hint = opts_.branchHints ? " [[unlikely]]" : "";
    for (const auto& p : ir_.prints) {
      out_ += indent + strfmt("if (%s)%s {\n", name(p.en).c_str(), hint);
      // Translate the FIRRTL format string into printf pieces.
      size_t argIdx = 0;
      std::string lit;
      auto flushLit = [&] {
        if (lit.empty()) return;
        std::string esc;
        for (char c : lit) {
          if (c == '\n') esc += "\\n";
          else if (c == '\t') esc += "\\t";
          else if (c == '"') esc += "\\\"";
          else if (c == '\\') esc += "\\\\";
          else if (c == '%') esc += "%%";
          else esc += c;
        }
        out_ += indent + "  std::printf(\"" + esc + "\");\n";
        lit.clear();
      };
      for (size_t i = 0; i < p.format.size(); i++) {
        char c = p.format[i];
        if (c != '%' || i + 1 >= p.format.size()) {
          lit += c;
          continue;
        }
        char f = p.format[++i];
        if (f == '%') {
          lit += '%';
          continue;
        }
        if (argIdx >= p.args.size()) {
          lit += '%';
          lit += f;
          continue;
        }
        flushLit();
        int32_t arg = p.args[argIdx++];
        switch (f) {
          case 'd':
            if (isSigned(arg))
              out_ += indent + strfmt("  std::printf(\"%%lld\", (long long)%s);\n", sx(arg).c_str());
            else
              out_ += indent + strfmt("  std::printf(\"%%llu\", (unsigned long long)%s);\n",
                                      name(arg).c_str());
            break;
          case 'x':
            out_ += indent + strfmt("  std::printf(\"%%llx\", (unsigned long long)%s);\n",
                                    name(arg).c_str());
            break;
          case 'b':
            out_ += indent + strfmt("  printBin_(%s, %u);\n", name(arg).c_str(), width(arg));
            break;
          case 'c':
            out_ += indent + strfmt("  std::putchar((int)(%s & 0xff));\n", name(arg).c_str());
            break;
          default:
            lit += '%';
            lit += f;
            break;
        }
      }
      flushLit();
      out_ += indent + "}\n";
    }
    for (const auto& st : ir_.stops) {
      out_ += indent + strfmt("if (%s && !stopped_)%s { stopped_ = true; exit_code_ = %d; }\n",
                              name(st.en).c_str(), hint, st.exitCode);
    }
    for (const auto& a : ir_.asserts) {
      std::string msg;
      for (char c : a.message) {
        if (c == '\n') msg += "\\n";
        else if (c == '"') msg += "\\\"";
        else if (c == '\\') msg += "\\\\";
        else if (c == '%') msg += "%%";
        else msg += c;
      }
      out_ += indent + strfmt("if (%s && !%s && !stopped_)%s { std::printf(\"assertion "
                              "failed: %s\\n\"); stopped_ = true; exit_code_ = 65; }\n",
                              name(a.en).c_str(), name(a.pred).c_str(), hint, msg.c_str());
    }
  }

  // One partition function; `sig` is the full signature (in-class or
  // out-of-line qualified), `ind` the body indentation, `close` the line
  // ending the definition.
  void emitPartitionFunction(size_t pos, const std::string& sig, const std::string& ind,
                             const std::string& close) {
    const auto& part = sched_->parts[pos];
    out_ += sig + " {\n";
    out_ += ind + strfmt("act_[%zu] = false;\n", pos);
    for (size_t oi = 0; oi < part.outputs.size(); oi++)
      out_ += ind + strfmt("const uint64_t old%zu_ = %s;\n", oi,
                           name(part.outputs[oi].sig).c_str());
    emitOpSeq(part.ops, ind);
    for (const auto& rw : part.regWrites) emitRegWrite(rw.regIdx, &rw.wakeParts, ind);
    for (const auto& mw : part.memWrites)
      emitMemWrite(mw.memIdx, mw.writerIdx, &mw.wakeParts, ind);
    for (size_t oi = 0; oi < part.outputs.size(); oi++) {
      const auto& o = part.outputs[oi];
      // Branchless OR-reduction trigger (Figure 1).
      out_ += ind + strfmt("{ const bool ch%zu_ = old%zu_ != %s;\n", oi, oi,
                           name(o.sig).c_str());
      for (int32_t c : o.consumers) out_ += ind + strfmt("  act_[%d] |= ch%zu_;\n", c, oi);
      out_ += ind + "}\n";
    }
    out_ += close;
  }

  void emitPartitionFunctions() {
    for (size_t pos = 0; pos < sched_->parts.size(); pos++)
      emitPartitionFunction(pos, strfmt("  void part_%zu_()", pos), "    ", "  }\n");
    out_ += "\n";
  }

  void emitInputSweep(const std::string& ind) {
    for (size_t i = 0; i < ir_.inputs.size(); i++) {
      int32_t in = ir_.inputs[i];
      out_ += ind + strfmt("if (first_cycle_ || %s != prev_%s_) {\n", name(in).c_str(),
                           name(in).c_str());
      for (int32_t p : sched_->inputConsumers[i]) out_ += ind + strfmt("  act_[%d] = true;\n", p);
      out_ += ind + strfmt("  prev_%s_ = %s;\n", name(in).c_str(), name(in).c_str());
      out_ += ind + "}\n";
    }
  }

  void emitEval() {
    out_ += "  // Advances one clock cycle (combinational settle + side effects +\n";
    out_ += "  // state update).\n";
    out_ += "  void eval() {\n";
    if (!opts_.ccss) {
      std::vector<int32_t> all(ir_.ops.size());
      for (size_t i = 0; i < all.size(); i++) all[i] = static_cast<int32_t>(i);
      emitOpSeq(all, "    ");
      emitPrintsAndStops("    ");
      for (size_t r = 0; r < ir_.regs.size(); r++)
        emitRegWrite(static_cast<int32_t>(r), nullptr, "    ");
      for (size_t m = 0; m < ir_.mems.size(); m++)
        for (size_t w = 0; w < ir_.mems[m].writers.size(); w++)
          emitMemWrite(static_cast<int32_t>(m), static_cast<int32_t>(w), nullptr, "    ");
    } else {
      out_ += "    // 1. external input change detection\n";
      emitInputSweep("    ");
      out_ += "    first_cycle_ = false;\n";
      out_ += "    // 2. singular static partition sweep\n";
      for (size_t pos = 0; pos < sched_->parts.size(); pos++)
        out_ += strfmt("    if (act_[%zu]) part_%zu_();\n", pos, pos);
      out_ += "    // 3. side effects\n";
      emitPrintsAndStops("    ");
      out_ += "    // 4. phase 2: non-elided state elements\n";
      for (const auto& rw : sched_->deferredRegs) emitRegWrite(rw.regIdx, &rw.wakeParts, "    ");
      for (const auto& mw : sched_->deferredMemWrites)
        emitMemWrite(mw.memIdx, mw.writerIdx, &mw.wakeParts, "    ");
    }
    out_ += "    cycles_++;\n  }\n";
  }
};

}  // namespace

std::string emitCpp(const SimIR& ir, const CondPartSchedule* schedule,
                    const CodegenOptions& opts) {
  obs::ScopedPhaseTimer phaseTimer("codegen");
  Emitter e(ir, schedule, opts);
  return e.run();
}

ShardedCpp emitCppSharded(const SimIR& ir, const CondPartSchedule* schedule,
                          const CodegenOptions& opts, uint32_t shards,
                          const std::string& base) {
  obs::ScopedPhaseTimer phaseTimer("codegen");
  Emitter e(ir, schedule, opts);
  return e.runSharded(shards, base);
}

std::string memberName(const SimIR& ir, int32_t sig, const std::string& className) {
  return buildNames(ir, className)[static_cast<size_t>(sig)];
}

std::string memArrayName(const SimIR& ir, size_t memIdx) { return buildMemNames(ir)[memIdx]; }

}  // namespace essent::codegen
