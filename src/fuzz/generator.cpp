#include "fuzz/generator.h"

#include <algorithm>
#include <vector>

#include "support/rng.h"
#include "support/strutil.h"

namespace essent::fuzz {

namespace {

struct Val {
  std::string ref;
  uint32_t width;
  bool sgn;
};

// Builds one module body. All primops stay reachable; when `wide` is false
// every intermediate is kept <= 64 bits so the circuit remains eligible for
// the compiled codegen engine (which rejects any >64-bit signal, including
// temporaries).
struct ModGen {
  Rng& rng;
  bool wide;
  uint32_t cap;  // hard bound on any intermediate width
  std::string body;
  std::vector<Val> pool;
  uint32_t nextId = 0;

  ModGen(Rng& r, bool w) : rng(r), wide(w), cap(w ? 120 : 64) {}

  // Widths biased toward the word-boundary edges where fast-path and
  // codegen shapes change (1/2/31/32/33/63/64, plus >64 when wide).
  uint32_t pickWidth(uint32_t maxw) {
    static const uint32_t edges[] = {1, 2, 7, 8, 16, 31, 32, 33, 63, 64};
    if (wide && maxw > 64 && rng.nextChance(0.4))
      return 65 + static_cast<uint32_t>(rng.nextBelow(maxw - 64));
    if (rng.nextChance(0.6)) {
      uint32_t w = edges[rng.nextBelow(10)];
      if (w <= maxw) return w;
    }
    return 1 + static_cast<uint32_t>(rng.nextBelow(maxw));
  }

  Val pick() { return pool[rng.nextBelow(pool.size())]; }

  Val emitNode(const std::string& expr, uint32_t width, bool sgn) {
    std::string name = strfmt("n%u", nextId++);
    body += strfmt("    node %s = %s\n", name.c_str(), expr.c_str());
    Val v{name, width, sgn};
    pool.push_back(v);
    return v;
  }

  Val coerce(Val v, bool wantSigned) {
    if (v.sgn == wantSigned) return v;
    return Val{strfmt("%s(%s)", wantSigned ? "asSInt" : "asUInt", v.ref.c_str()), v.width,
               wantSigned};
  }

  // Truncates to at most maxw bits, preserving requested signedness.
  Val narrowTo(Val v, uint32_t maxw) {
    if (v.width <= maxw) return v;
    bool sgn = v.sgn;
    Val u{strfmt("bits(%s, %u, 0)", v.ref.c_str(), maxw - 1), maxw, false};
    return sgn ? emitNode(strfmt("asSInt(%s)", u.ref.c_str()), maxw, true) : u;
  }

  Val pickOneBit() {
    for (int tries = 0; tries < 8; tries++) {
      Val v = pick();
      if (v.width == 1 && !v.sgn) return v;
    }
    return emitNode(strfmt("orr(%s)", pick().ref.c_str()), 1, false);
  }

  // Fits v to exactly (w, sgn) — used for port connects.
  Val fit(Val v, uint32_t w, bool sgn) {
    v = coerce(v, false);
    std::string e = v.ref;
    uint32_t cur = v.width;
    if (cur > w) {
      e = strfmt("bits(%s, %u, 0)", e.c_str(), w - 1);
      cur = w;
    } else if (cur < w) {
      e = strfmt("pad(%s, %u)", e.c_str(), w);
      cur = w;
    }
    if (sgn) e = strfmt("asSInt(%s)", e.c_str());
    return Val{e, w, sgn};
  }

  Val randomLiteral() {
    uint32_t w = pickWidth(std::min(cap, 64u));
    // Bias toward boundary values (0, 1, all-ones, sign bit) that trip
    // division/remainder and shift edge cases.
    uint64_t mask = w >= 64 ? ~0ull : ((1ull << w) - 1);
    uint64_t mag;
    switch (rng.nextBelow(5)) {
      case 0: mag = 0; break;
      case 1: mag = 1 & mask; break;
      case 2: mag = mask; break;                            // -1 signed / max
      case 3: mag = (1ull << (w - 1)) & mask; break;        // INT_MIN-style
      default: mag = rng.next() & mask; break;
    }
    bool sgn = rng.nextChance(0.3);
    if (sgn)
      return Val{strfmt("asSInt(UInt<%u>(\"h%llx\"))", w, static_cast<unsigned long long>(mag)),
                 w, true};
    return Val{strfmt("UInt<%u>(\"h%llx\")", w, static_cast<unsigned long long>(mag)), w, false};
  }

  Val makeExpr(int depth = 0) {
    if (depth > 6) return randomLiteral();
    int kind = static_cast<int>(rng.nextBelow(22));
    Val a = pick();
    switch (kind) {
      case 0: {  // add/sub: result max(wa,wb)+1, so operands stay < cap
        a = narrowTo(a, cap - 1);
        Val b = narrowTo(coerce(pick(), a.sgn), cap - 1);
        b = coerce(b, a.sgn);
        const char* op = rng.nextBool() ? "add" : "sub";
        return Val{strfmt("%s(%s, %s)", op, a.ref.c_str(), b.ref.c_str()),
                   std::max(a.width, b.width) + 1, a.sgn};
      }
      case 1: {  // mul: result wa+wb
        uint32_t half = cap / 2;
        a = narrowTo(a, half);
        Val b = narrowTo(coerce(pick(), a.sgn), cap - a.width);
        b = coerce(b, a.sgn);
        return Val{strfmt("mul(%s, %s)", a.ref.c_str(), b.ref.c_str()), a.width + b.width,
                   a.sgn};
      }
      case 2: {  // div: signed result is wa+1
        if (a.sgn) a = narrowTo(a, cap - 1);
        Val b = coerce(pick(), a.sgn);
        return Val{strfmt("div(%s, %s)", a.ref.c_str(), b.ref.c_str()),
                   a.sgn ? a.width + 1 : a.width, a.sgn};
      }
      case 3: {  // rem: result min(wa,wb) — the signed 64/64 case is legal
        Val b = coerce(pick(), a.sgn);
        return Val{strfmt("rem(%s, %s)", a.ref.c_str(), b.ref.c_str()),
                   std::min(a.width, b.width), a.sgn};
      }
      case 4: {  // comparisons
        Val b = coerce(pick(), a.sgn);
        static const char* cmps[] = {"lt", "leq", "gt", "geq", "eq", "neq"};
        return Val{strfmt("%s(%s, %s)", cmps[rng.nextBelow(6)], a.ref.c_str(), b.ref.c_str()),
                   1, false};
      }
      case 5: {  // bitwise binary
        Val b = coerce(pick(), a.sgn);
        static const char* ops[] = {"and", "or", "xor"};
        return Val{strfmt("%s(%s, %s)", ops[rng.nextBelow(3)], a.ref.c_str(), b.ref.c_str()),
                   std::max(a.width, b.width), false};
      }
      case 6:  // not
        return Val{strfmt("not(%s)", a.ref.c_str()), a.width, false};
      case 7: {  // reductions
        static const char* ops[] = {"andr", "orr", "xorr"};
        return Val{strfmt("%s(%s)", ops[rng.nextBelow(3)], a.ref.c_str()), 1, false};
      }
      case 8: {  // cat
        a = narrowTo(a, cap - 1);
        Val b = narrowTo(pick(), cap - a.width);
        return Val{strfmt("cat(%s, %s)", a.ref.c_str(), b.ref.c_str()), a.width + b.width,
                   false};
      }
      case 9: {  // bits
        uint32_t lo = static_cast<uint32_t>(rng.nextBelow(a.width));
        uint32_t hi = lo + static_cast<uint32_t>(rng.nextBelow(a.width - lo));
        return Val{strfmt("bits(%s, %u, %u)", a.ref.c_str(), hi, lo), hi - lo + 1, false};
      }
      case 10: {  // pad
        uint32_t n = pickWidth(cap);
        return Val{strfmt("pad(%s, %u)", a.ref.c_str(), n), std::max(a.width, n), a.sgn};
      }
      case 11: {  // shl: result wa+n
        if (a.width >= cap) a = narrowTo(a, cap - 1);
        uint32_t n = static_cast<uint32_t>(rng.nextBelow(cap - a.width + 1));
        return Val{strfmt("shl(%s, %u)", a.ref.c_str(), n), a.width + n, a.sgn};
      }
      case 12: {  // shr: amounts past the width exercise the clamp
        uint32_t n = static_cast<uint32_t>(rng.nextBelow(a.width + 2));
        return Val{strfmt("shr(%s, %u)", a.ref.c_str(), n),
                   std::max<uint32_t>(a.width > n ? a.width - n : 0, 1), a.sgn};
      }
      case 13: {  // dshl: result wa + 2^wb - 1; keep the shift field narrow
        Val b = coerce(pick(), false);
        uint32_t sb = 1 + static_cast<uint32_t>(rng.nextBelow(3));  // 1..3 bits
        if (b.width > sb) {
          b = Val{strfmt("bits(%s, %u, 0)", b.ref.c_str(), sb - 1), sb, false};
        }
        uint32_t extra = (1u << b.width) - 1;
        if (a.width + extra > cap) a = narrowTo(a, cap - extra);
        return Val{strfmt("dshl(%s, %s)", a.ref.c_str(), b.ref.c_str()), a.width + extra,
                   a.sgn};
      }
      case 14: {  // dshr: shift amounts can exceed the operand width
        Val b = coerce(pick(), false);
        if (b.width > 7) b = Val{strfmt("bits(%s, 6, 0)", b.ref.c_str()), 7, false};
        return Val{strfmt("dshr(%s, %s)", a.ref.c_str(), b.ref.c_str()), a.width, a.sgn};
      }
      case 15:  // cvt: unsigned grows one bit
        if (!a.sgn && a.width >= cap) a = narrowTo(a, cap - 1);
        return Val{strfmt("cvt(%s)", a.ref.c_str()), a.sgn ? a.width : a.width + 1, true};
      case 16:  // neg
        if (a.width >= cap) a = narrowTo(a, cap - 1);
        return Val{strfmt("neg(%s)", a.ref.c_str()), a.width + 1, true};
      case 17: {  // head/tail
        if (a.width < 2) return makeExpr(depth + 1);
        uint32_t n = 1 + static_cast<uint32_t>(rng.nextBelow(a.width - 1));
        if (rng.nextBool()) return Val{strfmt("head(%s, %u)", a.ref.c_str(), n), n, false};
        return Val{strfmt("tail(%s, %u)", a.ref.c_str(), n), a.width - n, false};
      }
      case 18: {  // mux
        Val sel = pickOneBit();
        Val t = pick();
        Val f = coerce(pick(), t.sgn);
        return Val{strfmt("mux(%s, %s, %s)", sel.ref.c_str(), t.ref.c_str(), f.ref.c_str()),
                   std::max(t.width, f.width), t.sgn};
      }
      case 19: {  // validif
        Val c = pickOneBit();
        return Val{strfmt("validif(%s, %s)", c.ref.c_str(), a.ref.c_str()), a.width, a.sgn};
      }
      case 20:  // literal
        return randomLiteral();
      default:  // reinterpret cast for depth
        return Val{strfmt("%s(%s)", a.sgn ? "asUInt" : "asSInt", a.ref.c_str()), a.width,
                   !a.sgn};
    }
  }

  void emitExprNodes(uint32_t count) {
    for (uint32_t i = 0; i < count; i++) {
      Val v = makeExpr();
      emitNode(v.ref, v.width, v.sgn);
    }
  }

  // One or two XOR or OR trees, each over 16-24 fresh registers and folded
  // into one named node; two trees are combined into a third. Every tree
  // node has one consumer, so the trees are one large fanout-free cone
  // whose sub-trees the partitioner cuts off. Sometimes the first tree's
  // first pair is a named node that also feeds the second tree: then
  // neither tree is independent and both must stay in the cone. Some banks
  // are shift chains (each register loads the one before), which makes
  // registers load other registers with no logic between. Returns the
  // final node.
  Val emitReductionTrees() {
    const uint32_t w = pickWidth(std::min(cap, 64u));
    const char* op = rng.nextBool() ? "xor" : "or";
    const uint32_t trees = 1 + static_cast<uint32_t>(rng.nextBelow(2));
    const bool shareLeaf = trees == 2 && rng.nextChance(0.5);
    std::string shared;
    std::vector<std::string> roots;
    for (uint32_t t = 0; t < trees; t++) {
      const uint32_t n = 16 + static_cast<uint32_t>(rng.nextBelow(9));
      const bool chain = rng.nextChance(0.3);
      std::vector<std::string> layer;
      for (uint32_t i = 0; i < n; i++) {
        std::string reg = strfmt("q%u_%u", t, i);
        if (rng.nextChance(0.5))
          body += strfmt("    reg %s : UInt<%u>, clock with : (reset => (reset, UInt<%u>(0)))\n",
                         reg.c_str(), w, w);
        else
          body += strfmt("    reg %s : UInt<%u>, clock\n", reg.c_str(), w);
        std::string next = chain && i > 0 ? layer.back() : fit(pick(), w, false).ref;
        body += strfmt("    %s <= %s\n", reg.c_str(), next.c_str());
        layer.push_back(reg);
      }
      if (shareLeaf && t == 0) {
        shared = strfmt("n%u", nextId++);
        body += strfmt("    node %s = %s(%s, %s)\n", shared.c_str(), op, layer[0].c_str(),
                       layer[1].c_str());
        layer.erase(layer.begin(), layer.begin() + 2);
        layer.insert(layer.begin(), shared);
      } else if (shareLeaf) {
        layer[0] = strfmt("%s(%s, %s)", op, layer[0].c_str(), shared.c_str());
      }
      while (layer.size() > 1) {
        std::vector<std::string> up;
        for (size_t i = 0; i + 1 < layer.size(); i += 2)
          up.push_back(strfmt("%s(%s, %s)", op, layer[i].c_str(), layer[i + 1].c_str()));
        if (layer.size() % 2) up.push_back(layer.back());
        layer = std::move(up);
      }
      roots.push_back(emitNode(layer[0], w, false).ref);
    }
    if (trees == 1) return Val{roots[0], w, false};
    return emitNode(strfmt("%s(%s, %s)", op, roots[0].c_str(), roots[1].c_str()), w, false);
  }
};

// A generated sub-module's interface, for instantiation by the top module.
struct ChildModule {
  std::string name;
  std::string text;  // full "  module N :" block
  bool registered = false;
  std::vector<std::pair<std::string, Val>> ins;   // port name -> width/sign
  std::vector<std::pair<std::string, Val>> outs;
};

ChildModule generateChild(Rng& rng, uint32_t index, bool wide) {
  ChildModule cm;
  cm.name = strfmt("Sub%u", index);
  cm.registered = rng.nextBool();
  ModGen g(rng, wide);

  std::string ports;
  if (cm.registered)
    ports += "    input clock : Clock\n    input reset : UInt<1>\n";
  uint32_t nIns = 1 + static_cast<uint32_t>(rng.nextBelow(3));
  for (uint32_t i = 0; i < nIns; i++) {
    uint32_t w = g.pickWidth(32);
    bool sgn = rng.nextChance(0.3);
    std::string pn = strfmt("i%u", i);
    ports += strfmt("    input %s : %s<%u>\n", pn.c_str(), sgn ? "SInt" : "UInt", w);
    g.pool.push_back(Val{pn, w, sgn});
    cm.ins.push_back({pn, Val{pn, w, sgn}});
  }

  std::vector<std::string> regNames;
  if (cm.registered) {
    uint32_t nRegs = 1 + static_cast<uint32_t>(rng.nextBelow(2));
    for (uint32_t r = 0; r < nRegs; r++) {
      std::string rn = strfmt("q%u", r);
      uint32_t w = g.pickWidth(32);
      bool sgn = rng.nextChance(0.3);
      const char* ty = sgn ? "SInt" : "UInt";
      if (rng.nextChance(0.7))
        g.body += strfmt("    reg %s : %s<%u>, clock with : (reset => (reset, %s<%u>(0)))\n",
                         rn.c_str(), ty, w, ty, w);
      else
        g.body += strfmt("    reg %s : %s<%u>, clock\n", rn.c_str(), ty, w);
      g.pool.push_back(Val{rn, w, sgn});
      regNames.push_back(rn);
    }
    g.emitExprNodes(4 + static_cast<uint32_t>(rng.nextBelow(5)));
    for (const std::string& rn : regNames) {
      for (const Val& v : g.pool)
        if (v.ref == rn) {
          Val next = g.fit(g.pick(), v.width, v.sgn);
          g.body += strfmt("    %s <= %s\n", rn.c_str(), next.ref.c_str());
          break;
        }
    }
  } else {
    g.emitExprNodes(4 + static_cast<uint32_t>(rng.nextBelow(5)));
  }

  uint32_t nOuts = 1 + static_cast<uint32_t>(rng.nextBelow(2));
  std::string outPorts, outConnects;
  for (uint32_t o = 0; o < nOuts; o++) {
    Val v = g.pick();
    v = g.narrowTo(v, 64);  // keep instance boundaries codegen-friendly
    std::string pn = strfmt("o%u", o);
    outPorts += strfmt("    output %s : %s<%u>\n", pn.c_str(), v.sgn ? "SInt" : "UInt",
                       v.width);
    outConnects += strfmt("    %s <= %s\n", pn.c_str(), v.ref.c_str());
    cm.outs.push_back({pn, Val{pn, v.width, v.sgn}});
  }

  cm.text = strfmt("  module %s :\n", cm.name.c_str()) + ports + outPorts + g.body +
            outConnects;
  return cm;
}

}  // namespace

std::string generateCircuit(uint64_t seed, const GenOptions& opts) {
  Rng rng(seed);
  ModGen g(rng, opts.allowWide);

  std::string ports = "    input clock : Clock\n    input reset : UInt<1>\n";
  g.pool.push_back(Val{"reset", 1, false});
  for (uint32_t i = 0; i < opts.numInputs; i++) {
    uint32_t w = g.pickWidth(std::min(g.cap, 64u));
    bool sgn = rng.nextChance(0.3);
    ports += strfmt("    input in%u : %s<%u>\n", i, sgn ? "SInt" : "UInt", w);
    g.pool.push_back(Val{strfmt("in%u", i), w, sgn});
  }

  // Registers first so combinational logic can read them; connects come
  // after the nodes (FIRRTL allows forward refs only through regs).
  struct RegDecl {
    std::string name;
    uint32_t width;
    bool sgn;
    int gate;  // 0 plain, 1 when, 2 when/else, 3 nested when
  };
  std::vector<RegDecl> regs;
  for (uint32_t r = 0; r < opts.numRegs; r++) {
    RegDecl rd;
    rd.name = strfmt("r%u", r);
    rd.width = g.pickWidth(std::min(g.cap, 64u));
    rd.sgn = rng.nextChance(0.3);
    rd.gate = static_cast<int>(rng.nextBelow(4));
    const char* ty = rd.sgn ? "SInt" : "UInt";
    if (rng.nextChance(0.7))
      g.body += strfmt("    reg %s : %s<%u>, clock with : (reset => (reset, %s<%u>(0)))\n",
                       rd.name.c_str(), ty, rd.width, ty, rd.width);
    else
      g.body += strfmt("    reg %s : %s<%u>, clock\n", rd.name.c_str(), ty, rd.width);
    g.pool.push_back(Val{rd.name, rd.width, rd.sgn});
    regs.push_back(rd);
  }

  // Sub-modules: generated with an independent pool, instantiated 1-2 times
  // each; their outputs feed back into the top-level pool.
  std::string childText;
  uint32_t instId = 0;
  if (opts.allowMultiModule && rng.nextChance(0.7)) {
    uint32_t nChildren = 1 + static_cast<uint32_t>(rng.nextBelow(2));
    for (uint32_t c = 0; c < nChildren; c++) {
      ChildModule cm = generateChild(rng, c, /*wide=*/false);
      childText += cm.text;
      uint32_t nInst = 1 + static_cast<uint32_t>(rng.nextBelow(2));
      for (uint32_t k = 0; k < nInst; k++) {
        std::string in = strfmt("u%u", instId++);
        g.body += strfmt("    inst %s of %s\n", in.c_str(), cm.name.c_str());
        if (cm.registered) {
          g.body += strfmt("    %s.clock <= clock\n", in.c_str());
          g.body += strfmt("    %s.reset <= reset\n", in.c_str());
        }
        for (const auto& [pn, pv] : cm.ins) {
          Val src = g.fit(g.pick(), pv.width, pv.sgn);
          g.body += strfmt("    %s.%s <= %s\n", in.c_str(), pn.c_str(), src.ref.c_str());
        }
        for (const auto& [pn, pv] : cm.outs)
          g.pool.push_back(Val{strfmt("%s.%s", in.c_str(), pn.c_str()), pv.width, pv.sgn});
      }
    }
  }

  // First tranche of combinational nodes.
  uint32_t firstHalf = opts.exprNodes / 2;
  g.emitExprNodes(firstHalf);

  // Wide reduction trees, always observed through an output of their own.
  std::vector<Val> reductions;
  if (rng.nextChance(0.3)) reductions.push_back(g.emitReductionTrees());

  // Memories.
  uint32_t memId = 0;
  if (opts.allowMems && rng.nextChance(0.7)) {
    uint32_t nMems = 1 + static_cast<uint32_t>(rng.nextBelow(2));
    for (uint32_t m = 0; m < nMems; m++) {
      std::string mn = strfmt("m%u", memId++);
      static const uint32_t depths[] = {4, 8, 16, 32};
      uint32_t depth = depths[rng.nextBelow(4)];
      uint32_t aw = depth == 4 ? 2 : depth == 8 ? 3 : depth == 16 ? 4 : 5;
      uint32_t dw = g.pickWidth(std::min(g.cap, 64u));
      uint32_t rlat = rng.nextBool() ? 1 : 0;
      g.body += strfmt(
          "    mem %s :\n"
          "      data-type => UInt<%u>\n"
          "      depth => %u\n"
          "      read-latency => %u\n"
          "      write-latency => 1\n"
          "      read-under-write => undefined\n"
          "      reader => r\n"
          "      writer => w\n",
          mn.c_str(), dw, depth, rlat);
      Val waddr = g.fit(g.pick(), aw, false);
      // Same-cycle read/write address aliasing with decent probability:
      // exercises read-under-write ordering across engines.
      Val raddr = rng.nextChance(0.35) ? waddr : g.fit(g.pick(), aw, false);
      Val ren = rng.nextChance(0.3) ? g.pickOneBit() : Val{"UInt<1>(1)", 1, false};
      Val wen = rng.nextChance(0.7) ? g.pickOneBit() : Val{"UInt<1>(1)", 1, false};
      Val wdata = g.fit(g.pick(), dw, false);
      g.body += strfmt("    %s.r.addr <= %s\n", mn.c_str(), raddr.ref.c_str());
      g.body += strfmt("    %s.r.en <= %s\n", mn.c_str(), ren.ref.c_str());
      g.body += strfmt("    %s.r.clk <= clock\n", mn.c_str());
      g.body += strfmt("    %s.w.addr <= %s\n", mn.c_str(), waddr.ref.c_str());
      g.body += strfmt("    %s.w.en <= %s\n", mn.c_str(), wen.ref.c_str());
      g.body += strfmt("    %s.w.clk <= clock\n", mn.c_str());
      g.body += strfmt("    %s.w.data <= %s\n", mn.c_str(), wdata.ref.c_str());
      g.body += strfmt("    %s.w.mask <= UInt<1>(1)\n", mn.c_str());
      g.pool.push_back(Val{strfmt("%s.r.data", mn.c_str()), dw, false});
    }
  }

  // Second tranche (consumes memory read data and instance outputs).
  g.emitExprNodes(opts.exprNodes - firstHalf);

  // Register next-value connects, possibly when-gated (nested gating
  // exercises when-expansion mux chains).
  for (const auto& rd : regs) {
    Val next = g.fit(g.pick(), rd.width, rd.sgn);
    switch (rd.gate) {
      case 0:
        g.body += strfmt("    %s <= %s\n", rd.name.c_str(), next.ref.c_str());
        break;
      case 1: {
        Val en = g.pickOneBit();
        g.body += strfmt("    when %s :\n      %s <= %s\n", en.ref.c_str(), rd.name.c_str(),
                         next.ref.c_str());
        break;
      }
      case 2: {
        Val en = g.pickOneBit();
        Val alt = g.fit(g.pick(), rd.width, rd.sgn);
        g.body += strfmt("    when %s :\n      %s <= %s\n    else :\n      %s <= %s\n",
                         en.ref.c_str(), rd.name.c_str(), next.ref.c_str(), rd.name.c_str(),
                         alt.ref.c_str());
        break;
      }
      default: {
        Val en1 = g.pickOneBit();
        Val en2 = g.pickOneBit();
        Val alt = g.fit(g.pick(), rd.width, rd.sgn);
        g.body += strfmt(
            "    when %s :\n      when %s :\n        %s <= %s\n      else :\n"
            "        %s <= %s\n",
            en1.ref.c_str(), en2.ref.c_str(), rd.name.c_str(), next.ref.c_str(),
            rd.name.c_str(), alt.ref.c_str());
        break;
      }
    }
  }

  // Optional printf: exercises the print-buffer comparison in the oracle.
  if (opts.allowPrints && rng.nextChance(0.25)) {
    Val en = g.pickOneBit();
    Val v1 = g.pick();
    Val v2 = g.pick();
    static const char* fmts[] = {"p %d %x\\n", "p %x %b\\n", "p %d %d\\n"};
    g.body += strfmt("    printf(clock, %s, \"%s\", %s, %s)\n", en.ref.c_str(),
                     fmts[rng.nextBelow(3)], v1.ref.c_str(), v2.ref.c_str());
  }

  // Outputs: several random picks plus every register, so the differential
  // oracle observes plenty of state.
  std::string outPorts, outConnects;
  uint32_t nOuts = 4;
  for (uint32_t o = 0; o < nOuts; o++) {
    Val v = g.pick();
    outPorts += strfmt("    output out%u : %s<%u>\n", o, v.sgn ? "SInt" : "UInt", v.width);
    outConnects += strfmt("    out%u <= %s\n", o, v.ref.c_str());
  }
  for (size_t r = 0; r < regs.size(); r++) {
    outPorts += strfmt("    output rout%zu : %s<%u>\n", r, regs[r].sgn ? "SInt" : "UInt",
                       regs[r].width);
    outConnects += strfmt("    rout%zu <= %s\n", r, regs[r].name.c_str());
  }
  for (size_t r = 0; r < reductions.size(); r++) {
    outPorts += strfmt("    output red%zu : UInt<%u>\n", r, reductions[r].width);
    outConnects += strfmt("    red%zu <= %s\n", r, reductions[r].ref.c_str());
  }

  return "circuit Fuzz :\n" + childText + "  module Fuzz :\n" + ports + outPorts + g.body +
         outConnects;
}

}  // namespace essent::fuzz
