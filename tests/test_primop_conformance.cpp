// Per-primop conformance: for every FIRRTL primitive operation, random
// operand widths (straddling the 64-bit fast/slow path boundary) and random
// values, a one-op circuit built through the full frontend must produce
// exactly the reference semantics of support/bvops.h — checking the parser,
// width inference, the builder, and both evaluator paths in one sweep.
#include <gtest/gtest.h>

#include <functional>

#include "sim/compile.h"
#include "sim/full_cycle.h"
#include "support/bvops.h"
#include "support/rng.h"
#include "support/strutil.h"

namespace essent {
namespace {

using RefFn2 = std::function<BitVec(const BitVec&, const BitVec&, bool)>;

struct BinaryCase {
  const char* name;
  RefFn2 ref;
  bool signedOk;  // also test the SInt flavour
};

// Print the op name; gtest's default dumps the raw bytes (pointers included),
// which makes the listed test names differ from one process to the next.
void PrintTo(const BinaryCase& c, std::ostream* os) { *os << c.name; }

class BinaryPrimOp : public ::testing::TestWithParam<BinaryCase> {};

TEST_P(BinaryPrimOp, MatchesReferenceAcrossWidths) {
  const auto& pc = GetParam();
  Rng rng(std::hash<std::string>{}(pc.name));
  const uint32_t widths[] = {1, 3, 8, 16, 31, 33, 63, 64, 65, 100};
  for (uint32_t wa : widths) {
    for (uint32_t wb : {wa, (wa % 7) + 1, 70u}) {
      for (bool sgn : {false, true}) {
        if (sgn && !pc.signedOk) continue;
        const char* ty = sgn ? "SInt" : "UInt";
        // Output width declared from the reference result width.
        BitVec za(wa), zb(wb);
        uint32_t ow = pc.ref(za, zb, sgn).width();
        std::string text = strfmt(
            "circuit T :\n  module T :\n    input a : %s<%u>\n    input b : %s<%u>\n"
            "    output o : %s<%u>\n    o <= %s(a, b)\n",
            ty, wa, ty, wb, pc.ref(za, zb, sgn).width() == 1 && !sgn ? "UInt" : ty, ow,
            pc.name);
        // Comparisons and bitwise ops return UInt regardless of operands.
        sim::SimIR ir;
        try {
          ir = sim::buildFromFirrtl(text);
        } catch (const std::exception& e) {
          // Result-type signedness differs per op; retry with UInt output.
          text = strfmt(
              "circuit T :\n  module T :\n    input a : %s<%u>\n    input b : %s<%u>\n"
              "    output o : UInt<%u>\n    o <= asUInt(%s(a, b))\n",
              ty, wa, ty, wb, ow, pc.name);
          ir = sim::buildFromFirrtl(text);
        }
        sim::FullCycleEngine eng(sim::CompiledDesign::compile(ir));
        for (int iter = 0; iter < 12; iter++) {
          BitVec va(wa), vb(wb);
          for (uint32_t i = 0; i < wa; i++) va.setBit(i, rng.nextBool());
          for (uint32_t i = 0; i < wb; i++) vb.setBit(i, rng.nextBool());
          eng.pokeBV("a", va);
          eng.pokeBV("b", vb);
          eng.tick();
          BitVec want = bvops::extend(pc.ref(va, vb, sgn), false, ow);
          BitVec got = eng.peekBV("o");
          ASSERT_EQ(got.toHexString(), want.toHexString())
              << pc.name << " wa=" << wa << " wb=" << wb << " sgn=" << sgn
              << " a=" << va.toHexString() << " b=" << vb.toHexString();
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Ops, BinaryPrimOp,
    ::testing::Values(
        BinaryCase{"add", [](const BitVec& a, const BitVec& b, bool s) { return bvops::add(a, b, s); }, true},
        BinaryCase{"sub", [](const BitVec& a, const BitVec& b, bool s) { return bvops::sub(a, b, s); }, true},
        BinaryCase{"mul", [](const BitVec& a, const BitVec& b, bool s) { return bvops::mul(a, b, s); }, true},
        BinaryCase{"div", [](const BitVec& a, const BitVec& b, bool s) { return bvops::div(a, b, s); }, true},
        BinaryCase{"rem", [](const BitVec& a, const BitVec& b, bool s) { return bvops::rem(a, b, s); }, true},
        BinaryCase{"lt", [](const BitVec& a, const BitVec& b, bool s) { return bvops::lt(a, b, s); }, true},
        BinaryCase{"leq", [](const BitVec& a, const BitVec& b, bool s) { return bvops::leq(a, b, s); }, true},
        BinaryCase{"gt", [](const BitVec& a, const BitVec& b, bool s) { return bvops::gt(a, b, s); }, true},
        BinaryCase{"geq", [](const BitVec& a, const BitVec& b, bool s) { return bvops::geq(a, b, s); }, true},
        BinaryCase{"eq", [](const BitVec& a, const BitVec& b, bool s) { return bvops::eq(a, b, s); }, true},
        BinaryCase{"neq", [](const BitVec& a, const BitVec& b, bool s) { return bvops::neq(a, b, s); }, true},
        BinaryCase{"and", [](const BitVec& a, const BitVec& b, bool s) { return bvops::band(a, b, s); }, true},
        BinaryCase{"or", [](const BitVec& a, const BitVec& b, bool s) { return bvops::bor(a, b, s); }, true},
        BinaryCase{"xor", [](const BitVec& a, const BitVec& b, bool s) { return bvops::bxor(a, b, s); }, true},
        BinaryCase{"cat", [](const BitVec& a, const BitVec& b, bool) { return bvops::cat(a, b); }, true}),
    [](const ::testing::TestParamInfo<BinaryCase>& info) { return info.param.name; });

// Unary + const-parameter ops, spot-checked across the width boundary.
TEST(UnaryPrimOps, MatchReferenceAcrossWidths) {
  Rng rng(4242);
  for (uint32_t w : {1u, 7u, 32u, 63u, 64u, 65u, 90u}) {
    for (bool sgn : {false, true}) {
      const char* ty = sgn ? "SInt" : "UInt";
      uint32_t n = (w / 2) ? w / 2 : 1;
      std::string text = strfmt("circuit U :\n  module U :\n    input a : %s<%u>\n", ty, w);
      text += strfmt("    output o_not : UInt<%u>\n", w);
      text += strfmt("    output o_neg : SInt<%u>\n", w + 1);
      text += strfmt("    output o_cvt : SInt<%u>\n", sgn ? w : w + 1);
      text += "    output o_andr : UInt<1>\n    output o_orr : UInt<1>\n";
      text += "    output o_xorr : UInt<1>\n";
      text += strfmt("    output o_shl : %s<%u>\n", ty, w + 3);
      text += strfmt("    output o_shr : %s<%u>\n", ty, bvops::shrWidth(w, n));
      text += strfmt("    output o_bits : UInt<%u>\n", w - (w > 1 ? 1 : 0) - 0);
      text += strfmt("    output o_head : UInt<%u>\n", n);
      text += strfmt("    output o_tail : UInt<%u>\n", w - n);
      text += strfmt("    output o_pad : %s<%u>\n", ty, w + 5);
      text += "    o_not <= not(a)\n";
      text += "    o_neg <= neg(a)\n";
      text += "    o_cvt <= cvt(a)\n";
      text += "    o_andr <= andr(a)\n    o_orr <= orr(a)\n    o_xorr <= xorr(a)\n";
      text += "    o_shl <= shl(a, 3)\n";
      text += strfmt("    o_shr <= shr(a, %u)\n", n);
      text += strfmt("    o_bits <= bits(a, %u, 0)\n", w - (w > 1 ? 2 : 1));
      text += strfmt("    o_head <= head(a, %u)\n", n);
      text += strfmt("    o_tail <= tail(a, %u)\n", n);
      text += "    o_pad <= pad(a, " + std::to_string(w + 5) + ")\n";
      sim::SimIR ir = sim::buildFromFirrtl(text);
      sim::FullCycleEngine eng(sim::CompiledDesign::compile(ir));
      for (int iter = 0; iter < 10; iter++) {
        BitVec v(w);
        for (uint32_t i = 0; i < w; i++) v.setBit(i, rng.nextBool());
        eng.pokeBV("a", v);
        eng.tick();
        EXPECT_EQ(eng.peekBV("o_not"), bvops::bnot(v));
        EXPECT_EQ(eng.peekBV("o_neg"), bvops::neg(v, sgn));
        EXPECT_EQ(eng.peekBV("o_cvt"), bvops::cvt(v, sgn));
        EXPECT_EQ(eng.peekBV("o_andr"), bvops::andr(v));
        EXPECT_EQ(eng.peekBV("o_orr"), bvops::orr(v));
        EXPECT_EQ(eng.peekBV("o_xorr"), bvops::xorr(v));
        EXPECT_EQ(eng.peekBV("o_shl"), bvops::shl(v, 3));
        EXPECT_EQ(eng.peekBV("o_shr"), bvops::shr(v, sgn, n));
        if (w > 1) {
          EXPECT_EQ(eng.peekBV("o_bits"), bvops::bits(v, w - 2, 0));
        }
        EXPECT_EQ(eng.peekBV("o_head"), bvops::head(v, n));
        EXPECT_EQ(eng.peekBV("o_tail"), bvops::tail(v, n));
        EXPECT_EQ(eng.peekBV("o_pad"), bvops::pad(v, sgn, w + 5));
      }
    }
  }
}

TEST(DynamicShiftPrimOps, MatchReference) {
  Rng rng(777);
  for (uint32_t w : {8u, 40u, 64u, 80u}) {
    for (bool sgn : {false, true}) {
      const char* ty = sgn ? "SInt" : "UInt";
      uint32_t shW = 4;
      std::string text = strfmt(
          "circuit D :\n  module D :\n    input a : %s<%u>\n    input sh : UInt<%u>\n"
          "    output l : %s<%u>\n    output r : %s<%u>\n"
          "    l <= dshl(a, sh)\n    r <= dshr(a, sh)\n",
          ty, w, shW, ty, bvops::dshlWidth(w, shW), ty, w);
      sim::SimIR ir = sim::buildFromFirrtl(text);
      sim::FullCycleEngine eng(sim::CompiledDesign::compile(ir));
      for (int iter = 0; iter < 16; iter++) {
        BitVec v(w);
        for (uint32_t i = 0; i < w; i++) v.setBit(i, rng.nextBool());
        uint64_t sh = rng.nextBelow(16);
        eng.pokeBV("a", v);
        eng.poke("sh", sh);
        eng.tick();
        BitVec shv = BitVec::fromU64(shW, sh);
        EXPECT_EQ(eng.peekBV("l"), bvops::dshl(v, shv, shW)) << w << " " << sgn << " " << sh;
        EXPECT_EQ(eng.peekBV("r"), bvops::dshr(v, sgn, shv)) << w << " " << sgn << " " << sh;
      }
    }
  }
}

}  // namespace
}  // namespace essent
