// Tests for the C++ code generation backend. Structural checks run on the
// emitted text; end-to-end checks compile the generated simulator with the
// host toolchain, run it against deterministic stimulus, and require
// bit-identical results vs. the in-process interpreter — in both baseline
// and CCSS modes.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <tuple>

#include "codegen/emitter.h"
#include "core/activity_engine.h"
#include "core/partitioner.h"
#include "designs/blocks.h"
#include "designs/gcd.h"
#include "sim/compile.h"
#include "sim/full_cycle.h"
#include "support/strutil.h"

namespace essent::codegen {
namespace {

using core::ActivityEngine;
using core::CondPartSchedule;
using core::Netlist;
using core::ScheduleOptions;
using sim::FullCycleEngine;
using sim::SimIR;

CondPartSchedule makeSchedule(const SimIR& ir) {
  return core::buildSchedule(Netlist::build(ir), ScheduleOptions{});
}

TEST(Codegen, EmitsStructWithNamedMembers) {
  SimIR ir = sim::buildFromFirrtl(designs::counterFirrtl(8));
  CodegenOptions opts;
  opts.ccss = false;
  std::string code = emitCpp(ir, nullptr, opts);
  EXPECT_NE(code.find("struct Simulator"), std::string::npos);
  EXPECT_NE(code.find("uint64_t count;"), std::string::npos);
  EXPECT_NE(code.find("uint64_t r;"), std::string::npos);
  EXPECT_NE(code.find("std::memset(static_cast<void*>(this), 0, sizeof(*this));"),
            std::string::npos);
  EXPECT_NE(code.find("void eval()"), std::string::npos);
  // Baseline mode has no activity machinery.
  EXPECT_EQ(code.find("act_["), std::string::npos);
}

TEST(Codegen, CcssModeEmitsPartitionsAndTriggers) {
  SimIR ir = sim::buildFromFirrtl(designs::aluArrayFirrtl(8, 16));
  CondPartSchedule sched = makeSchedule(ir);
  std::string code = emitCpp(ir, &sched, CodegenOptions{});
  EXPECT_NE(code.find("bool act_["), std::string::npos);
  EXPECT_NE(code.find("void part_0_()"), std::string::npos);
  EXPECT_NE(code.find("first_cycle_"), std::string::npos);
  // Push-direction triggering via OR-reduction.
  EXPECT_NE(code.find("|= ch"), std::string::npos);
}

TEST(Codegen, BranchHintsOnColdPaths) {
  SimIR ir = sim::buildFromFirrtl(R"(
circuit P :
  module P :
    input clock : Clock
    input reset : UInt<1>
    input en : UInt<1>
    output q : UInt<4>
    reg r : UInt<4>, clock with : (reset => (reset, UInt<4>(0)))
    r <= tail(add(r, UInt<4>(1)), 1)
    q <= r
    printf(clock, en, "r=%d\n", r)
    stop(clock, eq(r, UInt<4>(9)), 1)
)");
  CondPartSchedule sched = makeSchedule(ir);
  CodegenOptions opts;
  std::string code = emitCpp(ir, &sched, opts);
  EXPECT_NE(code.find("[[unlikely]]"), std::string::npos);
  EXPECT_NE(code.find("__builtin_expect"), std::string::npos);  // reset mux way
  opts.branchHints = false;
  std::string plain = emitCpp(ir, &sched, opts);
  EXPECT_EQ(plain.find("[[unlikely]]"), std::string::npos);
}

TEST(Codegen, MuxShadowSinksSingleUseCones) {
  // mul(a,b) feeds only the taken way of the mux: with shadowing it must
  // move inside an if/else branch; without it, a ternary remains.
  SimIR ir = sim::buildFromFirrtl(R"(
circuit S :
  module S :
    input s : UInt<1>
    input a : UInt<8>
    input b : UInt<8>
    output o : UInt<16>
    o <= mux(s, mul(a, b), cat(a, b))
)");
  CondPartSchedule sched = makeSchedule(ir);
  CodegenOptions on;
  std::string withShadow = emitCpp(ir, &sched, on);
  EXPECT_NE(withShadow.find("} else {"), std::string::npos);
  CodegenOptions off;
  off.muxShadow = false;
  std::string without = emitCpp(ir, &sched, off);
  EXPECT_EQ(without.find("} else {"), std::string::npos);
}

// Nonzero constants are stored once, by the constructor; zero constants
// are left to its zero-fill; neither is ever assigned in eval().
TEST(Codegen, ConstantsStoredByConstructor) {
  SimIR ir = sim::buildFromFirrtl(R"(
circuit C :
  module C :
    input a : UInt<8>
    output o : UInt<9>
    output z : UInt<8>
    o <= add(a, UInt<8>("hab"))
    z <= xor(a, UInt<8>(0))
)");
  for (bool ccss : {false, true}) {
    SCOPED_TRACE(ccss ? "ccss" : "baseline");
    CondPartSchedule sched = makeSchedule(ir);
    CodegenOptions opts;
    opts.ccss = ccss;
    std::string code = emitCpp(ir, ccss ? &sched : nullptr, opts);
    const size_t ctorPos = code.find("  Simulator() {");
    const size_t ctorEnd = code.find("\n  }\n", ctorPos);
    ASSERT_NE(ctorPos, std::string::npos);
    const std::string ctor = code.substr(ctorPos, ctorEnd - ctorPos);
    EXPECT_NE(ctor.find(" = 0xabull;"), std::string::npos) << ctor;
    EXPECT_EQ(ctor.find(" = 0x0ull;"), std::string::npos) << ctor;
    EXPECT_EQ(code.find("= 0xabull;", ctorEnd), std::string::npos);
    EXPECT_EQ(code.find("= 0x0ull;"), std::string::npos);
  }
}

// The text of the emitted struct, from its opening line to its closing brace.
std::string structBody(const std::string& code) {
  const size_t open = code.find("struct Simulator {");
  return code.substr(open, code.find("\n};\n", open) - open);
}

// Signal locals declared in `bodies` (function bodies indented by at least
// `minIndent`): `uint64_t <name> = ...;` or `uint64_t <name>;`. Emitter
// scratch names (old0_, prev_, ...) end in '_' and are skipped.
std::vector<std::string> signalLocals(const std::string& bodies, size_t minIndent) {
  std::vector<std::string> names;
  std::istringstream lines(bodies);
  for (std::string line; std::getline(lines, line);) {
    const size_t ind = line.find_first_not_of(' ');
    if (ind == std::string::npos || ind < minIndent || line.compare(ind, 9, "uint64_t ") != 0)
      continue;
    const size_t from = ind + 9, to = line.find_first_of(" ;", from);
    const std::string name = line.substr(from, to - from);
    if (name.back() != '_') names.push_back(name);
  }
  return names;
}

// No member carries a default initializer: in the struct body (two-space
// indent; function bodies are indented further) every data member
// declaration ends at its name. Every live signal is exactly one of a
// member (the declarations with a width comment) or a local declared once
// in a function body.
TEST(Codegen, NoDefaultMemberInitializers) {
  SimIR ir = sim::buildFromFirrtl(designs::gatedBanksFirrtl(4, 8));
  CondPartSchedule sched = makeSchedule(ir);
  size_t live = 0;
  for (const auto& sig : ir.signals) live += sig.kind != sim::SigKind::Dead;
  for (bool ccss : {false, true}) {
    SCOPED_TRACE(ccss ? "ccss" : "baseline");
    CodegenOptions opts;
    opts.ccss = ccss;
    const CondPartSchedule* sp = ccss ? &sched : nullptr;
    const std::string single = emitCpp(ir, sp, opts);
    const ShardedCpp sh = emitCppSharded(ir, sp, opts, 2, "sim");
    std::string units;
    for (const auto& u : sh.units) units += u;
    // (struct text, function bodies, their minimum indent)
    for (const auto& [text, bodies, indent] :
         {std::tuple{single, single, size_t{4}}, std::tuple{sh.header, units, size_t{2}}}) {
      std::istringstream lines(structBody(text));
      std::set<std::string> members;
      for (std::string line; std::getline(lines, line);) {
        if (line.rfind("  uint64_t ", 0) != 0 && line.rfind("  bool ", 0) != 0 &&
            line.rfind("  int ", 0) != 0)
          continue;
        EXPECT_EQ(line.find('='), std::string::npos) << line;
        EXPECT_EQ(line.find('{'), std::string::npos) << line;
        if (line.find("// width") != std::string::npos)
          members.insert(line.substr(11, line.find(';') - 11));
      }
      std::set<std::string> locals;
      for (const std::string& n : signalLocals(bodies, indent)) {
        EXPECT_TRUE(locals.insert(n).second) << n << " declared twice";
        EXPECT_EQ(members.count(n), 0u) << n << " is both a member and a local";
      }
      EXPECT_GT(locals.size(), 0u);
      EXPECT_EQ(members.size(), live - locals.size());
    }
  }
}

// The text of the work function whose definition contains `head` (e.g.
// "part_3_() {"), up to the next function definition.
std::string functionBody(const std::string& code, const std::string& head) {
  const size_t at = code.find(head);
  if (at == std::string::npos) return "";
  const size_t next = std::min(code.find("\n  void ", at), code.find("\nvoid ", at));
  return code.substr(at, next == std::string::npos ? std::string::npos : next - at);
}

bool isMember(const std::string& code, const std::string& name) {
  return structBody(code).find("\n  uint64_t " + name + ";") != std::string::npos;
}

bool declaresLocal(const std::string& body, const std::string& name) {
  return body.find("uint64_t " + name + " = ") != std::string::npos ||
         body.find("uint64_t " + name + ";") != std::string::npos;
}

// The member-or-local rule: an anonymous temporary defined and read by one
// work function is a local there; one that another partition, a deferred
// register, a print or a combinational-loop supernode reads stays a member.
// Both layouts, both modes.
TEST(Codegen, PartitionLocalTemporariesAreNotMembers) {
  SimIR ir = sim::buildFromFirrtl(R"(
circuit L :
  module L :
    input clock : Clock
    input reset : UInt<1>
    input a : UInt<8>
    input b : UInt<8>
    input c : UInt<16>
    input en : UInt<1>
    output o : UInt<17>
    output q : UInt<8>
    output x : UInt<8>
    reg r : UInt<8>, clock
    r <= xor(r, a)
    q <= r
    x <= xor(r, a)
    o <= add(mul(a, b), c)
    printf(clock, en, "s=%d\n", add(a, b))
)");
  int32_t mulT = -1;
  for (const sim::Op& op : ir.ops)
    if (op.code == sim::OpCode::Mul) mulT = op.dest;
  ASSERT_GE(mulT, 0);
  ASSERT_EQ(ir.signals[static_cast<size_t>(mulT)].kind, sim::SigKind::Temp);
  int32_t printT = -1;
  for (const auto& p : ir.prints) printT = p.args.at(0);
  ASSERT_EQ(ir.signals[static_cast<size_t>(printT)].kind, sim::SigKind::Temp);
  const std::string mulName = memberName(ir, mulT), printName = memberName(ir, printT);
  auto partOf = [](const CondPartSchedule& s, int32_t op) {
    for (size_t pos = 0; pos < s.parts.size(); pos++)
      for (int32_t o : s.parts[pos].ops)
        if (o == op) return pos;
    return s.parts.size();
  };
  const int32_t mulOp = ir.signals[static_cast<size_t>(mulT)].defOp;
  int32_t mulReader = -1;
  for (size_t i = 0; i < ir.ops.size(); i++)
    if (ir.ops[i].args[0] == mulT || ir.ops[i].args[1] == mulT)
      mulReader = static_cast<int32_t>(i);
  const Netlist nl = Netlist::build(ir);

  for (bool sharded : {false, true}) {
    SCOPED_TRACE(sharded ? "sharded" : "single unit");
    auto emit = [&](const CondPartSchedule* sp, bool ccss) {
      CodegenOptions opts;
      opts.ccss = ccss;
      if (!sharded) return emitCpp(ir, sp, opts);
      // A single shard keeps every baseline op in one chunk function.
      const ShardedCpp sh = emitCppSharded(ir, sp, opts, ccss ? 2 : 1, "sim");
      std::string all = sh.header;
      for (const auto& u : sh.units) all += u;
      return all;
    };

    // CCSS, default partitioning: mul feeds only the add in its partition.
    CondPartSchedule sched = makeSchedule(ir);
    const size_t pos = partOf(sched, mulOp);
    ASSERT_LT(pos, sched.parts.size());
    std::string code = emit(&sched, true);
    EXPECT_FALSE(isMember(code, mulName)) << code;
    EXPECT_TRUE(declaresLocal(functionBody(code, strfmt("part_%zu_() {", pos)), mulName)) << code;
    EXPECT_TRUE(isMember(code, printName)) << code;  // read by a print

    // Baseline: eval() (single unit) or chunk_0_() owns every op.
    code = emit(nullptr, false);
    EXPECT_FALSE(isMember(code, mulName)) << code;
    EXPECT_TRUE(declaresLocal(functionBody(code, sharded ? "chunk_0_() {" : "eval() {"), mulName))
        << code;
    EXPECT_TRUE(isMember(code, printName)) << code;

    // One op per partition: the add reading mul is another partition.
    CondPartSchedule fine = core::buildScheduleFrom(nl, core::finePartitioning(nl));
    ASSERT_NE(partOf(fine, mulOp), partOf(fine, mulReader));
    code = emit(&fine, true);
    EXPECT_TRUE(isMember(code, mulName)) << code;

    // No state elision: the register's next value (shared with output x)
    // is read by the deferred write in eval()/finish_() as well as by the
    // partition computing it.
    CondPartSchedule deferred =
        core::buildScheduleFrom(nl, core::partitionNetlist(nl), /*stateElision=*/false);
    ASSERT_EQ(deferred.deferredRegs.size(), 1u);
    const int32_t next = ir.regs[0].next;
    ASSERT_EQ(ir.signals[static_cast<size_t>(next)].kind, sim::SigKind::Temp);
    const int32_t xDef = ir.signals[static_cast<size_t>(ir.findSignal("x"))].defOp;
    ASSERT_EQ(ir.ops[static_cast<size_t>(xDef)].args[0], next);
    code = emit(&deferred, true);
    EXPECT_TRUE(isMember(code, memberName(ir, next))) << code;
    EXPECT_FALSE(isMember(code, mulName)) << code;
  }

  // A combinational-loop supernode's temporaries stay members: convergence
  // compares each against its value from the previous iteration.
  sim::BuildOptions loops;
  loops.allowCombLoops = true;
  SimIR latch = sim::buildFromFirrtl(R"(
circuit Latch :
  module Latch :
    input s : UInt<1>
    input r : UInt<1>
    output q : UInt<1>
    wire qi : UInt<1>
    wire qbi : UInt<1>
    qi <= not(or(r, qbi))
    qbi <= not(or(s, qi))
    q <= qi
)",
                                     loops);
  ASSERT_TRUE(latch.hasCombLoops());
  CondPartSchedule latchSched = makeSchedule(latch);
  size_t superTemps = 0;
  for (int32_t op : latch.supers.at(0)) {
    const int32_t d = latch.ops[static_cast<size_t>(op)].dest;
    if (latch.signals[static_cast<size_t>(d)].kind != sim::SigKind::Temp) continue;
    superTemps++;
    for (bool ccss : {false, true}) {
      CodegenOptions opts;
      opts.ccss = ccss;
      const CondPartSchedule* sp = ccss ? &latchSched : nullptr;
      EXPECT_TRUE(isMember(emitCpp(latch, sp, opts), memberName(latch, d)));
      EXPECT_TRUE(isMember(emitCppSharded(latch, sp, opts, 2, "sim").header, memberName(latch, d)));
    }
  }
  EXPECT_GT(superTemps, 0u);
}

// The mask is dropped where the operand widths already bound the result,
// and kept where the result can spill past the destination width.
TEST(Codegen, DropsMasksWidthsProveRedundant) {
  SimIR ir = sim::buildFromFirrtl(R"(
circuit M :
  module M :
    input a : UInt<8>
    input b : UInt<8>
    input c : UInt<16>
    output o : UInt<16>
    output e : UInt<1>
    output t : UInt<4>
    output n : UInt<8>
    output q : UInt<16>
    o <= pad(a, 16)
    e <= eq(a, b)
    t <= bits(c, 15, 12)
    n <= not(a)
    q <= cat(a, b)
)");
  CodegenOptions opts;
  opts.ccss = false;
  std::string code = emitCpp(ir, nullptr, opts);
  EXPECT_EQ(code.find("& 0xffffull"), std::string::npos) << code;  // pad and cat
  EXPECT_EQ(code.find("& 0x1ull"), std::string::npos) << code;     // eq
  EXPECT_EQ(code.find("& 0xfull"), std::string::npos) << code;     // bits at the top
  EXPECT_NE(code.find("(~a)) & 0xffull"), std::string::npos) << code;  // not: kept
}

TEST(Codegen, RejectsWideSignals) {
  SimIR ir = sim::buildFromFirrtl(R"(
circuit W :
  module W :
    input a : UInt<64>
    output o : UInt<80>
    o <= pad(a, 80)
)");
  EXPECT_THROW(emitCpp(ir, nullptr, CodegenOptions{"S", false, true}), CodegenError);
}

TEST(Codegen, MemberNamesAreUniqueAndStable) {
  SimIR ir = sim::buildFromFirrtl(designs::gcdFirrtl(16));
  std::set<std::string> seen;
  for (size_t s = 0; s < ir.signals.size(); s++) {
    std::string n = memberName(ir, static_cast<int32_t>(s));
    EXPECT_TRUE(seen.insert(n).second) << n;
    EXPECT_EQ(n, memberName(ir, static_cast<int32_t>(s)));
  }
}

// --- compile-and-run integration ---

// Compiles `sources` (files in `dir`) with warnings as errors, so emitted
// code stays warning-clean under the host compiler; runs the binary,
// removes `dir` and returns the process stdout, or a failure marker with
// the compiler log.
std::string buildRunAndClean(const std::string& dir, const std::string& sources) {
  const std::string bin = dir + "/sim";
  const std::string cmd =
      "c++ -std=c++20 -O1 -Wall -Wextra -Werror -o " + bin + sources + " 2>" + dir + "/cc.log";
  std::stringstream ss;
  if (std::system(cmd.c_str()) != 0) {
    std::ifstream log(dir + "/cc.log");
    ss << "<compile failed>\n" << log.rdbuf();
  } else if (std::system((bin + " > " + dir + "/out.txt").c_str()) != 0) {
    ss << "<run failed>";
  } else {
    std::ifstream out(dir + "/out.txt");
    ss << out.rdbuf();
  }
  std::filesystem::remove_all(dir);
  return ss.str();
}

// Compiles `code` + `mainBody` and returns the process stdout.
// `mainBody` runs inside main() with a Simulator named `sim` in scope.
std::string compileAndRun(const std::string& code, const std::string& mainBody) {
  char dirTemplate[] = "/tmp/essent_cg_XXXXXX";
  char* dir = mkdtemp(dirTemplate);
  if (!dir) return "<mkdtemp failed>";
  const std::string src = std::string(dir) + "/sim.cpp";
  {
    std::ofstream f(src);
    f << code;
    f << "\n#include <new>\nint main() {\n  essent_gen::Simulator sim;\n" << mainBody
      << "\n  return 0;\n}\n";
  }
  return buildRunAndClean(dir, " " + src);
}

// Like compileAndRun, but over a sharded emission: writes the header and
// every unit, compiles them together with the main file, and runs.
std::string compileAndRunSharded(const codegen::ShardedCpp& sh, const std::string& mainBody) {
  char dirTemplate[] = "/tmp/essent_cgs_XXXXXX";
  char* dir = mkdtemp(dirTemplate);
  if (!dir) return "<mkdtemp failed>";
  auto write = [&](const std::string& name, const std::string& text) {
    std::ofstream f(std::string(dir) + "/" + name);
    f << text;
  };
  write(sh.headerName, sh.header);
  std::string srcs = " " + std::string(dir) + "/main.cpp";
  for (size_t k = 0; k < sh.units.size(); k++) {
    write(sh.unitNames[k], sh.units[k]);
    srcs += " " + std::string(dir) + "/" + sh.unitNames[k];
  }
  write("main.cpp", "#include \"" + sh.headerName +
                        "\"\n#include <cstdio>\n#include <new>\nint main() {\n"
                        "  essent_gen::Simulator sim;\n" +
                        mainBody + "\n  return 0;\n}\n");
  return buildRunAndClean(dir, srcs);
}

// The sharded emission must behave exactly like the single-TU one in both
// modes, while actually splitting the definitions across units.
TEST(CodegenRun, ShardedMatchesSingleUnitBothModes) {
  SimIR ir = sim::buildFromFirrtl(designs::gatedBanksFirrtl(8, 16));
  CondPartSchedule sched = makeSchedule(ir);
  const std::string mainBody = R"(
  sim.reset = 0;
  sim.wdata = 3;
  for (int c = 0; c < 60; c++) {
    sim.bankSel = (unsigned)(c % 8);
    sim.eval();
  }
  std::printf("sum=%llu cycles=%llu\n", (unsigned long long)sim.sum,
              (unsigned long long)sim.cycles_);
)";
  for (bool ccss : {false, true}) {
    CodegenOptions opts;
    opts.ccss = ccss;
    std::string single = compileAndRun(emitCpp(ir, ccss ? &sched : nullptr, opts), mainBody);
    codegen::ShardedCpp sh =
        codegen::emitCppSharded(ir, ccss ? &sched : nullptr, opts, 3, "banks");
    EXPECT_EQ(sh.headerName, "banks.h");
    EXPECT_EQ(sh.units.size(), 3u) << (ccss ? "ccss" : "baseline");
    EXPECT_NE(sh.header.find("struct Simulator"), std::string::npos);
    std::string out = compileAndRunSharded(sh, mainBody);
    EXPECT_EQ(out, single) << (ccss ? "ccss" : "baseline") << " mode:\n" << out;
    EXPECT_NE(out.find("sum="), std::string::npos);
  }
}

// The construction contract: before its first eval(), a fresh Simulator
// reads every nonzero constant and zero in every other signal member,
// memory row and status field, even when built over garbage-filled
// storage. The members peeked are every named signal and every constant;
// other temporaries may be function locals.
TEST(CodegenRun, FreshSimulatorReadsConstantsAndZeros) {
  SimIR ir = sim::buildFromFirrtl(R"(
circuit K :
  module K :
    input clock : Clock
    input reset : UInt<1>
    input a : UInt<8>
    input s : SInt<6>
    output o : UInt<9>
    output p : SInt<7>
    output q : UInt<8>
    reg r : UInt<8>, clock with : (reset => (reset, UInt<8>("h5a")))
    mem m :
      data-type => UInt<8>
      depth => 4
      read-latency => 0
      write-latency => 1
      read-under-write => undefined
      reader => rd
      writer => wr
    m.rd.addr <= bits(a, 1, 0)
    m.rd.en <= UInt<1>(1)
    m.rd.clk <= clock
    m.wr.addr <= bits(a, 3, 2)
    m.wr.en <= UInt<1>(1)
    m.wr.clk <= clock
    m.wr.data <= or(r, UInt<8>(0))
    m.wr.mask <= UInt<1>(1)
    r <= xor(a, UInt<8>("hc3"))
    o <= add(a, UInt<8>("hab"))
    p <= add(s, SInt<6>(-3))
    q <= m.rd.data
)");
  CondPartSchedule sched = makeSchedule(ir);
  std::string body =
      "  alignas(essent_gen::Simulator) static unsigned char junk[sizeof(essent_gen::Simulator)];\n"
      "  std::memset(junk, 0xa5, sizeof junk);\n"
      "  const essent_gen::Simulator& f = *::new (static_cast<void*>(junk)) essent_gen::Simulator;\n";
  std::string expected;
  size_t nonzero = 0, named = 0;
  for (size_t s = 0; s < ir.signals.size(); s++) {
    const sim::Signal& sig = ir.signals[s];
    if (sig.kind == sim::SigKind::Dead) continue;
    const bool constant =
        sig.defOp >= 0 && ir.ops[static_cast<size_t>(sig.defOp)].code == sim::OpCode::Const;
    if (sig.kind == sim::SigKind::Temp && !constant) continue;
    named += sig.kind != sim::SigKind::Temp;
    uint64_t value = 0;
    if (constant)
      value = ir.constPool[static_cast<size_t>(ir.ops[static_cast<size_t>(sig.defOp)].imm0)].toU64();
    nonzero += value != 0;
    const std::string n = memberName(ir, static_cast<int32_t>(s));
    body += strfmt("  std::printf(\"%s=%%llx\\n\", (unsigned long long)f.%s);\n", n.c_str(),
                   n.c_str());
    expected += strfmt("%s=%llx\n", n.c_str(), static_cast<unsigned long long>(value));
  }
  ASSERT_GE(nonzero, 3u);  // 0x5a, 0xc3, 0xab, -3 (some may fold away)
  ASSERT_GE(named, 8u);    // reset, a, s, o, p, q, r and the memory ports
  for (size_t mi = 0; mi < ir.mems.size(); mi++) {
    const sim::MemInfo& m = ir.mems[mi];
    body += strfmt("  for (unsigned i = 0; i < %llu; i++) std::printf(\"%%llx\\n\", "
                   "(unsigned long long)f.%s[i]);\n",
                   static_cast<unsigned long long>(m.depth), memArrayName(ir, mi).c_str());
    for (uint64_t i = 0; i < m.depth; i++) expected += "0\n";
  }
  body += "  std::printf(\"status %llu %d %d\\n\", (unsigned long long)f.cycles_, (int)f.stopped_, "
          "f.exit_code_);\n";
  expected += "status 0 0 0\n";
  for (bool ccss : {false, true}) {
    SCOPED_TRACE(ccss ? "ccss" : "baseline");
    CodegenOptions opts;
    opts.ccss = ccss;
    const CondPartSchedule* sp = ccss ? &sched : nullptr;
    EXPECT_EQ(compileAndRun(emitCpp(ir, sp, opts), body), expected);
    EXPECT_EQ(compileAndRunSharded(emitCppSharded(ir, sp, opts, 2, "k"), body), expected);
  }
}

// Shard-count clamping: more shards than work functions degrades to one
// unit per function, and 1 shard still yields the header + single unit.
TEST(CodegenRun, ShardCountClamps) {
  SimIR ir = sim::buildFromFirrtl(designs::counterFirrtl(8));
  CondPartSchedule sched = makeSchedule(ir);
  codegen::ShardedCpp many = codegen::emitCppSharded(ir, &sched, CodegenOptions{}, 64, "c");
  EXPECT_LE(many.units.size(), sched.parts.size());
  codegen::ShardedCpp one = codegen::emitCppSharded(ir, &sched, CodegenOptions{}, 1, "c");
  EXPECT_EQ(one.units.size(), 1u);
  EXPECT_EQ(one.unitNames[0], "c_0.cpp");
}

TEST(CodegenRun, CounterMatchesInterpreterBothModes) {
  SimIR ir = sim::buildFromFirrtl(designs::counterFirrtl(8));
  CondPartSchedule sched = makeSchedule(ir);

  // Interpreter reference: en toggles every 3rd cycle.
  FullCycleEngine ref(sim::CompiledDesign::compile(ir));
  ref.poke("reset", 0);
  for (int c = 0; c < 40; c++) {
    ref.poke("en", c % 3 != 0);
    ref.tick();
  }
  uint64_t expected = ref.peek("count");

  const std::string mainBody = R"(
  sim.reset = 0;
  for (int c = 0; c < 40; c++) {
    sim.en = (c % 3) != 0;
    sim.eval();
  }
  std::printf("count=%llu\n", (unsigned long long)sim.count);
)";
  for (bool ccss : {false, true}) {
    CodegenOptions opts;
    opts.ccss = ccss;
    std::string code = emitCpp(ir, ccss ? &sched : nullptr, opts);
    std::string out = compileAndRun(code, mainBody);
    EXPECT_EQ(out, strfmt("count=%llu\n", static_cast<unsigned long long>(expected)))
        << (ccss ? "ccss" : "baseline") << " mode:\n" << out;
  }
}

TEST(CodegenRun, GcdComputesInCompiledSimulator) {
  SimIR ir = sim::buildFromFirrtl(designs::gcdFirrtl(16));
  CondPartSchedule sched = makeSchedule(ir);
  std::string code = emitCpp(ir, &sched, CodegenOptions{});
  std::string out = compileAndRun(code, R"(
  sim.reset = 0;
  sim.a = 1071; sim.b = 462; sim.load = 1;
  sim.eval();
  sim.load = 0;
  sim.eval();
  for (int i = 0; i < 200 && !sim.valid; i++) sim.eval();
  std::printf("gcd=%llu cycles=%llu\n", (unsigned long long)sim.result,
              (unsigned long long)sim.cycles_);
)");
  EXPECT_TRUE(out.find("gcd=21 ") != std::string::npos) << out;
}

TEST(CodegenRun, PrintfAndStopMatchInterpreter) {
  SimIR ir = sim::buildFromFirrtl(R"(
circuit P :
  module P :
    input clock : Clock
    input reset : UInt<1>
    output q : UInt<4>
    reg r : UInt<4>, clock with : (reset => (reset, UInt<4>(0)))
    r <= tail(add(r, UInt<4>(1)), 1)
    q <= r
    printf(clock, eq(bits(r, 0, 0), UInt<1>(1)), "odd r=%d x=%x b=%b\n", r, r, r)
    stop(clock, eq(r, UInt<4>(9)), 2)
)");
  CondPartSchedule sched = makeSchedule(ir);

  FullCycleEngine ref(sim::CompiledDesign::compile(ir));
  ref.poke("reset", 0);
  while (!ref.stopped()) ref.tick();

  std::string code = emitCpp(ir, &sched, CodegenOptions{});
  std::string out = compileAndRun(code, R"(
  sim.reset = 0;
  while (!sim.stopped_) sim.eval();
)");
  EXPECT_EQ(out, ref.printOutput());
}

TEST(CodegenRun, MuxShadowOnOffIdenticalResults) {
  designs::RandomDesignConfig cfg;
  cfg.numNodes = 60;
  SimIR ir = sim::buildFromFirrtl(designs::randomDesignFirrtl(777, cfg));
  CondPartSchedule sched = makeSchedule(ir);
  std::string bodies[2];
  for (int v = 0; v < 2; v++) {
    CodegenOptions opts;
    opts.muxShadow = v == 0;
    std::string code = emitCpp(ir, &sched, opts);
    std::string body =
        "  uint64_t lcg = 777, hash = 1469598103934665603ULL;\n"
        "  auto nx = [&lcg]{ lcg = lcg*6364136223846793005ULL + 1442695040888963407ULL; "
        "return lcg >> 16; };\n"
        "  for (int c = 0; c < 50; c++) {\n";
    for (int32_t in : ir.inputs) {
      const auto& sig = ir.signals[static_cast<size_t>(in)];
      if (sig.name == "reset") body += "    sim.reset = c < 2;\n";
      else
        body += strfmt("    sim.%s = nx() & 0x%llxull;\n", memberName(ir, in).c_str(),
                       static_cast<unsigned long long>(
                           sig.width >= 64 ? ~0ull : (1ull << sig.width) - 1));
    }
    body += "    sim.eval();\n";
    for (int32_t o : ir.outputs)
      body += strfmt("    hash ^= sim.%s; hash *= 1099511628211ULL;\n",
                     memberName(ir, o).c_str());
    body += "  }\n  std::printf(\"h=%llx\\n\", (unsigned long long)hash);\n";
    bodies[v] = compileAndRun(code, body);
  }
  EXPECT_EQ(bodies[0], bodies[1]);
  EXPECT_NE(bodies[0].find("h="), std::string::npos) << bodies[0];
}

TEST(CodegenRun, AssertionsFireInCompiledSimulator) {
  SimIR ir = sim::buildFromFirrtl(R"(
circuit A :
  module A :
    input clock : Clock
    input reset : UInt<1>
    output q : UInt<4>
    reg r : UInt<4>, clock with : (reset => (reset, UInt<4>(0)))
    r <= tail(add(r, UInt<4>(1)), 1)
    q <= r
    assert(clock, lt(r, UInt<4>(5)), UInt<1>(1), "counter overflow r=%d")
)");
  CondPartSchedule sched = makeSchedule(ir);
  std::string code = emitCpp(ir, &sched, CodegenOptions{});
  EXPECT_NE(code.find("assertion failed"), std::string::npos);
  std::string out = compileAndRun(code, R"(
  sim.reset = 0;
  int cycles = 0;
  while (!sim.stopped_ && cycles++ < 100) sim.eval();
  std::printf("stopped=%d exit=%d cycles=%d\n", (int)sim.stopped_, sim.exit_code_, cycles);
)");
  EXPECT_NE(out.find("assertion failed: counter overflow"), std::string::npos) << out;
  EXPECT_NE(out.find("stopped=1 exit=65 cycles=6"), std::string::npos) << out;
}

TEST(CodegenRun, RandomDesignsMatchInterpreterHash) {
  // Drive random designs with an LCG replicated on both sides and compare a
  // running hash of all outputs after every cycle.
  for (uint64_t seed : {201ull, 202ull, 203ull}) {
    designs::RandomDesignConfig cfg;
    cfg.useWide = false;
    cfg.numNodes = 50;
    cfg.useSigned = true;
    SimIR ir = sim::buildFromFirrtl(designs::randomDesignFirrtl(seed, cfg));
    CondPartSchedule sched = makeSchedule(ir);

    // Interpreter side.
    ActivityEngine ref(core::CompiledCcss::compile(sim::CompiledDesign::compile(ir), ScheduleOptions{}));
    uint64_t lcg = seed;
    auto lcgNext = [&lcg] {
      lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
      return lcg >> 16;
    };
    uint64_t hash = 1469598103934665603ULL;
    for (int c = 0; c < 60; c++) {
      for (int32_t in : ir.inputs) {
        const auto& sig = ir.signals[static_cast<size_t>(in)];
        if (sig.name == "reset") ref.poke("reset", c < 2);
        else ref.poke(sig.name, lcgNext());
      }
      ref.tick();
      for (int32_t o : ir.outputs) {
        hash ^= ref.peekSig(o);
        hash *= 1099511628211ULL;
      }
    }

    // Compiled side: identical stimulus and hash, generated as C++.
    std::string body = strfmt("  uint64_t lcg = %lluull;\n", static_cast<unsigned long long>(seed));
    body +=
        "  auto lcgNext = [&lcg] { lcg = lcg * 6364136223846793005ULL + "
        "1442695040888963407ULL; return lcg >> 16; };\n";
    body += "  uint64_t hash = 1469598103934665603ULL;\n";
    body += "  for (int c = 0; c < 60; c++) {\n";
    for (int32_t in : ir.inputs) {
      const auto& sig = ir.signals[static_cast<size_t>(in)];
      if (sig.name == "reset")
        body += "    sim.reset = c < 2;\n";
      else
        body += strfmt("    sim.%s = lcgNext() & 0x%llxull;\n",
                       memberName(ir, in).c_str(),
                       static_cast<unsigned long long>(
                           sig.width >= 64 ? ~0ull : (1ull << sig.width) - 1));
    }
    body += "    sim.eval();\n";
    for (int32_t o : ir.outputs)
      body += strfmt("    hash ^= sim.%s; hash *= 1099511628211ULL;\n",
                     memberName(ir, o).c_str());
    body += "  }\n  std::printf(\"hash=%llx\\n\", (unsigned long long)hash);\n";

    std::string code = emitCpp(ir, &sched, CodegenOptions{});
    std::string out = compileAndRun(code, body);
    EXPECT_EQ(out, strfmt("hash=%llx\n", static_cast<unsigned long long>(hash)))
        << "seed " << seed << "\n" << out;
  }
}

}  // namespace
}  // namespace essent::codegen
