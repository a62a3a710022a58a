// End-to-end tests for the essentc command-line driver (invoked as a real
// subprocess, the way a user runs it).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#ifndef ESSENTC_PATH
#error "ESSENTC_PATH must be defined by the build"
#endif

namespace {

struct CliResult {
  int exitCode = -1;
  std::string output;  // stdout + stderr
};

CliResult runCli(const std::string& args) {
  char dirTemplate[] = "/tmp/essent_cli_XXXXXX";
  char* dir = mkdtemp(dirTemplate);
  std::string outFile = std::string(dir) + "/out.txt";
  std::string cmd = std::string(ESSENTC_PATH) + " " + args + " > " + outFile + " 2>&1";
  int rc = std::system(cmd.c_str());
  CliResult res;
  res.exitCode = WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
  std::ifstream f(outFile);
  std::stringstream ss;
  ss << f.rdbuf();
  res.output = ss.str();
  return res;
}

std::string writeFir(const std::string& contents) {
  char fileTemplate[] = "/tmp/essent_cli_fir_XXXXXX";
  int fd = mkstemp(fileTemplate);
  if (fd >= 0) close(fd);
  std::ofstream f(fileTemplate);
  f << contents;
  return fileTemplate;
}

const char* kCounterFir = R"(
circuit Counter :
  module Counter :
    input clock : Clock
    input reset : UInt<1>
    input en : UInt<1>
    output count : UInt<8>
    reg r : UInt<8>, clock with : (reset => (reset, UInt<8>(0)))
    when en :
      r <= tail(add(r, UInt<8>(1)), 1)
    count <= r
)";

TEST(Cli, StatsReportsPartitioning) {
  std::string fir = writeFir(kCounterFir);
  auto res = runCli("--stats " + fir);
  EXPECT_EQ(res.exitCode, 0) << res.output;
  EXPECT_NE(res.output.find("design Counter"), std::string::npos);
  EXPECT_NE(res.output.find("MFFC partitions"), std::string::npos);
  EXPECT_NE(res.output.find("elided regs"), std::string::npos);
}

TEST(Cli, RunWithPokesReportsOutputs) {
  std::string fir = writeFir(kCounterFir);
  auto res = runCli("--run 10 --poke en=1 --poke reset=0 " + fir);
  EXPECT_EQ(res.exitCode, 0) << res.output;
  // After 10 cycles the output shows the pre-update value of cycle 10.
  EXPECT_NE(res.output.find("count = 0x9"), std::string::npos) << res.output;
  EXPECT_NE(res.output.find("essent-ccss"), std::string::npos);
  EXPECT_NE(res.output.find("effective activity"), std::string::npos);
}

TEST(Cli, RunOnAlternateEngines) {
  std::string fir = writeFir(kCounterFir);
  for (const char* engine : {"full", "event"}) {
    auto res = runCli(std::string("--run 10 --engine ") + engine + " --poke en=1 " + fir);
    EXPECT_EQ(res.exitCode, 0) << res.output;
    EXPECT_NE(res.output.find("count = 0x9"), std::string::npos) << engine << res.output;
  }
}

TEST(Cli, EmitCppProducesCompilableLookingCode) {
  std::string fir = writeFir(kCounterFir);
  auto res = runCli("--emit-cpp " + fir);
  EXPECT_EQ(res.exitCode, 0);
  EXPECT_NE(res.output.find("struct Simulator"), std::string::npos);
  EXPECT_NE(res.output.find("void eval()"), std::string::npos);
  EXPECT_NE(res.output.find("act_["), std::string::npos);  // CCSS by default
  auto base = runCli("--emit-cpp --baseline " + fir);
  EXPECT_EQ(base.output.find("act_["), std::string::npos);
}

TEST(Cli, DotEmitsPartitionGraph) {
  std::string fir = writeFir(kCounterFir);
  auto res = runCli("--dot --cp 2 " + fir);
  EXPECT_EQ(res.exitCode, 0);
  EXPECT_NE(res.output.find("digraph partitions"), std::string::npos);
}

TEST(Cli, VcdDumpWritten) {
  std::string fir = writeFir(kCounterFir);
  std::string vcd = fir + ".vcd";
  auto res = runCli("--run 5 --poke en=1 --vcd " + vcd + " " + fir);
  EXPECT_EQ(res.exitCode, 0) << res.output;
  std::ifstream f(vcd);
  std::stringstream ss;
  ss << f.rdbuf();
  EXPECT_NE(ss.str().find("$enddefinitions"), std::string::npos);
}

TEST(Cli, AllowCombLoopsFlag) {
  std::string fir = writeFir(R"(
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
)");
  auto rejected = runCli("--stats " + fir);
  EXPECT_EQ(rejected.exitCode, 1);
  EXPECT_NE(rejected.output.find("combinational cycle"), std::string::npos);
  auto ok = runCli("--stats --allow-comb-loops " + fir);
  EXPECT_EQ(ok.exitCode, 0) << ok.output;
  auto run = runCli("--run 3 --allow-comb-loops --poke s=1 " + fir);
  EXPECT_NE(run.output.find("q = 0x1"), std::string::npos) << run.output;
}

TEST(Cli, CompileRunCrossChecksInterpreter) {
  std::string fir = writeFir(kCounterFir);
  auto res = runCli("--compile-run 12 --poke en=1 --poke reset=0 " + fir);
  EXPECT_EQ(res.exitCode, 0) << res.output;
  EXPECT_NE(res.output.find("count = 0xb (matches interpreter)"), std::string::npos)
      << res.output;
  EXPECT_NE(res.output.find("outputs match the interpreter"), std::string::npos);
  auto bad = runCli("--compile-run 5 --poke nosuch=1 " + fir);
  EXPECT_NE(bad.exitCode, 0);
  // A poke wider than its input is masked on both sides, as Engine::poke
  // masks it: the emitted mux stores its unsigned arm unmasked.
  std::string wideFir = writeFir(R"(
circuit W :
  module W :
    input clock : Clock
    input s : UInt<1>
    input a : UInt<4>
    output o : UInt<4>
    reg r : UInt<4>, clock
    r <= mux(s, a, r)
    o <= r
)");
  auto wide = runCli("--compile-run 2 --poke s=1 --poke a=0x1d " + wideFir);
  EXPECT_EQ(wide.exitCode, 0) << wide.output;
  EXPECT_NE(wide.output.find("o = 0xd (matches interpreter)"), std::string::npos) << wide.output;
}

// Memory b of instance x and top-level memories x_b and x_b_1 all sanitize
// toward mem_x_b...: each gets its own array, so the host compile succeeds
// and every output matches the interpreter.
TEST(Cli, CompileRunKeepsCollidingMemoryNamesApart) {
  const std::string fir = std::string(FUZZ_CORPUS_DIR) + "/corner_mem_name_collision.fir";
  auto res = runCli("--compile-run 9 --poke a=0xc5 " + fir);
  EXPECT_EQ(res.exitCode, 0) << res.output;
  EXPECT_NE(res.output.find("outputs match the interpreter"), std::string::npos) << res.output;
  auto emitted = runCli("--emit-cpp " + fir);
  for (const char* arr : {"mem_x_b[4];", "mem_x_b_1[4];", "mem_x_b_2[4];"})
    EXPECT_NE(emitted.output.find(arr), std::string::npos) << arr << "\n" << emitted.output;
}

TEST(Cli, EngineLongAliasesAccepted) {
  std::string fir = writeFir(kCounterFir);
  for (const char* engine : {"essent-ccss", "full-cycle", "event-driven"}) {
    auto res = runCli(std::string("--run 10 --engine ") + engine + " --poke en=1 " + fir);
    EXPECT_EQ(res.exitCode, 0) << engine << res.output;
    EXPECT_NE(res.output.find("count = 0x9"), std::string::npos) << engine << res.output;
  }
  auto bad = runCli("--run 5 --engine verilator " + fir);
  EXPECT_EQ(bad.exitCode, 2);
  EXPECT_NE(bad.output.find("unknown engine"), std::string::npos);
  auto codegen = runCli("--run 5 --engine codegen " + fir);
  EXPECT_EQ(codegen.exitCode, 2);
  EXPECT_NE(codegen.output.find("--compile-run"), std::string::npos);
}

TEST(Cli, BatchRunsFarmAndAgreesWithSolo) {
  std::string fir = writeFir(kCounterFir);
  auto res = runCli("--run 10 --batch 3 --threads 2 --poke en=1 --poke reset=0 " + fir);
  EXPECT_EQ(res.exitCode, 0) << res.output;
  EXPECT_NE(res.output.find("farm: 3 instances on ccss engine"), std::string::npos)
      << res.output;
  // Every instance ran the full budget and reports the farm aggregates.
  EXPECT_NE(res.output.find("10 cycles"), std::string::npos);
  EXPECT_NE(res.output.find("instances/s"), std::string::npos);
  // --batch gates on --run and rejects per-instance output flags.
  auto noRun = runCli("--stats --batch 2 " + fir);
  EXPECT_EQ(noRun.exitCode, 2);
  auto withVcd = runCli("--run 5 --batch 2 --vcd /tmp/x.vcd " + fir);
  EXPECT_EQ(withVcd.exitCode, 2);
}

TEST(Cli, BatchStimulusDirDrivesInstances) {
  std::string fir = writeFir(kCounterFir);
  char dirTemplate[] = "/tmp/essent_cli_stim_XXXXXX";
  std::string dir = mkdtemp(dirTemplate);
  std::ofstream(dir + "/on.stim") << "inputs en reset\nwidths 1 1\n1 0\n1 0\n1 0\n1 0\n";
  std::ofstream(dir + "/off.stim") << "inputs en reset\nwidths 1 1\n0 0\n0 0\n0 0\n0 0\n";
  auto res = runCli("--run 4 --batch 2 --stimulus-dir " + dir + " " + fir);
  EXPECT_EQ(res.exitCode, 0) << res.output;
  EXPECT_NE(res.output.find("off.stim"), std::string::npos) << res.output;
  EXPECT_NE(res.output.find("on.stim"), std::string::npos) << res.output;
  auto empty = runCli("--run 4 --batch 2 --stimulus-dir /nonexistent-dir " + fir);
  EXPECT_EQ(empty.exitCode, 1);
}

TEST(Cli, ErrorsAreUsable) {
  auto noFile = runCli("--stats /nonexistent.fir");
  EXPECT_NE(noFile.exitCode, 0);
  auto badArg = runCli("--frobnicate");
  EXPECT_EQ(badArg.exitCode, 2);
  EXPECT_NE(badArg.output.find("usage:"), std::string::npos);
  std::string badFir = writeFir("circuit X :\n  module Y :\n    skip\n");
  auto parseErr = runCli("--stats " + badFir);
  EXPECT_EQ(parseErr.exitCode, 1);
  EXPECT_NE(parseErr.output.find("essentc:"), std::string::npos);
}

}  // namespace
