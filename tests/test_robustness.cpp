// Robustness tests: subprocess watchdog, resource-guard ceilings, parallel
// engine graceful degradation, the mutation crash fuzzer, the oracle's
// hang watchdog, and the essentc CLI exit-code contract.
#include <gtest/gtest.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/parallel_engine.h"
#include "fuzz/mutator.h"
#include "fuzz/oracle.h"
#include "fuzz/stimulus.h"
#include "obs/json.h"
#include "sim/compile.h"
#include "support/resource_guard.h"
#include "support/subprocess.h"
#include "support/threadpool.h"

#ifndef ESSENTC_PATH
#error "ESSENTC_PATH must be defined by the build"
#endif

namespace {

using namespace essent;

int64_t nowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- subprocess watchdog ---

TEST(Subprocess, NormalExitUnaffectedByTimeout) {
  support::RunOptions ro;
  ro.timeoutMs = 5000;
  support::ExecResult r = support::runShell("exit 7", ro);
  EXPECT_TRUE(r.ran);
  EXPECT_TRUE(r.exited);
  EXPECT_EQ(r.exitCode, 7);
  EXPECT_FALSE(r.timedOut);
}

TEST(Subprocess, WatchdogKillsHangingProcess) {
  support::RunOptions ro;
  ro.timeoutMs = 300;
  ro.killGraceMs = 200;
  int64_t t0 = nowMs();
  support::ExecResult r = support::runShell("sleep 30", ro);
  int64_t elapsed = nowMs() - t0;
  EXPECT_TRUE(r.timedOut);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.describe().find("timed out"), std::string::npos) << r.describe();
  // Killed promptly, nowhere near the 30 s sleep.
  EXPECT_LT(elapsed, 5000) << elapsed;
}

TEST(Subprocess, WatchdogKillsWholeProcessGroup) {
  // The child spawns its own child; the group kill must take out both,
  // promptly (a surviving grandchild would hold the pipe open for 30 s).
  support::RunOptions ro;
  ro.timeoutMs = 300;
  ro.killGraceMs = 200;
  int64_t t0 = nowMs();
  support::ExecResult r = support::runShell("sleep 30 & wait", ro);
  EXPECT_TRUE(r.timedOut);
  EXPECT_LT(nowMs() - t0, 5000);
}

// --- resource guard ---

TEST(ResourceGuard, ChecksThrowStructuredCodes) {
  support::ResourceLimits lim{100, 1000, 50, 0};
  support::ResourceGuard g(lim);
  EXPECT_NO_THROW(g.checkIrOps(100));
  EXPECT_NO_THROW(g.checkSimMem(1000));
  EXPECT_NO_THROW(g.checkCycles(50));
  EXPECT_NO_THROW(g.checkDeadline());
  try {
    g.checkIrOps(101);
    FAIL() << "expected ResourceExhausted";
  } catch (const support::ResourceExhausted& e) {
    EXPECT_EQ(e.code(), "E0501");
  }
  try {
    g.checkSimMem(1001);
    FAIL();
  } catch (const support::ResourceExhausted& e) {
    EXPECT_EQ(e.code(), "E0502");
  }
  try {
    g.checkCycles(51);
    FAIL();
  } catch (const support::ResourceExhausted& e) {
    EXPECT_EQ(e.code(), "E0503");
  }
}

TEST(ResourceGuard, ZeroDisablesLimits) {
  support::ResourceGuard g(support::ResourceLimits::unlimited());
  EXPECT_NO_THROW(g.checkIrOps(UINT64_MAX));
  EXPECT_NO_THROW(g.checkSimMem(UINT64_MAX));
  EXPECT_NO_THROW(g.checkCycles(UINT64_MAX));
  EXPECT_NO_THROW(g.checkDeadline());
}

TEST(ResourceGuard, DeadlineExpires) {
  support::ResourceLimits lim;
  lim.wallDeadlineMs = 1;
  support::ResourceGuard g(lim);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  try {
    g.checkDeadline();
    FAIL() << "expected ResourceExhausted";
  } catch (const support::ResourceExhausted& e) {
    EXPECT_EQ(e.code(), "E0504");
  }
}

TEST(ResourceGuard, BuilderRefusesExplosiveDesign) {
  // 8 instances per level, 8 levels deep: 8^8 = 16.7M decls after
  // flattening. The AST-level estimate must refuse this BEFORE lowering
  // materializes it.
  std::string fir = "circuit Blow :\n";
  for (int level = 7; level >= 1; level--) {
    fir += "  module L" + std::to_string(level) + " :\n";
    fir += "    input x : UInt<1>\n    output y : UInt<1>\n";
    for (int k = 0; k < 8; k++) {
      std::string inst = "i" + std::to_string(k);
      fir += "    inst " + inst + " of L" + std::to_string(level + 1) + "\n";
      fir += "    " + inst + ".x <= x\n";
    }
    fir += "    y <= i0.y\n";
  }
  fir += "  module L8 :\n    input x : UInt<1>\n    output y : UInt<1>\n    y <= x\n";
  fir += "  module Blow :\n    input x : UInt<1>\n    output y : UInt<1>\n";
  fir += "    inst root of L1\n    root.x <= x\n    y <= root.y\n";

  diag::DiagEngine de;
  de.setSource("<blow>", fir);
  support::ResourceLimits lim;
  lim.maxIrOps = 100000;
  int64_t t0 = nowMs();
  auto ir = sim::buildFromFirrtlDiag(fir, {}, de, lim);
  EXPECT_FALSE(ir.has_value());
  ASSERT_TRUE(de.hasErrors());
  EXPECT_EQ(de.diagnostics()[0].code, "E0501");
  EXPECT_LT(nowMs() - t0, 5000);  // refused from the AST, not after flattening
}

// --- parallel engine degradation ---

const char* kCounterFir =
    "circuit Counter :\n"
    "  module Counter :\n"
    "    input clock : Clock\n"
    "    input en : UInt<1>\n"
    "    output count : UInt<8>\n"
    "    reg r : UInt<8>, clock\n"
    "    r <= tail(add(r, en), 1)\n"
    "    count <= r\n";

TEST(Degradation, PoolSpawnFailureDegradesLanes) {
  // Every spawn fails: the pool degenerates to the calling thread alone.
  support::ThreadPool::failSpawnsAfterForTest(0);
  support::ThreadPool p0(4);
  EXPECT_EQ(p0.numThreads(), 1u);
  // One worker spawns before the OS "runs out": 2 lanes of the requested 4,
  // and the degraded pool still forks/joins correctly.
  support::ThreadPool::failSpawnsAfterForTest(1);
  support::ThreadPool p1(4);
  EXPECT_EQ(p1.numThreads(), 2u);
  std::atomic<int> lanes{0};
  p1.run([&](unsigned) { lanes++; });
  EXPECT_EQ(lanes.load(), 2);
}

TEST(Degradation, MakeCcssEngineFallsBackToSerialWithWarning) {
  sim::SimIR ir = sim::buildFromFirrtl(kCounterFir);
  core::ScheduleOptions so;
  // Every spawn fails. On a single-core host the clamp already routes to
  // the serial engine; on a larger host the spawn failure does. Either way:
  // a usable serial engine plus at least one warning, never a crash.
  support::ThreadPool::failSpawnsAfterForTest(0);
  std::vector<std::string> warnings;
  auto eng = core::makeCcssEngine(
      core::CompiledCcss::compile(sim::CompiledDesign::compile(ir), so), 4, &warnings);
  ASSERT_NE(eng, nullptr);
  EXPECT_EQ(eng->threadCount(), 1u);
  EXPECT_FALSE(warnings.empty());
  // And it still simulates correctly, bit-exact with a plain serial engine.
  core::ActivityEngine ref(core::CompiledCcss::compile(sim::CompiledDesign::compile(ir), so));
  eng->poke("en", 1);
  ref.poke("en", 1);
  for (int c = 0; c < 10; c++) {
    eng->tick();
    ref.tick();
  }
  EXPECT_EQ(eng->peek("count"), ref.peek("count"));
  // The hook is one-shot, consumed by the first pool construction; when the
  // clamp skipped pool construction entirely, consume it here so later
  // tests see a healthy pool.
  support::ThreadPool disarm(1);
  EXPECT_EQ(disarm.numThreads(), 1u);
}

TEST(Degradation, OversubscriptionClampedWithWarning) {
  sim::SimIR ir = sim::buildFromFirrtl(kCounterFir);
  core::ScheduleOptions so;
  std::vector<std::string> warnings;
  auto eng = core::makeCcssEngine(
      core::CompiledCcss::compile(sim::CompiledDesign::compile(ir), so), 100000, &warnings);
  ASSERT_NE(eng, nullptr);
  EXPECT_FALSE(warnings.empty());
}

// --- mutation fuzzer ---

TEST(Mutator, Deterministic) {
  std::string base = kCounterFir;
  std::string a = fuzz::mutateText(base, 12345, 8);
  std::string b = fuzz::mutateText(base, 12345, 8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, fuzz::mutateText(base, 54321, 8));
}

TEST(Mutator, SmallCampaignIsCrashFreeAndDeterministic) {
  fuzz::MutateConfig mc;
  mc.seed = 7;
  mc.budget = 120;
  fuzz::MutateSummary s1 = fuzz::runMutateCampaign(mc, nullptr);
  EXPECT_EQ(s1.cases, 120u);
  EXPECT_EQ(s1.crashes, 0u) << "front end crashed on a mutant";
  EXPECT_FALSE(s1.failed());
  fuzz::MutateSummary s2 = fuzz::runMutateCampaign(mc, nullptr);
  EXPECT_EQ(s1.digest, s2.digest);
  EXPECT_EQ(s1.built, s2.built);
}

// --- oracle watchdog ---

// The hang is the test's own doing, so its scratch directory must not be
// kept as a failure's would be: a private TMPDIR is empty afterwards.
TEST(OracleWatchdog, InjectedHangIsKilledAndReportedAsTimeout) {
  namespace fs = std::filesystem;
  char scratchT[] = "/tmp/essent_watchdog_XXXXXX";
  ASSERT_NE(mkdtemp(scratchT), nullptr);
  const std::string scratch = scratchT;
  const char* oldTmp = std::getenv("TMPDIR");
  const std::string savedTmp = oldTmp ? oldTmp : "";
  setenv("TMPDIR", scratch.c_str(), 1);

  sim::SimIR ir = sim::buildFromFirrtl(kCounterFir);
  fuzz::Stimulus stim = fuzz::randomStimulus(ir, 1, 5, 0.5);
  fuzz::OracleOptions oo;
  oo.engines = {fuzz::EngineKind::FullCycle, fuzz::EngineKind::Codegen};
  oo.subprocessTimeoutMs = 3000;
  oo.injectHangForTest = true;
  int64_t t0 = nowMs();
  fuzz::OracleResult res = fuzz::runOracle(kCounterFir, stim, oo);

  if (oldTmp) setenv("TMPDIR", savedTmp.c_str(), 1);
  else unsetenv("TMPDIR");
  std::vector<std::string> left;
  for (const fs::directory_entry& ent : fs::directory_iterator(scratch))
    left.push_back(ent.path().filename().string());
  fs::remove_all(scratch);

  ASSERT_TRUE(res.divergence.has_value());
  EXPECT_EQ(res.divergence->kind, fuzz::Divergence::Kind::Timeout);
  EXPECT_LT(nowMs() - t0, 60000);
  EXPECT_EQ(left, std::vector<std::string>{}) << "left behind in the private TMPDIR";
}

// --- essentc CLI exit-code contract ---

struct CliResult {
  int exitCode = -1;
  std::string output;
};

CliResult runCli(const std::string& args) {
  char dirTemplate[] = "/tmp/essent_robust_XXXXXX";
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

std::string writeTemp(const std::string& contents, const char* suffix = ".fir") {
  char fileTemplate[] = "/tmp/essent_robust_f_XXXXXX";
  int fd = mkstemp(fileTemplate);
  if (fd >= 0) close(fd);
  std::string path = std::string(fileTemplate) + suffix;
  std::ofstream f(path);
  f << contents;
  return path;
}

const char* kMultiErrorFir =
    "circuit Bad :\n"
    "  module Bad :\n"
    "    input x : UInt<8\n"
    "    output y : UInt<8>\n"
    "    node n = add(x,\n"
    "    y <= n\n";

TEST(CliRobust, HelpDocumentsExitCodes) {
  auto res = runCli("--help");
  EXPECT_EQ(res.exitCode, 2);
  EXPECT_NE(res.output.find("exit codes"), std::string::npos) << res.output;
  EXPECT_NE(res.output.find("124"), std::string::npos);
}

TEST(CliRobust, MultiErrorFileRendersAllDiagnosticsAndJson) {
  std::string fir = writeTemp(kMultiErrorFir);
  std::string json = writeTemp("", ".json");
  auto res = runCli("--stats --diag-json " + json + " " + fir);
  EXPECT_EQ(res.exitCode, 1);
  // Both errors rendered, clang-style, with locations.
  EXPECT_NE(res.output.find(":3:"), std::string::npos) << res.output;
  EXPECT_NE(res.output.find(":5:"), std::string::npos) << res.output;
  EXPECT_NE(res.output.find("[E02"), std::string::npos) << res.output;
  // The JSON mirror round-trips through diagnosticsFromJson.
  std::ifstream f(json);
  std::stringstream ss;
  ss << f.rdbuf();
  obs::Json doc = obs::Json::parse(ss.str());
  std::vector<diag::Diagnostic> back = diag::diagnosticsFromJson(doc);
  EXPECT_GE(back.size(), 2u);
  EXPECT_EQ(back[0].span.line, 3);
}

TEST(CliRobust, InjectedHangExits124) {
  std::string fir = writeTemp(
      "circuit T :\n  module T :\n    input clock : Clock\n"
      "    input x : UInt<4>\n    output y : UInt<4>\n    y <= x\n");
  auto res = runCli("--compile-run 3 --inject-hang --timeout-ms 3000 " + fir);
  EXPECT_EQ(res.exitCode, 124) << res.output;
  EXPECT_NE(res.output.find("timed out"), std::string::npos) << res.output;
}

TEST(CliRobust, ResourceCeilingsExit1WithE05xx) {
  std::string fir = writeTemp(kCounterFir);
  auto overCycles = runCli("--run 100 --max-cycles 10 " + fir);
  EXPECT_EQ(overCycles.exitCode, 1);
  EXPECT_NE(overCycles.output.find("E0503"), std::string::npos) << overCycles.output;
  auto overOps = runCli("--stats --max-ir-ops 1 " + fir);
  EXPECT_EQ(overOps.exitCode, 1);
  EXPECT_NE(overOps.output.find("E0501"), std::string::npos) << overOps.output;
}

// --- SIGINT/SIGTERM relay during --compile-run ---

// True when any live process's /proc cmdline mentions `needle` (cmdline is
// NUL-separated; search the raw bytes). Used to prove the relayed signal
// killed the whole compiler/simulator process group, not just essentc.
bool anyProcessMentions(const std::string& needle) {
  namespace fs = std::filesystem;
  std::error_code ec;
  for (const fs::directory_entry& ent : fs::directory_iterator("/proc", ec)) {
    std::string name = ent.path().filename().string();
    if (name.empty() || name.find_first_not_of("0123456789") != std::string::npos) continue;
    std::ifstream f(ent.path() / "cmdline", std::ios::binary);
    if (!f.good()) continue;
    std::stringstream ss;
    ss << f.rdbuf();
    if (ss.str().find(needle) != std::string::npos) return true;
  }
  return false;
}

TEST(CliRobust, CompileRunInterruptKillsChildrenCleansUpExits130) {
  namespace fs = std::filesystem;
  std::string fir = writeTemp(
      "circuit T :\n  module T :\n    input clock : Clock\n"
      "    input x : UInt<4>\n    output y : UInt<4>\n    y <= x\n");
  // Private TMPDIR so the leak check below only sees this test's dirs.
  char scratchT[] = "/tmp/essent_sigrelay_XXXXXX";
  char* made = mkdtemp(scratchT);
  ASSERT_NE(made, nullptr);
  std::string scratch = made;

  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    setenv("TMPDIR", scratch.c_str(), 1);
    int devnull = open("/dev/null", O_WRONLY);
    if (devnull >= 0) {
      dup2(devnull, 1);
      dup2(devnull, 2);
    }
    // --inject-hang: the generated simulator spins forever, so without the
    // signal relay this test could only end via SIGKILL and a leaked dir.
    execl(ESSENTC_PATH, ESSENTC_PATH, "--compile-run", "5", "--inject-hang", fir.c_str(),
          static_cast<char*>(nullptr));
    _exit(127);
  }

  // Wait for essentc's compile-run scratch dir: proof it is in a subprocess
  // phase (host compile or the hung simulator). The relay must work in both,
  // so any moment after this is a valid interrupt point.
  bool sawScratch = false;
  int64_t t0 = nowMs();
  while (!sawScratch && nowMs() - t0 < 60'000) {
    std::error_code ec;
    for (const fs::directory_entry& ent : fs::directory_iterator(scratch, ec))
      if (ent.path().filename().string().rfind("essentc_cr_", 0) == 0) sawScratch = true;
    if (!sawScratch) std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_TRUE(sawScratch) << "essentc never reached the --compile-run subprocess phase";
  std::this_thread::sleep_for(std::chrono::milliseconds(150));

  ASSERT_EQ(kill(pid, SIGINT), 0);

  // The exit-code contract: 128 + SIGINT, reached by unwinding normally
  // (not by the default terminate-on-SIGINT disposition).
  int status = 0;
  pid_t waited = 0;
  t0 = nowMs();
  while (nowMs() - t0 < 30'000) {
    waited = waitpid(pid, &status, WNOHANG);
    if (waited != 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  if (waited != pid) {
    kill(pid, SIGKILL);
    waitpid(pid, &status, 0);
    FAIL() << "essentc did not exit after SIGINT";
  }
  ASSERT_TRUE(WIFEXITED(status)) << "essentc died of the signal instead of unwinding";
  EXPECT_EQ(WEXITSTATUS(status), 130);

  // Normal unwinding means TempDir cleanup ran: no essentc_cr_* leftovers.
  std::vector<std::string> leftovers;
  std::error_code ec;
  for (const fs::directory_entry& ent : fs::directory_iterator(scratch, ec))
    leftovers.push_back(ent.path().filename().string());
  EXPECT_TRUE(leftovers.empty()) << "leaked scratch: " << leftovers.front();

  // The relayed signal reached the whole subprocess group: nothing still
  // alive references the scratch dir (allow a beat for children to die).
  bool orphans = true;
  t0 = nowMs();
  while (orphans && nowMs() - t0 < 5'000) {
    orphans = anyProcessMentions(scratch);
    if (orphans) std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_FALSE(orphans) << "a compiler/simulator child survived the interrupt";

  fs::remove_all(scratch, ec);
  std::remove(fir.c_str());
}

}  // namespace
