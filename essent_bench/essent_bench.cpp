// essent_bench: one benchmark workload per process, from FIRRTL text in
// memory to simulated cycles.
//
//   essent_bench --workload W --seed S --seconds N [--trace DIR]
//   essent_bench --smoke
//
// Untraced runs go only through the public API (sim::compileDesign,
// sim::makeEngine, workloads::loadProgram / runWorkload) and report the
// end-to-end metrics. A --trace run instead calls each layer's entry point
// in turn, records a span around every call and a per-tick histogram, and
// reports the per-layer metrics; its span file lands in DIR. Every run
// checks its outputs (checksums against the ISA reference model, counters
// across reps, serial vs parallel, compiled vs interpreted) and prints one
// JSON object as the last line of stdout. The exit code is 1 when any check
// failed and 2 on a usage or set-up error.
//
// Each workload is a closed loop with one caller: a rep starts when the
// previous one has finished. At most two threads (the two-lane BSP engine)
// or two host-compiler processes run at once. The host compiler's scratch
// directories go under $TMPDIR.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <essent/compile.h>
#include <essent/engine.h>

#include "codegen/emitter.h"
#include "core/netlist.h"
#include "core/partitioner.h"
#include "core/placement.h"
#include "core/schedule.h"
#include "designs/tinysoc.h"
#include "firrtl/parser.h"
#include "firrtl/passes.h"
#include "recorder.h"
#include "support/rng.h"
#include "support/subprocess.h"
#include "support/tempdir.h"
#include "workloads/driver.h"
#include "workloads/programs.h"

namespace fs = std::filesystem;
using namespace essent;
using essent_bench::Clock;
using essent_bench::Recorder;
using essent_bench::secondsBetween;
using essent_bench::TickHistogram;

namespace {

// ---------------------------------------------------------------------------
// Workloads

// The TinySoC programs keep their loop counters in 16-bit registers, so a
// larger count silently wraps (pchaseProgram(64, 1536) runs 196k cycles
// instead of ~590k). Long runs come from more reps, never from bigger
// program parameters.
constexpr uint64_t kMaxLoopCount = 65535;

void requireLoopCount(const char* what, uint64_t n) {
  if (n == 0 || n > kMaxLoopCount)
    throw std::invalid_argument(std::string(what) + " loop count " + std::to_string(n) +
                                " is outside [1, 65535]: the program's 16-bit counter would wrap");
}

workloads::Program dhrystone(uint64_t iterations) {
  requireLoopCount("dhrystone", iterations);
  return workloads::dhrystoneProgram(static_cast<uint32_t>(iterations));
}

// pchase over a list whose single-cycle order (Sattolo's algorithm) comes
// from the seed; the program text is pchaseProgram's.
workloads::Program pchase(uint64_t seed, uint32_t listLength, uint32_t laps) {
  requireLoopCount("pchase", uint64_t{listLength} * laps);
  workloads::Program p = workloads::pchaseProgram(listLength, laps);
  std::vector<uint32_t> perm(listLength);
  for (uint32_t i = 0; i < listLength; i++) perm[i] = i;
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x5eed);
  for (uint32_t i = listLength - 1; i >= 1; i--)
    std::swap(perm[i], perm[static_cast<uint32_t>(rng.nextBelow(i))]);
  p.data.clear();
  for (uint32_t i = 0; i < listLength; i++)
    p.data.emplace_back(static_cast<uint16_t>(256 + i), static_cast<uint16_t>(256 + perm[i]));
  return p;
}

struct Workload {
  std::string name;
  designs::SoCConfig design;
  workloads::Program program;
  sim::EngineKind kind = sim::EngineKind::Ccss;
  unsigned threads = 1;
  // Cycles the full-cycle reference engine runs after each rep, sized to
  // about a third of the rep's time.
  uint64_t fullWindow = 0;
  unsigned instances = 0;   // > 0: compiled flow, program instances per binary run
  bool compiled() const { return instances > 0; }
};

// The load cap: at most two threads (or two host compilers) at once.
constexpr unsigned kParallelLanes = 2;

// How long a run measures. Fresh set-ups get kSetupShare of `seconds` and
// reps the rest, split over `rounds` rounds of set-ups then reps, each
// round taking at least one of each however long it is. Spreading the
// set-ups over the run keeps their median clear of a burst of host load
// shorter than a round.
struct RunLength {
  double seconds = 0;
  size_t rounds = 1;
};
constexpr double kSetupShare = 0.25;

// A hung host compiler or compiled binary fails the run instead of stalling it.
constexpr int64_t kHostCompileTimeoutMs = 120'000;
constexpr int64_t kBinaryRunTimeoutMs = 60'000;

const std::vector<std::string> kWorkloads = {"boom-pchase", "r16-dhrystone", "boom-dhrystone-t2",
                                             "soc4-elab", "midsoc-compiled"};

designs::SoCConfig midsoc(bool smoke) {
  designs::SoCConfig cfg = designs::socTiny();
  if (smoke) return cfg;
  cfg.name = "midsoc";
  cfg.numAccels = 8;
  cfg.accelLanes = 32;
  cfg.dmemDepth = 1024;
  return cfg;
}

Workload makeWorkload(const std::string& name, uint64_t seed, bool smoke) {
  Workload w;
  w.name = name;
  if (name == "boom-pchase") {
    w.design = designs::socBoom();
    w.program = pchase(seed, 64, smoke ? 2 : 50);
    w.fullWindow = smoke ? 20 : 200;
  } else if (name == "r16-dhrystone") {
    w.design = designs::socR16();
    w.program = dhrystone(smoke ? 8 : 1000 + seed % 64);
    w.fullWindow = smoke ? 50 : 600;
  } else if (name == "boom-dhrystone-t2") {
    w.design = designs::socBoom();
    w.program = dhrystone(smoke ? 8 : 512 + seed % 64);
    w.kind = sim::EngineKind::CcssPar;
    w.threads = kParallelLanes;
    w.fullWindow = smoke ? 20 : 200;
  } else if (name == "soc4-elab") {
    w.design = designs::socScaled(smoke ? 1 : 4);
    w.program = dhrystone(smoke ? 8 : 32 + seed % 8);
    w.fullWindow = smoke ? 10 : 30;
  } else if (name == "midsoc-compiled") {
    w.design = midsoc(smoke);
    w.program = dhrystone(smoke ? 16 : 16384 + seed % 64);
    w.instances = smoke ? 2 : 10;
    w.fullWindow = smoke ? 200 : 30000;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

// ---------------------------------------------------------------------------
// Results and checks

struct Outcome {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::pair<std::string, double>> info;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  // One set-up, rep, compiled run or cross-check: counted in attempted,
  // and in failed when `ok` is false.
  void check(bool ok, const std::string& what) {
    attempted++;
    if (ok) return;
    failed++;
    if (failures.size() < 20) failures.push_back(what);
  }
};

struct Expected {
  uint16_t result = 0;  // dmem[21]
  uint64_t maxCycles = 0;
};

Expected expectedFor(const workloads::Program& p) {
  workloads::RefState ref = workloads::runReferenceModel(p, 50'000'000);
  if (!ref.halted) throw std::runtime_error(p.name + ": reference model did not halt");
  // Generous cap: the core needs a handful of cycles per instruction.
  return Expected{ref.regs[1], 64 * ref.instret + 10'000};
}

bool sameStats(const sim::EngineStats& a, const sim::EngineStats& b) {
  return a.cycles == b.cycles && a.opsEvaluated == b.opsEvaluated &&
         a.partitionChecks == b.partitionChecks &&
         a.partitionActivations == b.partitionActivations &&
         a.outputComparisons == b.outputComparisons && a.triggerSets == b.triggerSets &&
         a.signalsChangedTotal == b.signalsChangedTotal;
}

std::string hex(unsigned v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "0x%x", v);
  return buf;
}

std::string describe(const workloads::WorkloadResult& r) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "halted=%d result=0x%x cycles=%llu ops=%llu", r.halted ? 1 : 0,
                r.result, static_cast<unsigned long long>(r.stats.cycles),
                static_cast<unsigned long long>(r.stats.opsEvaluated));
  return buf;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Quartile as Python's statistics.quantiles(v, n=4) (exclusive method).
double quartile(std::vector<double> v, int k) {
  if (v.size() < 2) return v.empty() ? 0 : v[0];
  std::sort(v.begin(), v.end());
  double m = static_cast<double>(v.size()) + 1;
  double pos = m * k / 4.0;
  int j = static_cast<int>(std::floor(pos));
  double delta = pos - j;
  j = std::clamp(j, 1, static_cast<int>(v.size()) - 1);
  double lo = v[static_cast<size_t>(j - 1)], hi = v[static_cast<size_t>(j)];
  return lo + delta * (hi - lo);
}

double peakRssMb() {
  rusage self{}, kids{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &kids);
  return static_cast<double>(std::max(self.ru_maxrss, kids.ru_maxrss)) / 1024.0;
}

// ---------------------------------------------------------------------------
// Reps

// Simulated cycles (reset ticks included) per host second of the run
// itself; resetState and loadProgram are outside it, so a design's reset
// cost does not depend on how long the program runs.
double khz(const workloads::WorkloadResult& r) {
  return static_cast<double>(r.stats.cycles) / r.seconds / 1e3;
}

// One closed-loop rep: resetState -> loadProgram -> runWorkload.
workloads::WorkloadResult timedRep(sim::Engine& eng, const workloads::Program& p,
                                   uint64_t maxCycles) {
  eng.resetState();
  workloads::loadProgram(eng, p);
  return workloads::runWorkload(eng, maxCycles);
}

// The same rep with each tick timed into `hist` and spans around the
// layer calls; mirrors workloads::runWorkload tick for tick.
workloads::WorkloadResult tracedRep(sim::Engine& eng, const workloads::Program& p,
                                    uint64_t maxCycles, TickHistogram& hist, Recorder& rec) {
  workloads::WorkloadResult r;
  Recorder::Scope rep(rec, "rep");
  {
    Recorder::Scope s(rec, "sim.reset_state");
    eng.resetState();
  }
  {
    Recorder::Scope s(rec, "workloads.load");
    workloads::loadProgram(eng, p);
  }
  Recorder::Scope run(rec, "run");
  const auto t0 = Clock::now();
  // One clock read per tick: a tick's time is the gap since the previous
  // read, which adds only the loop's own bookkeeping.
  auto last = t0;
  auto tick = [&] {
    eng.tick();
    auto now = Clock::now();
    hist.add(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - last).count()));
    last = now;
  };
  eng.poke("reset", 1);
  tick();
  tick();
  eng.poke("reset", 0);
  for (uint64_t c = 0; c < maxCycles && !eng.stopped(); c++) {
    tick();
    r.cycles++;
  }
  r.seconds = secondsBetween(t0, Clock::now());
  r.halted = eng.stopped();
  r.instret = eng.peek("instret");
  r.result = static_cast<uint16_t>(eng.peekMem("dmem", 21));
  r.stats = eng.stats();
  return r;
}

// ---------------------------------------------------------------------------
// Compiled flow: emit sharded C++, compile each unit with the host compiler
// (at most two at once), link, and run the binary out of process.

// One host command; its stdout and stderr go to `log`.
struct Job {
  Job(std::string name, std::vector<std::string> argv, fs::path log)
      : name(std::move(name)), argv(std::move(argv)), log(std::move(log)) {}
  std::string name;
  std::vector<std::string> argv;
  fs::path log;
  Clock::time_point start, end;
  support::ExecResult result;
  double seconds() const { return secondsBetween(start, end); }
};

// Runs `jobs` on at most kParallelLanes threads, each lane taking the next
// job when its previous one ends. Returns the first failure with the head
// of its log, or nothing when every job succeeded.
std::optional<std::string> runJobs(std::vector<Job>& jobs, int64_t timeoutMs) {
  support::RunOptions opts;
  opts.timeoutMs = timeoutMs;
  std::atomic<size_t> next{0};
  auto lane = [&] {
    for (size_t i; (i = next++) < jobs.size();) {
      Job& j = jobs[i];
      std::string cmd;
      for (const auto& a : j.argv) cmd += support::shellQuote(a) + " ";
      cmd += "> " + support::shellQuote(j.log.string()) + " 2>&1";
      j.start = Clock::now();
      j.result = support::runShell(cmd, opts);
      j.end = Clock::now();
    }
  };
  std::optional<std::thread> second;
  if (jobs.size() > 1) second.emplace(lane);
  lane();
  if (second) second->join();
  for (const Job& j : jobs) {
    if (j.result.ok()) continue;
    std::ifstream in(j.log);
    std::string head(400, '\0');
    in.read(head.data(), static_cast<std::streamsize>(head.size()));
    head.resize(static_cast<size_t>(in.gcount()));
    return j.name + " " + j.result.describe() + ": " + head;
  }
  return std::nullopt;
}

// Runs N back-to-back program instances, each from a freshly constructed
// simulator, and reports each instance's cycles, checksum and time.
const char* kHarness = R"(#include "sim.h"
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>
int main(int argc, char** argv) {
  if (argc != 4) return 2;
  std::FILE* f = std::fopen(argv[1], "r");
  if (!f) return 2;
  unsigned n = 0, m = 0;
  std::vector<unsigned> code, addr, val;
  if (std::fscanf(f, "%u", &n) != 1) return 2;
  code.resize(n);
  for (auto& c : code) if (std::fscanf(f, "%u", &c) != 1) return 2;
  if (std::fscanf(f, "%u", &m) != 1) return 2;
  addr.resize(m);
  val.resize(m);
  for (unsigned i = 0; i < m; i++) if (std::fscanf(f, "%u %u", &addr[i], &val[i]) != 2) return 2;
  std::fclose(f);
  const unsigned instances = (unsigned)std::atoi(argv[2]);
  const unsigned long long maxCycles = std::strtoull(argv[3], nullptr, 10);
  std::vector<unsigned long long> cycles(instances), result(instances);
  std::vector<double> secs(instances);
  for (unsigned k = 0; k < instances; k++) {
    auto t0 = std::chrono::steady_clock::now();
    auto sim = std::make_unique<essent_gen::Simulator>();
    for (unsigned i = 0; i < n; i++) sim->mem_imem[i] = code[i];
    for (unsigned i = 0; i < m; i++) sim->mem_dmem[addr[i]] = val[i];
    sim->reset = 1; sim->eval(); sim->eval(); sim->reset = 0;
    unsigned long long c = 0;
    while (!sim->stopped_ && c < maxCycles) { sim->eval(); c++; }
    cycles[k] = c;
    result[k] = sim->mem_dmem[21];
    secs[k] = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  }
  for (unsigned k = 0; k < instances; k++)
    std::printf("instance %u cycles=%llu result=%llu seconds=%.9f\n", k, cycles[k], result[k],
                secs[k]);
  return 0;
}
)";

constexpr uint32_t kShards = 2;

struct Emission {
  codegen::ShardedCpp code;
  uint64_t bytesTotal = 0;
  uint64_t unitBytesMax = 0;
};

Emission emit(const sim::SimIR& ir, const core::CondPartSchedule& sched) {
  Emission e;
  e.code = codegen::emitCppSharded(ir, &sched, codegen::CodegenOptions{}, kShards, "sim");
  e.bytesTotal = e.code.header.size();
  for (const auto& u : e.code.units) {
    e.bytesTotal += u.size();
    e.unitBytesMax = std::max<uint64_t>(e.unitBytesMax, u.size());
  }
  return e;
}

// The compiled simulator and its program file; the scratch directory
// holding them goes with it.
struct Binary {
  std::unique_ptr<support::TempDir> dir;
  fs::path exe;
  fs::path program;
  uint64_t bytesTotal = 0;
  uint64_t unitBytesMax = 0;
  double compileMax = 0;
  double compileSum = 0;
  double linkSeconds = 0;
};

void writeFile(const fs::path& path, const std::string& text) {
  std::ofstream f(path, std::ios::binary);
  f << text;
  if (!f) throw std::runtime_error("cannot write " + path.string());
}

std::string programText(const workloads::Program& p) {
  std::ostringstream os;
  os << p.code.size() << "\n";
  for (uint16_t c : p.code) os << c << " ";
  os << "\n" << p.data.size() << "\n";
  for (auto [a, v] : p.data) os << a << " " << v << "\n";
  return os.str();
}

// Emits, compiles and links the CCSS simulator for `ir` into a fresh
// scratch directory, next to the program it runs. With a recorder, each
// step is a span under the innermost open one.
Binary buildBinary(const sim::SimIR& ir, const core::CondPartSchedule& sched,
                   const workloads::Program& program, Recorder* rec) {
  Binary b;
  b.dir = std::make_unique<support::TempDir>("essent_bench_XXXXXX");
  const fs::path dir = b.dir->path();
  Emission e;
  {
    std::optional<Recorder::Scope> s;
    if (rec) s.emplace(*rec, "codegen.emit");
    e = emit(ir, sched);
  }
  const codegen::ShardedCpp& sh = e.code;
  b.bytesTotal = e.bytesTotal;
  b.unitBytesMax = e.unitBytesMax;
  {
    std::optional<Recorder::Scope> s;
    if (rec) s.emplace(*rec, "codegen.write");
    writeFile(dir / sh.headerName, sh.header);
    for (size_t k = 0; k < sh.units.size(); k++) writeFile(dir / sh.unitNames[k], sh.units[k]);
    writeFile(dir / "main.cpp", kHarness);
  }
  std::vector<std::string> sources = sh.unitNames;
  sources.push_back("main.cpp");
  std::vector<Job> compiles;
  std::vector<std::string> linkArgv = {"c++", "-o", (dir / "sim").string()};
  for (const auto& src : sources) {
    std::string obj = (dir / (src + ".o")).string();
    linkArgv.push_back(obj);
    compiles.emplace_back(
        "host.compile:" + src,
        std::vector<std::string>{"c++", "-std=c++20", "-O2", "-c", (dir / src).string(), "-o", obj},
        dir / (src + ".log"));
  }
  std::vector<Job> link = {Job("host.link", linkArgv, dir / "link.log")};
  {
    std::optional<Recorder::Scope> s;
    if (rec) s.emplace(*rec, "host.compile");
    if (auto err = runJobs(compiles, kHostCompileTimeoutMs)) throw std::runtime_error(*err);
    if (rec)
      for (const Job& j : compiles) rec->add(j.name, j.start, j.end);
  }
  for (const Job& j : compiles) {
    b.compileMax = std::max(b.compileMax, j.seconds());
    b.compileSum += j.seconds();
  }
  {
    std::optional<Recorder::Scope> s;
    if (rec) s.emplace(*rec, "host.link");
    if (auto err = runJobs(link, kHostCompileTimeoutMs)) throw std::runtime_error(*err);
  }
  b.linkSeconds = link[0].seconds();
  b.exe = dir / "sim";
  b.program = dir / "program.txt";
  writeFile(b.program, programText(program));
  return b;
}

struct BinaryRun {
  bool ok = false;
  std::string error;
  double wallSeconds = 0;  // process, as the caller waits for it
  std::vector<uint64_t> cycles, results;
  std::vector<double> khz;  // per instance, reset ticks included, as the binary timed it
};

BinaryRun runBinary(const Binary& b, unsigned instances, uint64_t maxCycles) {
  BinaryRun r;
  std::vector<Job> run = {Job("compiled.run",
                              {b.exe.string(), b.program.string(), std::to_string(instances),
                               std::to_string(maxCycles)},
                              b.exe.parent_path() / "run.out")};
  if (auto err = runJobs(run, kBinaryRunTimeoutMs)) {
    r.error = *err;
    return r;
  }
  r.wallSeconds = run[0].seconds();
  std::ifstream in(run[0].log);
  std::string line;
  while (std::getline(in, line)) {
    unsigned k = 0;
    unsigned long long c = 0, v = 0;
    double s = 0;
    if (std::sscanf(line.c_str(), "instance %u cycles=%llu result=%llu seconds=%lf", &k, &c, &v,
                    &s) == 4 &&
        s > 0) {
      r.cycles.push_back(c);
      r.results.push_back(v);
      r.khz.push_back(static_cast<double>(c + 2) / s / 1e3);
    }
  }
  r.ok = r.cycles.size() == instances;
  if (!r.ok) r.error = "the binary reported " + std::to_string(r.cycles.size()) + " instances";
  return r;
}

// Every instance of the compiled binary must match the interpreted engine's
// cycle count (reset ticks excluded) and the reference checksum.
void checkBinaryRun(Outcome& out, const BinaryRun& r, uint64_t cycles, uint16_t result) {
  if (!r.ok) return out.check(false, "compiled run: " + r.error);
  bool ok = true;
  for (size_t k = 0; ok && k < r.cycles.size(); k++)
    ok = r.cycles[k] == cycles && r.results[k] == result;
  out.check(ok, "compiled run: checksum or cycles differ from the interpreted engine");
}

// ---------------------------------------------------------------------------
// Set-up paths

sim::EngineOptions engineOptions(const Workload& w, std::vector<std::string>* warnings) {
  sim::EngineOptions o;
  o.threads = w.threads;
  o.warnings = warnings;
  return o;
}

unsigned threadsOf(const sim::Engine& eng) {
  auto* act = dynamic_cast<const core::ActivityEngine*>(&eng);
  return act ? act->threadCount() : 1;
}

// Engine degradations (thread clamping, spawn failure) explain a
// parallel-engine check failure, so they go to stderr.
void logWarnings(const std::vector<std::string>& warnings) {
  for (const auto& m : warnings) std::fprintf(stderr, "essent_bench: engine: %s\n", m.c_str());
}

// Public API: text -> CompiledDesign -> engine with its program loaded.
struct PublicBuild {
  std::shared_ptr<const sim::CompiledDesign> design;
  std::unique_ptr<sim::Engine> engine;
};

void publicSetup(const Workload& w, const std::string& text, PublicBuild& b) {
  std::vector<std::string> warnings;
  b.design = sim::compileDesign(text);
  b.engine = sim::makeEngine(w.kind, b.design, engineOptions(w, &warnings));
  workloads::loadProgram(*b.engine, w.program);
  logWarnings(warnings);
}

// Layer by layer, one span per entry point, under one "setup" span.
struct TracedBuild {
  std::shared_ptr<const sim::CompiledDesign> design;
  std::shared_ptr<const core::CompiledCcss> ccss;
  std::unique_ptr<core::ActivityEngine> engine;
  std::optional<Binary> binary;
  int setupSpan = -1;
};

void tracedSetup(const Workload& w, const std::string& text, Recorder& rec, TracedBuild& b) {
  b = TracedBuild{};
  // Intermediates are released after the setup span closes: set-up ends
  // when the engine is ready for its first tick.
  std::unique_ptr<firrtl::Circuit> circuit;
  std::unique_ptr<firrtl::Module> lowered;
  std::optional<core::Netlist> nl;
  std::optional<core::Partitioning> parts;
  const core::ScheduleOptions sopts;
  std::vector<std::string> warnings;
  Recorder::Scope setup(rec, "setup");
  b.setupSpan = setup.id();
  {
    Recorder::Scope s(rec, "firrtl.parse");
    circuit = firrtl::parseCircuit(text);
  }
  {
    Recorder::Scope s(rec, "firrtl.lower");
    lowered = firrtl::lowerCircuit(*circuit);
  }
  sim::SimIR ir;
  {
    Recorder::Scope s(rec, "sim.build");
    ir = sim::buildSimIR(*lowered, sim::BuildOptions{});
  }
  {
    Recorder::Scope s(rec, "sim.design_compile");
    b.design = sim::CompiledDesign::compile(std::move(ir));
  }
  {
    Recorder::Scope s(rec, "core.netlist");
    nl.emplace(core::Netlist::build(b.design->ir));
  }
  {
    Recorder::Scope s(rec, "core.partition");
    parts.emplace(core::partitionNetlist(*nl, sopts.partition));
  }
  core::CondPartSchedule sched;
  {
    Recorder::Scope s(rec, "core.schedule");
    sched = core::buildScheduleFrom(*nl, *parts, sopts.stateElision);
  }
  {
    Recorder::Scope s(rec, "core.engine");
    b.ccss = core::CompiledCcss::compile(b.design, std::move(sched));
    if (w.kind == sim::EngineKind::CcssPar)
      b.engine = core::makeCcssEngine(b.ccss, w.threads, &warnings);
    else
      b.engine = std::make_unique<core::ActivityEngine>(b.ccss);
  }
  {
    Recorder::Scope s(rec, "workloads.load");
    workloads::loadProgram(*b.engine, w.program);
  }
  if (w.compiled()) b.binary = buildBinary(b.design->ir, b.ccss->body->sched, w.program, &rec);
  logWarnings(warnings);
}

// ---------------------------------------------------------------------------
// The untraced run: end-to-end metrics through the public API.

// Runs `body` at least `minSamples` times and until `seconds` have passed.
void closedLoop(double seconds, size_t minSamples, const std::function<void()>& body) {
  auto deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(seconds));
  for (size_t i = 0; i < minSamples || Clock::now() < deadline; i++) body();
}

// Median plus the quartiles and sample count, which go to `info`.
void reportMedian(Outcome& out, const std::string& name, const std::vector<double>& v,
                  const std::string& unit) {
  out.metric(name, median(v), unit);
  out.info.push_back({name + ".q1", quartile(v, 1)});
  out.info.push_back({name + ".q3", quartile(v, 3)});
  out.info.push_back({name + ".n", static_cast<double>(v.size())});
}

void runUntraced(const Workload& w, const std::string& text, const RunLength& len,
                 Outcome& out) {
  const Expected exp = expectedFor(w.program);
  const double setupSlice = len.seconds * kSetupShare / static_cast<double>(len.rounds);
  const double repSlice = len.seconds * (1 - kSetupShare) / static_cast<double>(len.rounds);
  std::vector<double> setupS, rate, runS, fullRate;
  // Fixed by the first round; every later rep and window must reproduce them.
  workloads::WorkloadResult warm, fullFirst;
  for (size_t round = 0; round < len.rounds; round++) {
    PublicBuild pb;
    std::optional<Binary> bin;
    closedLoop(setupSlice, 1, [&] {
      // The previous build is released before the clock starts.
      pb = PublicBuild{};
      bin.reset();
      auto t0 = Clock::now();
      publicSetup(w, text, pb);
      if (w.compiled()) {
        auto* act = dynamic_cast<core::ActivityEngine*>(pb.engine.get());
        bin = buildBinary(pb.design->ir, act->schedule(), w.program, nullptr);
      }
      setupS.push_back(secondsBetween(t0, Clock::now()));
      out.check(pb.engine != nullptr, "setup " + std::to_string(setupS.size()));
    });
    sim::Engine& eng = *pb.engine;

    // Untimed warm-up rep on the freshly loaded engine.
    workloads::WorkloadResult r = workloads::runWorkload(eng, exp.maxCycles);
    out.check(r.halted && r.result == exp.result && (round == 0 || sameStats(r.stats, warm.stats)),
              "warm-up rep: " + describe(r) + ", reference result " + hex(exp.result));
    if (round == 0) warm = r;

    if (round == 0 && w.kind == sim::EngineKind::CcssPar) {
      out.check(threadsOf(eng) >= 2, "parallel engine runs on " + std::to_string(threadsOf(eng)) +
                                         " thread(s); the run measured something else");
      auto serial = sim::makeEngine(sim::EngineKind::Ccss, pb.design);
      workloads::WorkloadResult s = timedRep(*serial, w.program, exp.maxCycles);
      out.check(sameStats(s.stats, warm.stats), "serial counters differ from parallel: " +
                                                    describe(s) + " vs " + describe(warm));
    }

    // The full-cycle reference engine runs a fixed window of the same
    // program on the same compiled design. Its untimed first window must
    // retire what the workload's engine retires over that window.
    auto full = sim::makeEngine(sim::EngineKind::FullCycle, pb.design);
    if (round == 0) {
      fullFirst = timedRep(*full, w.program, w.fullWindow);
      workloads::WorkloadResult window = timedRep(eng, w.program, w.fullWindow);
      out.check(fullFirst.cycles == w.fullWindow && fullFirst.cycles == window.cycles &&
                    fullFirst.instret == window.instret,
                "full-cycle window " + describe(fullFirst) + ", instret " +
                    std::to_string(fullFirst.instret) + " vs " + std::to_string(window.instret));
    } else {
      timedRep(*full, w.program, w.fullWindow);  // warm-up
    }

    if (bin) checkBinaryRun(out, runBinary(*bin, w.instances, exp.maxCycles), warm.cycles,
                            exp.result);  // warm-up

    closedLoop(repSlice, 1, [&] {
      if (bin) {
        BinaryRun b = runBinary(*bin, w.instances, exp.maxCycles);
        checkBinaryRun(out, b, warm.cycles, exp.result);
        if (b.ok) {
          rate.insert(rate.end(), b.khz.begin(), b.khz.end());
          runS.push_back(b.wallSeconds);
        }
      } else {
        workloads::WorkloadResult t = timedRep(eng, w.program, exp.maxCycles);
        out.check(t.halted && t.result == exp.result && sameStats(t.stats, warm.stats),
                  "rep: " + describe(t) + " vs warm-up " + describe(warm) +
                      ", reference result " + hex(exp.result));
        rate.push_back(khz(t));
        runS.push_back(t.seconds);
      }
      workloads::WorkloadResult f = timedRep(*full, w.program, w.fullWindow);
      out.check(f.instret == fullFirst.instret && sameStats(f.stats, fullFirst.stats),
                "full-cycle window: " + describe(f) + " vs first window " + describe(fullFirst));
      fullRate.push_back(khz(f));
    });
  }

  reportMedian(out, "sim_khz", rate, "kHz");
  reportMedian(out, "full_khz", fullRate, "kHz");
  reportMedian(out, "setup_s", setupS, "s");
  out.metric("peak_rss_mb", peakRssMb(), "MB");
  // Ungated: as a weighted sum of set-up and run time, it cannot worsen by
  // more than the worse of setup_s and sim_khz, which are gated.
  out.info.push_back({"text_to_result_s", median(setupS) + median(runS)});
  out.info.push_back({"speedup_vs_full", median(rate) / median(fullRate)});
  out.info.push_back({"cycles_per_rep", static_cast<double>(warm.stats.cycles)});
}

// ---------------------------------------------------------------------------
// The traced run: per-layer metrics.

void runTraced(const Workload& w, const std::string& text, const RunLength& len,
               const std::string& traceDir, Outcome& out) {
  const Expected exp = expectedFor(w.program);
  Recorder rec(w.name);

  // Reference counters from the public-API path (one set-up, one rep);
  // every later rep must reproduce them.
  workloads::WorkloadResult publicRun;
  {
    PublicBuild pb;
    publicSetup(w, text, pb);
    publicRun = workloads::runWorkload(*pb.engine, exp.maxCycles);
    out.check(publicRun.halted && publicRun.result == exp.result,
              "public-API rep: " + describe(publicRun));
  }
  const sim::EngineStats& stats = publicRun.stats;

  // Layer-by-layer set-ups; the last one's engine runs the reps.
  std::map<std::string, std::vector<double>> layer;
  TracedBuild tb;
  closedLoop(len.seconds * kSetupShare, len.rounds, [&] {
    tracedSetup(w, text, rec, tb);
    int id = tb.setupSpan;
    double total = rec.span(id).seconds();
    for (const char* name :
         {"firrtl.parse", "firrtl.lower", "sim.build", "sim.design_compile", "core.netlist",
          "core.partition", "core.schedule", "core.engine", "codegen.emit"})
      layer[name].push_back(rec.childNamed(id, name));
    layer["setup"].push_back(total);
    layer["residual"].push_back((total - rec.childSeconds(id)) / total);
    if (tb.binary) {
      layer["host.compile_unit_s_max"].push_back(tb.binary->compileMax);
      layer["host.compile_s_sum"].push_back(tb.binary->compileSum);
      layer["host.link_s"].push_back(tb.binary->linkSeconds);
    }
    out.check(tb.engine != nullptr, "traced setup " + std::to_string(layer["setup"].size()));
  });
  core::ActivityEngine& eng = *tb.engine;
  const core::CondPartSchedule& sched = tb.ccss->body->sched;

  // The serial/parallel pair: the workload's own engine and the other kind
  // over the same compiled schedule. Construction of each is timed; the
  // difference is what placement adds.
  std::vector<double> serialCtor, parCtor;
  std::unique_ptr<core::ActivityEngine> serial, par;
  std::vector<std::string> parWarnings;
  for (int i = 0; i < 3; i++) {
    serial.reset();
    par.reset();
    auto t0 = Clock::now();
    serial = std::make_unique<core::ActivityEngine>(tb.ccss);
    auto t1 = Clock::now();
    par = core::makeCcssEngine(tb.ccss, kParallelLanes, &parWarnings);
    auto t2 = Clock::now();
    serialCtor.push_back(secondsBetween(t0, t1));
    parCtor.push_back(secondsBetween(t1, t2));
  }
  logWarnings(parWarnings);
  core::ActivityEngine& other = w.kind == sim::EngineKind::CcssPar ? *serial : *par;

  TickHistogram ccssHist, fullHist;
  std::vector<double> untracedKhz, tracedKhz, otherKhz, overhead;
  {
    // Untimed warm-up of both engines.
    timedRep(eng, w.program, exp.maxCycles);
    timedRep(other, w.program, exp.maxCycles);
  }
  bool tracedFirst = false;
  closedLoop(len.seconds * (1 - kSetupShare), len.rounds, [&] {
    // The untraced/traced order alternates so neither side always runs
    // right after the other engine kind.
    workloads::WorkloadResult u, t;
    if (tracedFirst) t = tracedRep(eng, w.program, exp.maxCycles, ccssHist, rec);
    u = timedRep(eng, w.program, exp.maxCycles);
    if (!tracedFirst) t = tracedRep(eng, w.program, exp.maxCycles, ccssHist, rec);
    tracedFirst = !tracedFirst;
    workloads::WorkloadResult o = timedRep(other, w.program, exp.maxCycles);
    bool ok = true;
    for (const auto* r : {&u, &t, &o})
      ok = ok && r->halted && r->result == exp.result && sameStats(r->stats, stats);
    out.check(ok, "rep differs from the public-API path: traced " + describe(t) + ", untraced " +
                      describe(u) + ", other kind " + describe(o));
    untracedKhz.push_back(khz(u));
    tracedKhz.push_back(khz(t));
    otherKhz.push_back(khz(o));
    overhead.push_back((khz(u) - khz(t)) / khz(u));
  });
  const bool isPar = w.kind == sim::EngineKind::CcssPar;
  const double parKhz = median(isPar ? untracedKhz : otherKhz);
  const double serialKhz = median(isPar ? otherKhz : untracedKhz);
  const auto* placed = dynamic_cast<const core::ParallelActivityEngine*>(par.get());
  const unsigned effThreads = par->threadCount();
  if (isPar)
    out.check(threadsOf(eng) >= 2, "parallel engine runs on " + std::to_string(threadsOf(eng)) +
                                       " thread(s); the run measured something else");

  // Full-cycle reference over the fixed window: per-tick time, then the
  // changed-signal count with activity tracking on. The CCSS engine runs
  // the same window for the ops it evaluated.
  auto full = sim::makeEngine(sim::EngineKind::FullCycle, tb.design);
  std::vector<double> fullKhz;
  timedRep(*full, w.program, w.fullWindow);  // warm-up
  // At least 1000 timed ticks, so ten lie beyond the p99.
  for (int i = 0; i < 3 || fullHist.count() < 1000; i++) {
    fullKhz.push_back(khz(timedRep(*full, w.program, w.fullWindow)));
    tracedRep(*full, w.program, w.fullWindow, fullHist, rec);
  }
  full->setTrackActivity(true);
  workloads::WorkloadResult changed = timedRep(*full, w.program, w.fullWindow);
  workloads::WorkloadResult window = timedRep(*serial, w.program, w.fullWindow);
  out.check(changed.instret == window.instret && changed.cycles == window.cycles,
            "full-cycle and CCSS engines disagree after the window: instret " +
                std::to_string(changed.instret) + " vs " + std::to_string(window.instret));
  const double changedPerCycle = static_cast<double>(changed.stats.signalsChangedTotal) /
                                 static_cast<double>(changed.stats.cycles);
  const double ccssOpsPerWindowCycle = static_cast<double>(window.stats.opsEvaluated) /
                                       static_cast<double>(window.stats.cycles);

  // Emission cost on the workload's design; the compiled workload already
  // recorded it inside its set-up.
  double emitS = median(layer["codegen.emit"]);
  uint64_t bytesTotal = tb.binary ? tb.binary->bytesTotal : 0;
  uint64_t unitBytesMax = tb.binary ? tb.binary->unitBytesMax : 0;
  if (!tb.binary) {
    int id = rec.open("codegen.emit");
    Emission e = emit(tb.design->ir, sched);
    rec.close(id);
    emitS = rec.span(id).seconds();
    bytesTotal = e.bytesTotal;
    unitBytesMax = e.unitBytesMax;
  }

  // The compiled binary of the last traced set-up must agree with the
  // interpreted engine too.
  if (tb.binary)
    checkBinaryRun(out, runBinary(*tb.binary, w.instances, exp.maxCycles), publicRun.cycles,
                   exp.result);

  const double cycles = static_cast<double>(stats.cycles);
  const double checks = static_cast<double>(stats.partitionChecks);
  const double irOps = static_cast<double>(tb.design->ir.ops.size());
  out.metric("firrtl.parse_s", median(layer["firrtl.parse"]), "s");
  out.metric("firrtl.lower_s", median(layer["firrtl.lower"]), "s");
  out.metric("sim.build_s", median(layer["sim.build"]), "s");
  out.metric("sim.design_compile_s", median(layer["sim.design_compile"]), "s");
  out.metric("sim.ops", irOps, "count");
  out.metric("sim.full_tick_ns_p50", fullHist.quantile(0.50), "ns");
  out.metric("sim.full_tick_ns_p99", fullHist.quantile(0.99), "ns");
  out.metric("core.netlist_s", median(layer["core.netlist"]), "s");
  out.metric("core.partition_s", median(layer["core.partition"]), "s");
  out.metric("core.schedule_s", median(layer["core.schedule"]), "s");
  out.metric("core.engine_s", median(layer["core.engine"]), "s");
  out.metric("core.partitions", static_cast<double>(sched.numPartitions()), "count");
  out.metric("core.tick_ns_p50", ccssHist.quantile(0.50), "ns");
  out.metric("core.tick_ns_p99", ccssHist.quantile(0.99), "ns");
  out.metric("core.checks_per_cycle", checks / cycles, "count");
  out.metric("core.activation_frac", static_cast<double>(stats.partitionActivations) / checks,
             "ratio");
  out.metric("core.ops_per_cycle", static_cast<double>(stats.opsEvaluated) / cycles, "count");
  out.metric("core.compares_per_cycle", static_cast<double>(stats.outputComparisons) / cycles,
             "count");
  out.metric("core.wakes_per_cycle", static_cast<double>(stats.triggerSets) / cycles, "count");
  out.metric("core.effective_activity",
             static_cast<double>(stats.opsEvaluated) / (irOps * cycles), "ratio");
  out.metric("core.eval_efficiency", changedPerCycle / ccssOpsPerWindowCycle, "ratio");
  out.metric("core.speedup_vs_full", median(untracedKhz) / median(fullKhz), "ratio");
  out.metric("core.placement_s", median(parCtor) - median(serialCtor), "s");
  // A degraded (serial) fallback engine counts as a one-step, uncut placement.
  const core::BspPlacement placement = placed ? placed->placement() : core::BspPlacement{};
  out.metric("core.par.super_steps", static_cast<double>(std::max<size_t>(1, placement.numSteps())),
             "count");
  out.metric("core.par.cut_frac",
             placement.totalEdges ? static_cast<double>(placement.crossEdges) /
                                        static_cast<double>(placement.totalEdges)
                                  : 0,
             "ratio");
  out.metric("core.par.load_imbalance", placement.loadImbalance, "ratio");
  out.metric("core.par.speedup_vs_serial", parKhz / serialKhz, "ratio");
  out.metric("core.par.effective_threads", effThreads, "count");
  out.metric("codegen.emit_s", emitS, "s");
  out.metric("codegen.bytes_total", static_cast<double>(bytesTotal), "bytes");
  out.metric("codegen.unit_bytes_max", static_cast<double>(unitBytesMax), "bytes");
  out.metric("host.compile_unit_s_max", median(layer["host.compile_unit_s_max"]), "s");
  out.metric("host.compile_s_sum", median(layer["host.compile_s_sum"]), "s");
  out.metric("host.link_s", median(layer["host.link_s"]), "s");
  out.metric("bench.trace_overhead_frac", median(overhead), "ratio");
  out.metric("bench.setup_residual_frac", median(layer["residual"]), "ratio");
  out.info.push_back({"traced_setup_s", median(layer["setup"])});
  out.info.push_back({"untraced_khz", median(untracedKhz)});
  out.info.push_back({"traced_khz", median(tracedKhz)});
  out.info.push_back({"serial_khz", serialKhz});
  out.info.push_back({"par_khz", parKhz});
  out.info.push_back({"reps", static_cast<double>(untracedKhz.size())});

  if (!traceDir.empty()) {
    fs::create_directories(traceDir);
    std::string extra = "\"tick_ns_histogram\": " + ccssHist.json() +
                        ", \"full_tick_ns_histogram\": " + fullHist.json();
    std::string path = (fs::path(traceDir) / (w.name + ".spans.json")).string();
    if (!rec.write(path, extra)) throw std::runtime_error("cannot write " + path);
  }
}

// ---------------------------------------------------------------------------

void printJson(const std::string& workload, const std::string& mode, const Outcome& out) {
  auto num = [](double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return std::string(buf);
  };
  std::string s = "{\"workload\": \"" + workload + "\", \"mode\": \"" + mode +
                  "\", \"correct\": " + (out.failed == 0 ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(out.attempted) +
                  ", \"failed\": " + std::to_string(out.failed) + ", \"failures\": [";
  for (size_t i = 0; i < out.failures.size(); i++) {
    std::string f;
    for (char c : out.failures[i]) f += (c == '"' || c == '\\') ? '\'' : c;
    s += (i ? ", \"" : "\"") + f + "\"";
  }
  s += "], \"metrics\": {";
  for (size_t i = 0; i < out.metrics.size(); i++) {
    const auto& [name, vu] = out.metrics[i];
    s += (i ? ", \"" : "\"") + name + "\": {\"value\": " + num(vu.first) + ", \"unit\": \"" +
         vu.second + "\"}";
  }
  s += "}, \"info\": {";
  for (size_t i = 0; i < out.info.size(); i++)
    s += (i ? ", \"" : "\"") + out.info[i].first + "\": " + num(out.info[i].second);
  s += "}}";
  std::printf("%s\n", s.c_str());
  std::fflush(stdout);
}

int usage() {
  std::fprintf(stderr,
               "usage: essent_bench --workload W --seed S --seconds N [--trace DIR]\n"
               "       essent_bench --smoke\n"
               "workloads:");
  for (const auto& w : kWorkloads) std::fprintf(stderr, " %s", w.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, traceDir;
  uint64_t seed = 1;
  double seconds = -1;
  bool smoke = false, traced = false;
  for (int i = 1; i < argc; i++) {
    std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    try {
      if (a == "--workload") workload = value();
      else if (a == "--seed") seed = std::stoull(value());
      else if (a == "--seconds") seconds = std::stod(value());
      else if (a == "--trace") traceDir = value(), traced = true;
      else if (a == "--smoke") smoke = true;
      else return usage();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "essent_bench: %s\n", e.what());
      return usage();
    }
  }
  if (!smoke && (workload.empty() || seconds < 0)) return usage();

  try {
    if (smoke) {
      // Every workload at tiny lengths, once untraced and once traced:
      // correctness only, no timing is judged.
      uint64_t failed = 0;
      for (const auto& name : kWorkloads) {
        Workload w = makeWorkload(name, seed, true);
        std::string text = designs::tinySoCFirrtl(w.design);
        Outcome u, t;
        runUntraced(w, text, RunLength{}, u);
        runTraced(w, text, RunLength{}, "", t);
        printJson(name, "untraced", u);
        printJson(name, "traced", t);
        failed += u.failed + t.failed;
      }
      return failed == 0 ? 0 : 1;
    }
    Workload w = makeWorkload(workload, seed, false);
    std::string text = designs::tinySoCFirrtl(w.design);
    Outcome out;
    const RunLength len{seconds, 3};
    if (traced) runTraced(w, text, len, traceDir, out);
    else runUntraced(w, text, len, out);
    printJson(w.name, traced ? "traced" : "untraced", out);
    return out.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "essent_bench: %s\n", e.what());
    return 2;
  }
}
