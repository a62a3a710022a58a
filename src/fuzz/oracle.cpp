#include "fuzz/oracle.h"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <functional>
#include <memory>
#include <stdexcept>
#include <unordered_map>

#include "codegen/emitter.h"
#include "core/activity_engine.h"
#include "core/parallel_engine.h"
#include "sim/builder.h"
#include "sim/event_driven.h"
#include "sim/full_cycle.h"
#include "support/strutil.h"
#include "support/subprocess.h"
#include "support/tempdir.h"

namespace essent::fuzz {

namespace {

std::atomic<bool> g_failNextEngine{false};

const char* divKindName(Divergence::Kind k) {
  switch (k) {
    case Divergence::Kind::ValueMismatch: return "value mismatch";
    case Divergence::Kind::StopMismatch: return "stop mismatch";
    case Divergence::Kind::PrintMismatch: return "printf mismatch";
    case Divergence::Kind::MemMismatch: return "memory mismatch";
    case Divergence::Kind::EngineException: return "engine exception";
    case Divergence::Kind::CompileFailure: return "compile failure";
    case Divergence::Kind::Timeout: return "subprocess timeout";
  }
  return "?";
}

bool comparableKind(sim::SigKind k) {
  return k == sim::SigKind::Output || k == sim::SigKind::Register ||
         k == sim::SigKind::Node;
}

// printf buffers are compared line-by-line so in-process accumulation and
// captured stdout agree on trailing-newline handling.
std::vector<std::string> printLines(const std::string& buf) {
  std::vector<std::string> lines = splitString(buf, '\n');
  while (!lines.empty() && lines.back().empty()) lines.pop_back();
  return lines;
}

std::string truncated(const std::string& s, size_t n = 400) {
  if (s.size() <= n) return s;
  return s.substr(0, n) + strfmt("... (%zu bytes total)", s.size());
}

}  // namespace

std::string Divergence::describe() const {
  std::string s = strfmt("%s between %s and %s", divKindName(kind), engineA.c_str(),
                         engineB.c_str());
  switch (kind) {
    case Kind::ValueMismatch:
    case Kind::MemMismatch:
      s += strfmt(" at cycle %llu: %s = 0x%s vs 0x%s",
                  static_cast<unsigned long long>(cycle), signal.c_str(), valueA.c_str(),
                  valueB.c_str());
      break;
    case Kind::StopMismatch:
      s += strfmt(" at cycle %llu: %s vs %s", static_cast<unsigned long long>(cycle),
                  valueA.c_str(), valueB.c_str());
      break;
    default:
      break;
  }
  if (!detail.empty()) s += "\n  " + detail;
  return s;
}

std::optional<Divergence> compareLockstep(
    const std::vector<std::pair<std::string, sim::Engine*>>& engines, const Stimulus& stim,
    RefTrace* trace) {
  if (engines.empty()) return std::nullopt;
  sim::Engine& ref = *engines[0].second;
  const std::string& refName = engines[0].first;

  // Signals observable in every participating IR (engines may be built from
  // differently-optimized IRs; DCE can legitimately drop named nodes).
  std::vector<std::string> names;
  for (const sim::Signal& s : ref.ir().signals) {
    if (s.name.empty() || !comparableKind(s.kind)) continue;
    bool everywhere = true;
    for (size_t i = 1; i < engines.size() && everywhere; i++) {
      const sim::SimIR& ir = engines[i].second->ir();
      int32_t id = ir.findSignal(s.name);
      everywhere = id >= 0 && comparableKind(ir.signals[static_cast<size_t>(id)].kind);
    }
    if (everywhere) names.push_back(s.name);
  }

  uint64_t cyclesRun = 0;
  for (size_t c = 0; c < stim.numCycles(); c++) {
    bool allStopped = true;
    for (const auto& [n, e] : engines) allStopped = allStopped && e->stopped();
    if (allStopped) break;
    for (size_t i = 1; i < engines.size(); i++) {
      if (engines[i].second->stopped() != ref.stopped()) {
        Divergence d;
        d.kind = Divergence::Kind::StopMismatch;
        d.cycle = c;
        d.engineA = refName;
        d.engineB = engines[i].first;
        d.valueA = ref.stopped() ? "stopped" : "running";
        d.valueB = engines[i].second->stopped() ? "stopped" : "running";
        return d;
      }
    }
    for (const auto& [n, e] : engines) {
      stim.apply(*e, c);
      try {
        e->tick();
      } catch (const std::exception& ex) {
        Divergence d;
        d.kind = Divergence::Kind::EngineException;
        d.cycle = c;
        d.engineA = refName;
        d.engineB = n;
        d.detail = ex.what();
        return d;
      }
    }
    for (const std::string& name : names) {
      BitVec va = ref.peekBV(name);
      for (size_t i = 1; i < engines.size(); i++) {
        BitVec vb = engines[i].second->peekBV(name);
        if (va != vb) {
          Divergence d;
          d.cycle = c;
          d.signal = name;
          d.engineA = refName;
          d.engineB = engines[i].first;
          d.valueA = va.toHexString();
          d.valueB = vb.toHexString();
          return d;
        }
      }
    }
    if (trace) {
      std::vector<std::string> row;
      row.reserve(trace->signals.size());
      for (const std::string& name : trace->signals)
        row.push_back(ref.peekBV(name).toHexString());
      trace->cycles.push_back(std::move(row));
    }
    cyclesRun++;
  }

  for (size_t i = 1; i < engines.size(); i++) {
    sim::Engine& e = *engines[i].second;
    if (e.stopped() != ref.stopped() ||
        (ref.stopped() && e.exitCode() != ref.exitCode())) {
      Divergence d;
      d.kind = Divergence::Kind::StopMismatch;
      d.cycle = cyclesRun;
      d.engineA = refName;
      d.engineB = engines[i].first;
      d.valueA = ref.stopped() ? strfmt("stopped exit=%d", ref.exitCode()) : "running";
      d.valueB = e.stopped() ? strfmt("stopped exit=%d", e.exitCode()) : "running";
      return d;
    }
    if (printLines(e.printOutput()) != printLines(ref.printOutput())) {
      Divergence d;
      d.kind = Divergence::Kind::PrintMismatch;
      d.cycle = cyclesRun;
      d.engineA = refName;
      d.engineB = engines[i].first;
      d.detail = "reference:\n" + truncated(ref.printOutput()) + "\nother:\n" +
                 truncated(e.printOutput());
      return d;
    }
  }

  // Final memory contents (memories present in every IR).
  for (const sim::MemInfo& m : ref.ir().mems) {
    bool everywhere = true;
    for (size_t i = 1; i < engines.size() && everywhere; i++) {
      bool found = false;
      for (const sim::MemInfo& om : engines[i].second->ir().mems)
        if (om.name == m.name && om.depth == m.depth) found = true;
      everywhere = found;
    }
    if (!everywhere) continue;
    for (uint64_t addr = 0; addr < m.depth; addr++) {
      uint64_t va = ref.peekMem(m.name, addr);
      for (size_t i = 1; i < engines.size(); i++) {
        uint64_t vb = engines[i].second->peekMem(m.name, addr);
        if (va != vb) {
          Divergence d;
          d.kind = Divergence::Kind::MemMismatch;
          d.cycle = cyclesRun;
          d.signal = strfmt("%s[%llu]", m.name.c_str(), static_cast<unsigned long long>(addr));
          d.engineA = refName;
          d.engineB = engines[i].first;
          d.valueA = strfmt("%llx", static_cast<unsigned long long>(va));
          d.valueB = strfmt("%llx", static_cast<unsigned long long>(vb));
          return d;
        }
      }
    }
  }

  if (trace) {
    trace->printOut = ref.printOutput();
    trace->stopped = ref.stopped();
    trace->exitCode = ref.exitCode();
    for (const sim::MemInfo& m : ref.ir().mems) {
      std::vector<uint64_t> rows;
      for (uint64_t addr = 0; addr < m.depth; addr++)
        rows.push_back(ref.peekMem(m.name, addr));
      trace->mems.push_back({m.name, std::move(rows)});
    }
  }
  return std::nullopt;
}

namespace {

// Builds the self-checking harness appended to the emitted simulator: pokes
// the stimulus (baked in as a constant table), prints a `~`-prefixed trace
// of every observed signal each cycle, then final stop status and memory
// contents. Design printf output passes through untagged.
std::string buildCodegenHarness(const sim::SimIR& ir, const Stimulus& stim,
                                const std::vector<std::string>& traceSignals) {
  std::string h = "\nint main() {\n  essent_gen::Simulator sim;\n";
  // Input columns that exist in this IR.
  std::vector<std::pair<size_t, std::string>> cols;  // stim index -> member
  for (size_t i = 0; i < stim.inputs.size(); i++) {
    int32_t sig = ir.findSignal(stim.inputs[i]);
    if (sig >= 0) cols.push_back({i, codegen::memberName(ir, sig)});
  }
  size_t n = std::max<size_t>(cols.size(), 1);
  h += strfmt("  static const unsigned long long kStim[][%zu] = {\n", n);
  for (const auto& row : stim.cycles) {
    h += "    {";
    if (cols.empty()) h += "0";
    for (size_t j = 0; j < cols.size(); j++) {
      if (j) h += ", ";
      h += strfmt("0x%llxull", static_cast<unsigned long long>(row[cols[j].first].toU64()));
    }
    h += "},\n";
  }
  h += "  };\n";
  h += strfmt("  for (unsigned long long c = 0; c < %zuull && !sim.stopped_; c++) {\n",
              stim.numCycles());
  for (size_t j = 0; j < cols.size(); j++)
    h += strfmt("    sim.%s = kStim[c][%zu];\n", cols[j].second.c_str(), j);
  h += "    sim.eval();\n";
  for (const std::string& name : traceSignals) {
    int32_t sig = ir.findSignal(name);
    h += strfmt("    std::printf(\"~C %%llu %s=%%llx\\n\", c, (unsigned long long)sim.%s);\n",
                name.c_str(), codegen::memberName(ir, sig).c_str());
  }
  h += "  }\n";
  h += "  std::printf(\"~S %d %d\\n\", sim.stopped_ ? 1 : 0, sim.exit_code_);\n";
  for (size_t m = 0; m < ir.mems.size(); m++)
    h += strfmt(
        "  for (unsigned long long a = 0; a < %lluull; a++)\n"
        "    std::printf(\"~M %s %%llu %%llx\\n\", a, (unsigned long long)sim.%s[a]);\n",
        static_cast<unsigned long long>(ir.mems[m].depth), ir.mems[m].name.c_str(),
        codegen::memArrayName(ir, m).c_str());
  h += "  return 0;\n}\n";
  return h;
}

}  // namespace

void failNextEngineConstructionForTest() { g_failNextEngine = true; }

OracleResult runOracle(const std::string& firrtlText, const Stimulus& stim,
                       const OracleOptions& opts) {
  OracleResult res;
  auto wants = [&](EngineKind k) {
    return std::find(opts.engines.begin(), opts.engines.end(), k) != opts.engines.end();
  };

  std::shared_ptr<const sim::CompiledDesign> refDesign, optDesign;
  try {
    sim::BuildOptions noOpt;
    noOpt.constProp = noOpt.cse = noOpt.dce = false;
    refDesign = sim::CompiledDesign::compile(sim::buildFromFirrtl(firrtlText, noOpt));
    optDesign = sim::CompiledDesign::compile(sim::buildFromFirrtl(firrtlText, sim::BuildOptions{}));
  } catch (const std::exception& e) {
    res.buildError = e.what();
    return res;
  }
  const sim::SimIR& irRef = refDesign->ir;
  const sim::SimIR& irOpt = optDesign->ir;

  bool wantCodegen = wants(EngineKind::Codegen);
  codegen::ShardedCpp code;
  core::ScheduleOptions so;
  if (wantCodegen) {
    try {
      core::CondPartSchedule sched = core::buildSchedule(core::Netlist::build(irOpt), so);
      code = codegen::emitCppSharded(irOpt, &sched, {}, opts.codegenShards, "sim");
    } catch (const codegen::CodegenError& e) {
      wantCodegen = false;
      res.codegenSkipped = true;
      res.codegenSkipReason = e.what();
    } catch (const std::exception& e) {
      res.buildError = std::string("codegen schedule/emit: ") + e.what();
      return res;
    }
  }

  // The reference is always a full-cycle engine on the unoptimized IR; it
  // participates even when not explicitly selected (something must anchor
  // the comparison, and the codegen trace needs an in-process twin).
  // Construction builds each kind's schedule, so a partitioner or
  // scheduler bug throws here; it becomes the case's finding, not an abort.
  std::vector<std::unique_ptr<sim::Engine>> own;
  std::vector<std::pair<std::string, sim::Engine*>> list;
  auto addEngineWith = [&](EngineKind k,
                           const std::function<std::unique_ptr<sim::Engine>()>& make) {
    if (!res.buildError.empty()) return;
    try {
      if (g_failNextEngine.exchange(false)) throw std::runtime_error("injected for test");
      own.push_back(make());
      list.push_back({engineKindName(k), own.back().get()});
    } catch (const std::exception& e) {
      res.buildError = strfmt("engine construction (%s): %s", engineKindName(k), e.what());
    }
  };
  auto addEngine = [&](EngineKind k, const std::shared_ptr<const sim::CompiledDesign>& d,
                       const sim::EngineOptions& eo = {}) {
    addEngineWith(k, [&] { return sim::makeEngine(k, d, eo); });
  };
  addEngine(EngineKind::FullCycle, refDesign);
  if (wants(EngineKind::EventDriven)) addEngine(EngineKind::EventDriven, optDesign);
  if (wants(EngineKind::Ccss)) addEngine(EngineKind::Ccss, optDesign);
  if (wants(EngineKind::CcssPar)) {
    // Deliberately NOT makeEngine: the oracle must exercise the real
    // parallel sweep even on a single-core host, so it bypasses the
    // factory's graceful hardware-concurrency clamping.
    addEngineWith(EngineKind::CcssPar, [&]() -> std::unique_ptr<sim::Engine> {
      return std::make_unique<core::ParallelActivityEngine>(
          core::CompiledCcss::get(optDesign, so), std::max(2u, opts.parThreads));
    });
  }
  if (wants(EngineKind::Lane)) {
    // Broadcast adapter over a multi-lane group: every lane computes the
    // same run through the SoA/SIMD path, so a divergence here pins a
    // lane-kernel bug against the scalar engines.
    sim::EngineOptions laneOpts;
    laneOpts.lanes = opts.laneCount;
    addEngine(EngineKind::Lane, optDesign, laneOpts);
  }
  if (!res.buildError.empty()) return res;

  // Traced signals for the codegen comparison: outputs and registers of the
  // optimized IR that the reference can also observe.
  RefTrace trace;
  if (wantCodegen) {
    for (const sim::Signal& s : irOpt.signals) {
      if (s.name.empty()) continue;
      if (s.kind != sim::SigKind::Output && s.kind != sim::SigKind::Register) continue;
      if (irRef.findSignal(s.name) < 0) continue;
      trace.signals.push_back(s.name);
    }
  }

  try {
    res.divergence = compareLockstep(list, stim, wantCodegen ? &trace : nullptr);
  } catch (const std::exception& e) {
    res.buildError = std::string("lockstep comparison: ") + e.what();
    return res;
  }
  res.ran = true;
  if (res.divergence || !wantCodegen) return res;

  // ---- Out-of-process codegen comparison ----
  support::TempDir dir("essent_fuzz_XXXXXX");
  if (opts.keepCompiledArtifacts) dir.keep();
  // A failure keeps the artifacts for debugging, unless a test injected it.
  auto artifacts = [&]() -> std::string {
    if (opts.injectHangForTest) return "removed: the hang was injected";
    return "kept at " + dir.keep();
  };
  std::string harness = buildCodegenHarness(irOpt, stim, trace.signals);
  if (opts.injectHangForTest) {
    // Wedge the simulator before it produces any output; only the
    // watchdog can get the oracle past this.
    size_t brace = harness.find('{');
    if (brace != std::string::npos) harness.insert(brace + 1, "\n  for (;;) {}\n");
  }
  // The harness includes the header from main.cpp, next to the units.
  std::string sources;
  auto writeSource = [&](const std::string& name, const std::string& text) {
    std::ofstream(dir.file(name)) << text;
    sources += " " + support::shellQuote(dir.file(name));
  };
  std::ofstream(dir.file(code.headerName)) << code.header;
  writeSource("main.cpp", "#include \"" + code.headerName + "\"\n" + harness);
  for (size_t k = 0; k < code.units.size(); k++) writeSource(code.unitNames[k], code.units[k]);
  support::RunOptions runOpts;
  runOpts.timeoutMs = opts.subprocessTimeoutMs;
  std::string binPath = dir.file("sim");
  support::ExecResult cc = support::runShell(
      opts.compilerCmd + " -o " + support::shellQuote(binPath) + sources, runOpts);
  if (!cc.ok()) {
    Divergence d;
    d.kind = cc.timedOut ? Divergence::Kind::Timeout : Divergence::Kind::CompileFailure;
    d.engineA = "full";
    d.engineB = "codegen";
    d.detail = strfmt("%s (sources %s)", cc.describe().c_str(), artifacts().c_str());
    res.divergence = d;
    return res;
  }
  std::string outPath = dir.file("out.txt");
  support::ExecResult run = support::runShell(support::shellQuote(binPath) + " > " +
                                                  support::shellQuote(outPath),
                                              runOpts);
  if (!run.ran || !run.exited || run.exitCode != 0 || run.timedOut) {
    Divergence d;
    d.kind = run.timedOut ? Divergence::Kind::Timeout : Divergence::Kind::EngineException;
    d.engineA = "full";
    d.engineB = "codegen";
    d.detail = strfmt("compiled simulator %s (artifacts %s)", run.describe().c_str(),
                      artifacts().c_str());
    res.divergence = d;
    return res;
  }

  std::unordered_map<std::string, size_t> sigIdx;
  for (size_t i = 0; i < trace.signals.size(); i++) sigIdx[trace.signals[i]] = i;
  std::unordered_map<std::string, std::vector<uint64_t>> refMems(trace.mems.begin(),
                                                                 trace.mems.end());
  auto fail = [&](Divergence d) {
    res.divergence = std::move(d);
    return res;
  };

  std::ifstream out(outPath);
  std::string line, gotPrint;
  uint64_t maxCycle = 0;
  bool sawCycle = false, sawStatus = false;
  while (std::getline(out, line)) {
    if (line.rfind("~C ", 0) == 0) {
      size_t sp = line.find(' ', 3);
      size_t eq = line.find('=', sp);
      if (sp == std::string::npos || eq == std::string::npos) continue;
      uint64_t c = std::stoull(line.substr(3, sp - 3));
      std::string name = line.substr(sp + 1, eq - sp - 1);
      std::string hex = line.substr(eq + 1);
      sawCycle = true;
      maxCycle = std::max(maxCycle, c);
      auto it = sigIdx.find(name);
      if (it == sigIdx.end()) continue;
      if (c >= trace.cycles.size()) {
        Divergence d;
        d.kind = Divergence::Kind::StopMismatch;
        d.cycle = c;
        d.engineA = "full";
        d.engineB = "codegen";
        d.valueA = strfmt("ran %zu cycles", trace.cycles.size());
        d.valueB = strfmt("still running at cycle %llu", static_cast<unsigned long long>(c));
        return fail(d);
      }
      const std::string& want = trace.cycles[static_cast<size_t>(c)][it->second];
      if (hex != want) {
        Divergence d;
        d.cycle = c;
        d.signal = name;
        d.engineA = "full";
        d.engineB = "codegen";
        d.valueA = want;
        d.valueB = hex;
        return fail(d);
      }
    } else if (line.rfind("~S ", 0) == 0) {
      sawStatus = true;
      int stopped = 0, exit = 0;
      std::sscanf(line.c_str(), "~S %d %d", &stopped, &exit);
      if ((stopped != 0) != trace.stopped || (trace.stopped && exit != trace.exitCode)) {
        Divergence d;
        d.kind = Divergence::Kind::StopMismatch;
        d.cycle = trace.cycles.size();
        d.engineA = "full";
        d.engineB = "codegen";
        d.valueA = trace.stopped ? strfmt("stopped exit=%d", trace.exitCode) : "running";
        d.valueB = stopped ? strfmt("stopped exit=%d", exit) : "running";
        return fail(d);
      }
    } else if (line.rfind("~M ", 0) == 0) {
      char memName[256];
      unsigned long long addr = 0, value = 0;
      if (std::sscanf(line.c_str(), "~M %255s %llu %llx", memName, &addr, &value) != 3)
        continue;
      auto it = refMems.find(memName);
      if (it == refMems.end() || addr >= it->second.size()) continue;
      if (it->second[addr] != value) {
        Divergence d;
        d.kind = Divergence::Kind::MemMismatch;
        d.cycle = trace.cycles.size();
        d.signal = strfmt("%s[%llu]", memName, addr);
        d.engineA = "full";
        d.engineB = "codegen";
        d.valueA = strfmt("%llx", static_cast<unsigned long long>(it->second[addr]));
        d.valueB = strfmt("%llx", value);
        return fail(d);
      }
    } else {
      gotPrint += line + "\n";
    }
  }
  uint64_t gotCycles = sawCycle ? maxCycle + 1 : 0;
  if (gotCycles != trace.cycles.size() || !sawStatus) {
    Divergence d;
    d.kind = Divergence::Kind::StopMismatch;
    d.cycle = std::min<uint64_t>(gotCycles, trace.cycles.size());
    d.engineA = "full";
    d.engineB = "codegen";
    d.valueA = strfmt("ran %zu cycles", trace.cycles.size());
    d.valueB = strfmt("ran %llu cycles%s", static_cast<unsigned long long>(gotCycles),
                      sawStatus ? "" : ", no status line");
    return fail(d);
  }
  if (printLines(gotPrint) != printLines(trace.printOut)) {
    Divergence d;
    d.kind = Divergence::Kind::PrintMismatch;
    d.cycle = trace.cycles.size();
    d.engineA = "full";
    d.engineB = "codegen";
    d.detail = "reference:\n" + truncated(trace.printOut) + "\ncodegen:\n" +
               truncated(gotPrint);
    return fail(d);
  }
  return res;
}

}  // namespace essent::fuzz
