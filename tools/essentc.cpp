// essentc — command-line driver for the ESSENT reproduction, the analogue
// of the paper's simulator generator binary.
//
// Usage:
//   essentc [options] design.fir
//
// Modes (default --stats):
//   --stats               design + partitioning statistics
//   --emit-cpp            generate a standalone C++ simulator to stdout/-o
//   --run N               simulate N cycles and report outputs
//   --compile-run N       generate + host-compile + execute N cycles, and
//                         cross-check the outputs against the interpreter
//   --dot                 emit the partition graph as Graphviz DOT
//
// Options:
//   -o FILE               output file for --emit-cpp / --dot
//   --shards N            with --emit-cpp: write a header plus N
//                         translation units next to the -o path
//   --allow-comb-loops    evaluate each combinational loop as a supernode
//                         iterated to convergence instead of rejecting it
//   --engine E            full | event | ccss | par | lane    (--run;
//                         default ccss; long aliases full-cycle|event-driven|
//                         essent-ccss|essent-ccss-par also accepted —
//                         sim::parseEngineKind is the single name table
//                         shared with essent_fuzz)
//   --baseline            emit/run with all optimizations disabled
//   --no-hints            disable branch hints in generated code
//   --cp N                partitioner small threshold C_p (default 8)
//   --scale N             elaborate the generated socScaled(N) TinySoC
//                         instead of reading a design file (N=1 ~130k
//                         netlist nodes, N=8 crosses one million); for
//                         the million-node elaboration study, see
//                         docs/SCALING.md
//   --poke NAME=VALUE     drive an input for the whole --run (repeatable)
//   --vcd FILE            dump a VCD waveform during --run
//   --profile FILE        write a JSON runtime profile after --run
//                         (per-partition counters + activity timeline;
//                         ccss engine only)
//   --profile-window N    timeline bucket width in cycles (default 256)
//   --threads N           worker threads for --run with the ccss engine
//                         (default $ESSENT_THREADS, else 1; N > 1 selects
//                         the statically-placed BSP parallel engine,
//                         clamped to hardware concurrency and to the
//                         placement's useful width with W0601 warnings);
//                         with --batch, the farm worker count instead
//   --lanes N             with --run: simulate N SIMD lanes (1..64) in one
//                         lane engine (selects the lane engine; default 4
//                         lanes with --engine lane); with --batch, claim
//                         instances in lane groups of N
//   --batch N             with --run: simulate N concurrent instances that
//                         share one compiled schedule (core::SimFarm) and
//                         report aggregate farm throughput
//   --stimulus-dir DIR    with --batch: drive instance i from the i-th
//                         (sorted, wrapping) stimulus file in DIR; the file
//                         format is the fuzzer's Stimulus serialization
//   --stats-json FILE     write design/partitioning/timing stats as JSON
//                         (gains a "placement" section when --threads > 1,
//                         and "parallel" + "metrics" sections when
//                         tracing / metrics are active)
//   --trace FILE          record an execution trace and write it as Chrome
//                         trace-event JSON (open in https://ui.perfetto.dev)
//   --trace-detail D      phase | wave | partition (default wave); each
//                         level adds events, see docs/OBSERVABILITY.md
//   --trace-ring-kb N     per-thread trace ring size in KB (default 3072,
//                         ~64k events); raise it when the summary reports
//                         truncated: true
//   --trace-summary       print the post-run attribution report (per-thread
//                         busy/barrier/idle fractions, per-step imbalance);
//                         implies recording even without --trace
//   --top-hot N           after --run, print the N hottest partitions
//   --diag-json FILE      write all diagnostics as JSON (machine-readable
//                         mirror of the stderr rendering)
//   --timeout-ms N        wall-clock watchdog for each --compile-run
//                         subprocess (compile and execute); a process that
//                         exceeds it is killed (SIGTERM, then SIGKILL)
//   --max-ir-ops N        refuse designs lowering to more than N IR ops
//   --max-sim-mem BYTES   refuse designs whose simulation state exceeds this
//   --max-cycles N        refuse --run/--compile-run requests beyond N cycles
//   --deadline-ms N       overall wall-clock budget for build + simulation
//
// Exit codes:
//   0    success
//   1    input rejected with diagnostics (parse/width/build/resource errors)
//   2    usage error or internal error
//   124  wall-clock timeout (--timeout-ms subprocess watchdog or
//        --deadline-ms overall budget)
//   128+N  interrupted by signal N during --compile-run (130 = SIGINT,
//        143 = SIGTERM); the signal is relayed to the compiler/simulator
//        process group and scratch directories are still cleaned up
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "codegen/emitter.h"
#include "core/activity_engine.h"
#include "core/lane_engine.h"
#include "core/parallel_engine.h"
#include "core/placement.h"
#include "core/obs_export.h"
#include "core/sim_farm.h"
#include "designs/tinysoc.h"
#include "diag/diag.h"
#include "fuzz/stimulus.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/phase_timer.h"
#include "obs/trace.h"
#include "sim/compile.h"
#include "sim/engine_factory.h"
#include "sim/vcd.h"
#include "support/resource_guard.h"
#include "support/strutil.h"
#include "support/subprocess.h"
#include "support/tempdir.h"

using namespace essent;

namespace {

struct Args {
  enum class Mode { Stats, EmitCpp, Run, CompileRun, Dot } mode = Mode::Stats;
  std::string inputPath;
  std::string outputPath;
  sim::EngineKind engineKind = sim::EngineKind::Ccss;
  bool baseline = false;
  bool allowCombLoops = false;
  bool hints = true;
  uint32_t cp = 8;
  uint64_t runCycles = 0;
  std::vector<std::pair<std::string, uint64_t>> pokes;
  std::string vcdPath;
  std::string profilePath;
  std::string statsJsonPath;
  std::string diagJsonPath;
  std::string tracePath;
  obs::TraceDetail traceDetail = obs::TraceDetail::Wave;
  uint32_t traceRingKb = 0;  // per-thread ring size in KB; 0 = default
  bool traceSummary = false;
  uint32_t profileWindow = 256;
  uint32_t topHot = 0;
  uint32_t threads = 0;  // 0 = unset: ESSENT_THREADS, else 1
  uint32_t batch = 0;    // --run instance count; 0 = solo (no farm)
  uint32_t lanes = 0;    // SIMD lanes for the lane engine; 0 = unset
  std::string stimulusDir;
  int64_t timeoutMs = 0;  // --compile-run subprocess watchdog; 0 = off
  bool injectHang = false;  // undocumented: watchdog self-test hook
  uint32_t shards = 1;      // --emit-cpp: split output into N translation units
  uint32_t scale = 0;       // --scale: generate socScaled(N) instead of reading a file
  support::ResourceLimits limits;
};

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg) std::fprintf(stderr, "essentc: %s\n", msg);
  std::fprintf(stderr,
               "usage: essentc [--stats | --emit-cpp | --run N | --compile-run N | --dot]\n"
               "               [-o FILE] [--shards N] [--allow-comb-loops]\n"
               "               [--engine full|event|ccss|par|lane] [--baseline] [--no-hints]\n"
               "               [--cp N] [--poke NAME=VALUE]... [--vcd FILE]\n"
               "               [--profile FILE] [--profile-window N] [--threads N]\n"
               "               [--batch N] [--lanes N] [--stimulus-dir DIR]\n"
               "               [--stats-json FILE] [--top-hot N] [--diag-json FILE]\n"
               "               [--trace FILE] [--trace-detail phase|wave|partition]\n"
               "               [--trace-ring-kb N] [--trace-summary]\n"
               "               [--timeout-ms N] [--max-ir-ops N] [--max-sim-mem BYTES]\n"
               "               [--max-cycles N] [--deadline-ms N]\n"
               "               (design.fir | --scale N)\n"
               "exit codes: 0 success; 1 input rejected with diagnostics;\n"
               "            2 usage or internal error; 124 wall-clock timeout;\n"
               "            128+N interrupted by signal N during --compile-run\n");
  std::exit(2);
}

Args parseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; i++) {
    std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (++i >= argc) usage(("missing value after " + arg).c_str());
      return argv[i];
    };
    if (arg == "--stats") a.mode = Args::Mode::Stats;
    else if (arg == "--emit-cpp") a.mode = Args::Mode::EmitCpp;
    else if (arg == "--dot") a.mode = Args::Mode::Dot;
    else if (arg == "--run") {
      a.mode = Args::Mode::Run;
      a.runCycles = std::strtoull(next().c_str(), nullptr, 0);
    } else if (arg == "--compile-run") {
      a.mode = Args::Mode::CompileRun;
      a.runCycles = std::strtoull(next().c_str(), nullptr, 0);
    } else if (arg == "-o") a.outputPath = next();
    else if (arg == "--engine") {
      std::string token = next();
      if (!sim::parseEngineKind(token, a.engineKind))
        usage(("unknown engine '" + token + "' (expected " + sim::engineKindList() + ")").c_str());
    }
    else if (arg == "--baseline") a.baseline = true;
    else if (arg == "--shards")
      a.shards = static_cast<uint32_t>(std::strtoul(next().c_str(), nullptr, 0));
    else if (arg == "--allow-comb-loops") a.allowCombLoops = true;
    else if (arg == "--no-hints") a.hints = false;
    else if (arg == "--cp") a.cp = static_cast<uint32_t>(std::strtoul(next().c_str(), nullptr, 0));
    else if (arg == "--poke") {
      std::string kv = next();
      size_t eq = kv.find('=');
      if (eq == std::string::npos) usage("--poke expects NAME=VALUE");
      a.pokes.emplace_back(kv.substr(0, eq), std::strtoull(kv.c_str() + eq + 1, nullptr, 0));
    } else if (arg == "--vcd") a.vcdPath = next();
    else if (arg == "--profile") a.profilePath = next();
    else if (arg == "--profile-window")
      a.profileWindow = static_cast<uint32_t>(std::strtoul(next().c_str(), nullptr, 0));
    else if (arg == "--stats-json") a.statsJsonPath = next();
    else if (arg == "--diag-json") a.diagJsonPath = next();
    else if (arg == "--trace") a.tracePath = next();
    else if (arg == "--trace-detail") {
      std::string token = next();
      if (!obs::parseTraceDetail(token, a.traceDetail))
        usage(("unknown trace detail '" + token + "' (expected phase|wave|partition)").c_str());
    }
    else if (arg == "--trace-ring-kb") {
      a.traceRingKb = static_cast<uint32_t>(std::strtoul(next().c_str(), nullptr, 0));
      if (a.traceRingKb == 0) usage("--trace-ring-kb expects a positive integer");
    }
    else if (arg == "--trace-summary") a.traceSummary = true;
    else if (arg == "--top-hot")
      a.topHot = static_cast<uint32_t>(std::strtoul(next().c_str(), nullptr, 0));
    else if (arg == "--threads") {
      a.threads = static_cast<uint32_t>(std::strtoul(next().c_str(), nullptr, 0));
      if (a.threads == 0) usage("--threads expects a positive integer");
    }
    else if (arg == "--batch") {
      a.batch = static_cast<uint32_t>(std::strtoul(next().c_str(), nullptr, 0));
      if (a.batch == 0) usage("--batch expects a positive instance count");
    }
    else if (arg == "--lanes") {
      a.lanes = static_cast<uint32_t>(std::strtoul(next().c_str(), nullptr, 0));
      if (a.lanes == 0 || a.lanes > 64) usage("--lanes expects a count in [1, 64]");
    }
    else if (arg == "--stimulus-dir") a.stimulusDir = next();
    else if (arg == "--scale") {
      a.scale = static_cast<uint32_t>(std::strtoul(next().c_str(), nullptr, 0));
      if (a.scale == 0) usage("--scale expects a positive factor");
    }
    else if (arg == "--timeout-ms") a.timeoutMs = std::strtoll(next().c_str(), nullptr, 0);
    else if (arg == "--max-ir-ops") a.limits.maxIrOps = std::strtoull(next().c_str(), nullptr, 0);
    else if (arg == "--max-sim-mem")
      a.limits.maxSimMemBytes = std::strtoull(next().c_str(), nullptr, 0);
    else if (arg == "--max-cycles") a.limits.maxCycles = std::strtoull(next().c_str(), nullptr, 0);
    else if (arg == "--deadline-ms")
      a.limits.wallDeadlineMs = std::strtoll(next().c_str(), nullptr, 0);
    else if (arg == "--inject-hang") a.injectHang = true;
    else if (arg == "--help" || arg == "-h") usage();
    else if (!arg.empty() && arg[0] == '-') usage(("unknown option " + arg).c_str());
    else if (a.inputPath.empty()) a.inputPath = arg;
    else usage("multiple input files");
  }
  if (a.inputPath.empty() && a.scale == 0) usage("no input file (or use --scale N)");
  if (!a.inputPath.empty() && a.scale > 0)
    usage("--scale generates its own design; drop the input file");
  // --lanes selects the SIMD lane engine: with the default ccss kind it
  // upgrades the kind (like --threads upgrades ccss to par); an explicit
  // non-CCSS kind conflicts.
  if (a.lanes > 0 && a.mode != Args::Mode::Run) usage("--lanes requires --run");
  if (a.lanes > 0) {
    if (a.engineKind == sim::EngineKind::Ccss) a.engineKind = sim::EngineKind::Lane;
    else if (a.engineKind != sim::EngineKind::Lane)
      usage("--lanes requires the ccss or lane engine");
  }
  if (a.engineKind == sim::EngineKind::Lane && a.lanes == 0) a.lanes = 4;
  bool ccssKind =
      a.engineKind == sim::EngineKind::Ccss || a.engineKind == sim::EngineKind::CcssPar;
  bool laneKind = a.engineKind == sim::EngineKind::Lane;
  if ((!a.profilePath.empty() || a.topHot > 0) && a.mode != Args::Mode::Run)
    usage("--profile / --top-hot require --run");
  if ((!a.profilePath.empty() || a.topHot > 0) && !ccssKind)
    usage("--profile / --top-hot require the ccss engine (partition profiles)");
  if (a.injectHang && a.mode != Args::Mode::CompileRun)
    usage("--inject-hang requires --compile-run");
  if (a.mode == Args::Mode::Run && a.engineKind == sim::EngineKind::Codegen)
    usage("engine 'codegen' runs out of process; use --compile-run N instead of --run");
  if (a.batch > 0 && a.mode != Args::Mode::Run) usage("--batch requires --run");
  if (!a.stimulusDir.empty() && a.batch == 0) usage("--stimulus-dir requires --batch");
  if (a.batch > 0 && (!a.vcdPath.empty() || !a.profilePath.empty() || a.topHot > 0))
    usage("--batch does not support --vcd / --profile / --top-hot (per-instance output)");
  if (a.threads == 0) {
    if (const char* env = std::getenv("ESSENT_THREADS")) {
      long v = std::strtol(env, nullptr, 10);
      if (v >= 1) a.threads = static_cast<uint32_t>(v);
    }
    if (a.threads == 0) a.threads = 1;
  }
  if (a.batch == 0) {
    if (a.threads > 1 && a.mode == Args::Mode::Run && !ccssKind && !laneKind)
      usage("--threads > 1 requires the ccss engine");
    // `--engine ccss --threads N>1` means the placed parallel engine, the
    // same as the explicit `--engine par`.
    if (a.engineKind == sim::EngineKind::Ccss && a.threads > 1)
      a.engineKind = sim::EngineKind::CcssPar;
  }
  // Under --batch, --threads sets the farm worker count and every instance
  // runs the kind as selected (serial unless `par` was explicit).
  return a;
}

std::string readFile(const std::string& path) {
  std::ifstream f(path);
  if (!f) {
    std::fprintf(stderr, "essentc: cannot open %s\n", path.c_str());
    std::exit(1);
  }
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

void writeOut(const Args& a, const std::string& text) {
  if (a.outputPath.empty()) {
    std::fputs(text.c_str(), stdout);
  } else {
    std::ofstream f(a.outputPath);
    f << text;
    std::fprintf(stderr, "essentc: wrote %zu bytes to %s\n", text.size(),
                 a.outputPath.c_str());
  }
}

// --emit-cpp --shards N: writes <base>.h plus <base>_<k>.cpp next to the
// -o path (whose .cpp/.h extension, if any, is stripped to form the base).
int writeSharded(const Args& a, const sim::SimIR& ir, const core::CondPartSchedule* sched,
                 const codegen::CodegenOptions& co) {
  if (a.outputPath.empty()) {
    std::fprintf(stderr, "essentc: --shards requires -o FILE (one file per unit)\n");
    return 2;
  }
  std::string base = a.outputPath;
  for (const char* ext : {".cpp", ".cc", ".h"}) {
    size_t n = std::strlen(ext);
    if (base.size() > n && base.compare(base.size() - n, n, ext) == 0) {
      base.resize(base.size() - n);
      break;
    }
  }
  // The stem names the generated files and the units' #include line; the
  // directory part of -o only decides where they are written.
  size_t dirEnd = base.find_last_of('/');
  std::string dir = dirEnd == std::string::npos ? "" : base.substr(0, dirEnd + 1);
  std::string stem = dirEnd == std::string::npos ? base : base.substr(dirEnd + 1);
  codegen::ShardedCpp sh = codegen::emitCppSharded(ir, sched, co, a.shards, stem);
  auto writeFile = [&](const std::string& name, const std::string& text) {
    std::string path = dir + name;
    std::ofstream f(path);
    f << text;
    std::fprintf(stderr, "essentc: wrote %zu bytes to %s\n", text.size(), path.c_str());
  };
  writeFile(sh.headerName, sh.header);
  for (size_t k = 0; k < sh.units.size(); k++) writeFile(sh.unitNames[k], sh.units[k]);
  return 0;
}

// Assembles the --stats-json document. The partitioning sections are
// present only when a CCSS schedule exists (ccss engine or --stats mode);
// the engine section only when a simulation actually ran.
obs::Json statsJsonDoc(const Args& a, const sim::SimIR& ir,
                       const core::CondPartSchedule* sched, const sim::Engine* eng) {
  obs::Json doc = obs::Json::object();
  obs::Json options = obs::Json::object();
  options["cp"] = a.cp;
  options["baseline"] = a.baseline;
  options["engine"] = sim::engineKindName(a.engineKind);
  options["threads"] = a.threads;
  if (a.batch > 0) options["batch"] = a.batch;
  if (a.lanes > 0) options["lanes"] = a.lanes;
  doc["options"] = std::move(options);
  doc["design"] = core::designSummaryJson(ir);
  if (sched) {
    doc["partitioning"] = core::partitionStatsJson(sched->partitionStats);
    doc["schedule"] = core::scheduleSummaryJson(*sched);
  }
  // Static BSP placement shape. The live engine's placement when one ran
  // parallel; otherwise (e.g. --stats with --threads N) a fresh build over
  // the schedule, so compile-only runs can inspect super-step coarsening.
  if (auto* par = dynamic_cast<const core::ParallelActivityEngine*>(eng)) {
    doc["placement"] = core::placementReportJson(par->placement());
  } else if (sched && a.threads > 1) {
    core::PlacementOptions popts;
    popts.threads = a.threads;
    doc["placement"] = core::placementReportJson(core::buildPlacement(*sched, popts));
  }
  if (eng) {
    obs::Json e = obs::Json::object();
    e["name"] = eng->name();
    e["stats"] = core::engineStatsJson(eng->stats());
    if (auto* act = dynamic_cast<const core::ActivityEngine*>(eng))
      e["effective_activity"] = act->effectiveActivity();
    if (auto* lbe = dynamic_cast<const core::LaneBroadcastEngine*>(eng)) {
      e["effective_activity"] = lbe->effectiveActivity();
      const core::LaneEngine& g = lbe->group();
      obs::Json lane = obs::Json::object();
      lane["lanes"] = g.lanes();
      lane["simd_backend"] = g.simdBackend();
      lane["group_ticks"] = g.groupTicks();
      lane["group_partition_runs"] = g.groupPartitionRuns();
      lane["group_partition_skips"] = g.groupPartitionSkips();
      lane["masked_lane_skips"] = g.maskedLaneSkips();
      e["lane"] = std::move(lane);
    }
    doc["engine"] = std::move(e);
  }
  doc["phase_timings"] = obs::phaseTimingsJson();
  // Thread attribution from the live trace session (quiescent by now: the
  // simulation finished before stats are assembled) and any lock-free
  // metrics recorded along the way (farm latency histograms etc.).
  if (obs::TraceSession* s = obs::TraceSession::current())
    doc["parallel"] = s->summary().toJson();
  if (!obs::MetricsRegistry::global().empty())
    doc["metrics"] = obs::MetricsRegistry::global().toJson();
  return doc;
}

void writeJsonReport(const char* what, const std::string& path, const obs::Json& doc) {
  obs::writeJsonFile(path, doc);
  std::fprintf(stderr, "essentc: wrote %s to %s\n", what, path.c_str());
}

int runStats(const Args& a, const sim::SimIR& ir) {
  core::Netlist nl = core::Netlist::build(ir);
  core::PartitionOptions po;
  po.smallThreshold = a.cp;
  core::Partitioning p = core::partitionNetlist(nl, po);
  core::CondPartSchedule sched = core::buildScheduleFrom(nl, p, true);
  std::printf("design %s\n", ir.name.c_str());
  std::printf("  IR ops          %zu\n", ir.ops.size());
  std::printf("  registers       %zu\n", ir.regs.size());
  std::printf("  memories        %zu\n", ir.mems.size());
  std::printf("  inputs/outputs  %zu / %zu\n", ir.inputs.size(), ir.outputs.size());
  std::printf("netlist graph\n");
  std::printf("  nodes           %d\n", nl.g.numNodes());
  std::printf("  edges           %lld\n", static_cast<long long>(nl.g.numEdges()));
  std::printf("partitioning (C_p = %u)\n", a.cp);
  std::printf("  MFFC partitions %zu\n", p.stats.initialParts);
  std::printf("  cones cut       %zu  -> %zu partitions\n", p.stats.conesCut, p.stats.afterCut);
  std::printf("  phase A merges  %zu  -> %zu partitions\n", p.stats.mergesA,
              p.stats.afterSingleParent);
  std::printf("  phase B merges  %zu  -> %zu partitions\n", p.stats.mergesB,
              p.stats.afterSmallSiblings);
  std::printf("  phase C merges  %zu  -> %zu partitions (%zu rejected by external-path "
              "test)\n",
              p.stats.mergesC, p.stats.finalParts, p.stats.rejectedMerges);
  std::printf("  cut edges       %lld\n", static_cast<long long>(p.stats.cutEdges));
  std::printf("  still small     %zu\n", p.stats.smallRemaining);
  std::printf("schedule\n");
  std::printf("  elided regs     %zu / %zu\n", sched.elidedRegs, ir.regs.size());
  std::printf("  elided mem wr   %zu\n", sched.elidedMemWrites);
  std::printf("  part outputs    %zu\n", sched.totalOutputs);
  if (!a.statsJsonPath.empty())
    writeJsonReport("stats", a.statsJsonPath, statsJsonDoc(a, ir, &sched, nullptr));
  return 0;
}

int runSim(const Args& a, std::shared_ptr<const sim::CompiledDesign> design,
           diag::DiagEngine& de, const support::ResourceGuard& guard) {
  const sim::SimIR& ir = design->ir;
  guard.checkCycles(a.runCycles);
  // Single construction path: the factory resolves the kind, builds (or
  // reuses) the kind-specific compiled structure, and applies the profiling
  // knobs. Graceful degradation (thread clamping, spawn-failure fallback to
  // the serial engine) surfaces through `warnings` as W0601 diagnostics.
  sim::EngineOptions eo;
  eo.threads = a.threads;
  eo.partitionSmallThreshold = a.cp;
  if (a.lanes > 0) eo.lanes = a.lanes;
  eo.profiling = !a.profilePath.empty() || a.topHot > 0;
  eo.profileWindow = a.profileWindow;
  std::vector<std::string> warnings;
  eo.warnings = &warnings;
  std::unique_ptr<sim::Engine> eng = sim::makeEngine(a.engineKind, std::move(design), eo);
  for (const std::string& w : warnings) de.warning("W0601", w, {});

  for (const auto& [name, value] : a.pokes) eng->poke(name, value);

  auto* act = dynamic_cast<core::ActivityEngine*>(eng.get());

  std::unique_ptr<std::ofstream> vcdFile;
  std::unique_ptr<sim::VcdWriter> vcd;
  if (!a.vcdPath.empty()) {
    vcdFile = std::make_unique<std::ofstream>(a.vcdPath);
    vcd = std::make_unique<sim::VcdWriter>(*vcdFile, *eng);
  }

  uint64_t c = 0;
  {
    // Structural wrapper (None: the engine's own tick/wave spans carry the
    // Busy attribution for this interval).
    obs::TraceSpan span("sim.run", obs::TraceCat::None, obs::TraceDetail::Phase);
    for (; c < a.runCycles && !eng->stopped(); c++) {
      eng->tick();
      if (vcd) vcd->sample(c + 1);
      if ((c & 1023) == 1023) guard.checkDeadline();
    }
  }
  std::fputs(eng->printOutput().c_str(), stdout);
  std::printf("ran %llu cycles on %s engine%s\n", static_cast<unsigned long long>(c),
              eng->name(), eng->stopped() ? strfmt(" (stopped, exit %d)", eng->exitCode()).c_str() : "");
  for (int32_t o : ir.outputs)
    std::printf("  %s = 0x%s\n", ir.signals[static_cast<size_t>(o)].name.c_str(),
                eng->peekSigBV(o).toHexString().c_str());
  if (act) std::printf("effective activity factor: %.4f\n", act->effectiveActivity());
  if (auto* lbe = dynamic_cast<core::LaneBroadcastEngine*>(eng.get()))
    std::printf("effective activity factor: %.4f (%u lanes, %s backend)\n",
                lbe->effectiveActivity(), lbe->group().lanes(), lbe->group().simdBackend());

  if (act && a.topHot > 0) {
    auto hot = core::topHotPartitions(act->profile(), a.topHot);
    uint64_t totalOps = act->stats().opsEvaluated;
    std::printf("hottest partitions (of %zu, by ops evaluated):\n",
                act->schedule().numPartitions());
    std::printf("  %4s %6s %7s %12s %12s %12s %7s\n", "rank", "part", "ops", "activations",
                "opsEval", "wakes", "share");
    for (size_t rank = 0; rank < hot.size(); rank++) {
      const core::PartitionProfile& pp = act->profile().parts[hot[rank]];
      double share = totalOps ? 100.0 * static_cast<double>(pp.opsEvaluated) /
                                    static_cast<double>(totalOps)
                              : 0.0;
      std::printf("  %4zu %6zu %7zu %12llu %12llu %12llu %6.2f%%\n", rank + 1, hot[rank],
                  act->schedule().parts[hot[rank]].ops.size(),
                  static_cast<unsigned long long>(pp.activations),
                  static_cast<unsigned long long>(pp.opsEvaluated),
                  static_cast<unsigned long long>(pp.wakesIssued), share);
    }
  }

  if (!a.profilePath.empty()) {
    obs::Json doc = core::activityProfileJson(*act);
    doc["phase_timings"] = obs::phaseTimingsJson();
    writeJsonReport("profile", a.profilePath, doc);
  }
  if (!a.statsJsonPath.empty())
    writeJsonReport("stats", a.statsJsonPath,
                    statsJsonDoc(a, ir, act ? &act->schedule() : nullptr, eng.get()));
  return 0;
}

// --run --batch N: N concurrent instances of the design sharing one
// compiled schedule through core::SimFarm. Pokes apply to every instance;
// --stimulus-dir assigns instance i the i-th (sorted, wrapping) stimulus
// file. Prints the aggregate farm throughput plus one line per instance;
// --stats-json gains a "farm" section (core::farmReportJson).
int runBatch(const Args& a, std::shared_ptr<const sim::CompiledDesign> design,
             diag::DiagEngine& de, const support::ResourceGuard& guard) {
  const sim::SimIR& ir = design->ir;
  // The cycle budget covers the whole batch (saturating multiply).
  uint64_t total = a.runCycles;
  if (a.runCycles != 0 && a.batch > UINT64_MAX / a.runCycles) total = UINT64_MAX;
  else total = a.runCycles * a.batch;
  guard.checkCycles(total);

  struct NamedStim {
    std::string name;
    fuzz::Stimulus stim;
  };
  std::vector<NamedStim> stims;
  if (!a.stimulusDir.empty()) {
    std::vector<std::filesystem::path> files;
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(a.stimulusDir, ec))
      if (entry.is_regular_file()) files.push_back(entry.path());
    if (ec) {
      std::fprintf(stderr, "essentc: cannot read --stimulus-dir %s: %s\n",
                   a.stimulusDir.c_str(), ec.message().c_str());
      return 1;
    }
    std::sort(files.begin(), files.end());
    for (const auto& p : files) {
      try {
        stims.push_back({p.filename().string(), fuzz::Stimulus::parse(readFile(p.string()))});
      } catch (const std::exception& e) {
        std::fprintf(stderr, "essentc: bad stimulus file %s: %s\n", p.c_str(), e.what());
        return 1;
      }
    }
    if (stims.empty()) {
      std::fprintf(stderr, "essentc: --stimulus-dir %s holds no stimulus files\n",
                   a.stimulusDir.c_str());
      return 1;
    }
  }

  core::FarmOptions fo;
  fo.kind = a.engineKind;
  fo.workers = a.threads;
  fo.engine.partitionSmallThreshold = a.cp;
  if (a.lanes > 0) fo.engine.lanes = a.lanes;
  // SHARED wall budget: N concurrent instances check --deadline-ms inside
  // their run loops, so the batch stops within one check interval of the
  // deadline instead of overshooting N-fold and only failing afterwards.
  fo.guard = &guard;
  std::vector<core::FarmJob> jobs(a.batch);
  for (uint32_t i = 0; i < a.batch; i++) {
    core::FarmJob& job = jobs[i];
    job.maxCycles = a.runCycles;
    job.init = [&a](sim::Engine& eng) {
      for (const auto& [name, value] : a.pokes) eng.poke(name, value);
    };
    if (!stims.empty()) {
      const NamedStim& ns = stims[i % stims.size()];
      job.name = ns.name;
      const fuzz::Stimulus* s = &ns.stim;
      job.stimulus = [s](sim::Engine& eng, uint64_t c) {
        if (c < s->numCycles()) s->apply(eng, c);
      };
    }
  }

  core::SimFarm farm(std::move(design), fo);
  core::FarmReport report = farm.run(jobs);
  guard.checkDeadline();
  for (const std::string& w : report.warnings) de.warning("W0601", w, {});

  std::printf("farm: %zu instances on %s engine, %u worker%s\n", report.instances.size(),
              sim::engineKindName(report.kind), report.workers,
              report.workers == 1 ? "" : "s");
  if (report.lane.lanes > 0)
    std::printf("  lanes %u (%s backend): %llu group%s, %llu scalar fallback%s\n",
                report.lane.lanes, report.lane.simdBackend.c_str(),
                static_cast<unsigned long long>(report.lane.groups),
                report.lane.groups == 1 ? "" : "s",
                static_cast<unsigned long long>(report.lane.scalarFallbacks),
                report.lane.scalarFallbacks == 1 ? "" : "s");
  int failures = 0;
  for (const core::FarmInstanceResult& r : report.instances) {
    if (!r.error.empty()) {
      std::printf("  %-12s ERROR: %s\n", r.name.c_str(), r.error.c_str());
      failures++;
      continue;
    }
    std::printf("  %-12s %llu cycles%s", r.name.c_str(),
                static_cast<unsigned long long>(r.cycles),
                r.stopped ? strfmt(" (stopped, exit %d)", r.exitCode).c_str() : "");
    if (r.effectiveActivity > 0) std::printf(", effective activity %.4f", r.effectiveActivity);
    std::printf("\n");
  }
  std::printf("farm wall %.4f s, %.1f instances/s, %.0f cycles/s aggregate\n",
              report.wallSeconds, report.instancesPerSec, report.aggregateCyclesPerSec);

  if (!a.statsJsonPath.empty()) {
    obs::Json doc = statsJsonDoc(a, ir, nullptr, nullptr);
    doc["farm"] = core::farmReportJson(report);
    writeJsonReport("stats", a.statsJsonPath, doc);
  }
  return failures ? 1 : 0;
}

// Generates the CCSS simulator, compiles it with the host toolchain, runs
// it for the requested cycles with the pokes applied, and cross-checks
// every output port against the in-process interpreter. Both subprocesses
// run under the --timeout-ms watchdog; a timeout exits 124.
int runCompileRun(const Args& a, std::shared_ptr<const sim::CompiledDesign> design,
                  const support::ResourceGuard& guard) {
  const sim::SimIR& ir = design->ir;
  guard.checkCycles(a.runCycles);
  // Ctrl-C / SIGTERM during the subprocess phases must kill the compiler or
  // generated-simulator process group AND still unwind through this frame so
  // the TempDir below is removed. Installed here (not in main) so plain
  // --run keeps the default immediate-exit disposition.
  support::installSignalRelay();
  core::ScheduleOptions so;
  so.partition.smallThreshold = a.cp;
  core::CondPartSchedule sched = core::buildSchedule(core::Netlist::build(ir), so);
  codegen::CodegenOptions co;
  co.ccss = !a.baseline;
  co.branchHints = a.hints;
  std::string code =
      codegen::emitCpp(ir, co.ccss ? &sched : nullptr, co);

  // RAII scratch space: removed on every exit path (success, compile
  // failure, early errors) unless explicitly kept for debugging.
  support::TempDir dir("essentc_cr_XXXXXX");
  std::string src = dir.file("sim.cpp");
  {
    std::ofstream f(src);
    f << code;
    f << "\nint main() {\n  essent_gen::Simulator sim;\n";
    if (a.injectHang) f << "  for (;;) {}\n";  // watchdog self-test
    for (const auto& [name2, value] : a.pokes) {
      int32_t sig = ir.findSignal(name2);
      if (sig < 0) {
        std::fprintf(stderr, "essentc: no signal named '%s'\n", name2.c_str());
        return 1;
      }
      // Masked like Engine::poke: emitted code relies on in-range values.
      const uint32_t w = ir.signals[static_cast<size_t>(sig)].width;
      f << "  sim." << codegen::memberName(ir, sig) << " = "
        << (w >= 64 ? value : value & ((1ull << w) - 1)) << "ull;\n";
    }
    f << "  for (unsigned long long c = 0; c < " << a.runCycles
      << "ull && !sim.stopped_; c++) sim.eval();\n";
    for (int32_t o : ir.outputs)
      f << "  std::printf(\"" << ir.signals[static_cast<size_t>(o)].name
        << "=%llx\\n\", (unsigned long long)sim."
        << codegen::memberName(ir, o) << ");\n";
    f << "  return sim.exit_code_;\n}\n";
  }
  support::RunOptions ro;
  ro.timeoutMs = a.timeoutMs;
  std::string bin = dir.file("sim");
  std::string cmd =
      "c++ -std=c++20 -O2 -o " + support::shellQuote(bin) + " " + support::shellQuote(src);
  std::fprintf(stderr, "essentc: compiling generated simulator (%zu bytes)...\n",
               code.size());
  support::ExecResult cc;
  {
    obs::TraceSpan span("compile-run.cc", obs::TraceCat::Busy, obs::TraceDetail::Phase);
    cc = support::runShell(cmd, ro);
  }
  if (cc.interrupted) {
    std::fprintf(stderr, "essentc: host compilation %s\n", cc.describe().c_str());
    return 128 + support::interruptSignal();
  }
  if (cc.timedOut) {
    std::fprintf(stderr, "essentc: host compilation %s (source kept at %s)\n",
                 cc.describe().c_str(), src.c_str());
    dir.keep();
    return 124;
  }
  if (!cc.ok()) {
    std::fprintf(stderr, "essentc: host compilation failed (%s; source kept at %s)\n",
                 cc.describe().c_str(), src.c_str());
    dir.keep();
    return 1;
  }
  std::string outFile = dir.file("out.txt");
  support::ExecResult run;
  {
    obs::TraceSpan span("compile-run.exec", obs::TraceCat::Busy, obs::TraceDetail::Phase);
    run = support::runShell(
        support::shellQuote(bin) + " > " + support::shellQuote(outFile), ro);
  }
  if (run.interrupted) {
    std::fprintf(stderr, "essentc: compiled simulator %s\n", run.describe().c_str());
    return 128 + support::interruptSignal();
  }
  if (run.timedOut) {
    std::fprintf(stderr, "essentc: compiled simulator %s\n", run.describe().c_str());
    return 124;
  }

  // Interpreter cross-check.
  core::ActivityEngine eng(core::CompiledCcss::compile(std::move(design), so));
  for (const auto& [name2, value] : a.pokes) eng.poke(name2, value);
  for (uint64_t c = 0; c < a.runCycles && !eng.stopped(); c++) {
    eng.tick();
    if ((c & 1023) == 1023) {
      guard.checkDeadline();
      if (support::interruptRequested()) return 128 + support::interruptSignal();
    }
  }

  // The generated main() returns the design's stop exit code, so a nonzero
  // status is a failure only when the interpreter disagrees (or the process
  // died abnormally).
  int wantExit = eng.stopped() ? eng.exitCode() : 0;
  if (!run.ran || !run.exited) {
    std::fprintf(stderr, "essentc: compiled simulator did not run cleanly (%s; kept at %s)\n",
                 run.describe().c_str(), bin.c_str());
    dir.keep();
    return 1;
  }
  if (run.exitCode != wantExit) {
    std::fprintf(stderr,
                 "essentc: compiled simulator exit status %d disagrees with the interpreter "
                 "(expected %d)\n",
                 run.exitCode, wantExit);
    return 1;
  }

  std::ifstream out(outFile);
  std::string line;
  int mismatches = 0;
  while (std::getline(out, line)) {
    size_t eq = line.find('=');
    if (eq == std::string::npos) {
      std::fputs((line + "\n").c_str(), stdout);  // design printf output
      continue;
    }
    std::string sig = line.substr(0, eq);
    if (ir.findSignal(sig) < 0) {
      std::fputs((line + "\n").c_str(), stdout);
      continue;
    }
    std::string compiled = line.substr(eq + 1);
    std::string interp = eng.peekBV(sig).toHexString();
    bool ok = compiled == interp;
    mismatches += !ok;
    std::printf("  %s = 0x%s %s\n", sig.c_str(), compiled.c_str(),
                ok ? "(matches interpreter)" : ("(INTERPRETER SAYS 0x" + interp + ")").c_str());
  }
  std::printf("compiled simulator ran %llu cycles; %s\n",
              static_cast<unsigned long long>(a.runCycles),
              mismatches ? "OUTPUT MISMATCH vs interpreter" : "outputs match the interpreter");
  return mismatches ? 1 : 0;
}

int runDot(const Args& a, const sim::SimIR& ir) {
  core::Netlist nl = core::Netlist::build(ir);
  core::PartitionOptions po;
  po.smallThreshold = a.cp;
  core::Partitioning p = core::partitionNetlist(nl, po);
  std::string dot = "digraph partitions {\n";
  for (size_t i = 0; i < p.members.size(); i++)
    dot += strfmt("  p%zu [label=\"%zu (%zu)\"];\n", i, i, p.members[i].size());
  for (graph::NodeId v = 0; v < p.partGraph.numNodes(); v++)
    for (graph::NodeId w : p.partGraph.outNeighbors(v)) dot += strfmt("  p%d -> p%d;\n", v, w);
  dot += "}\n";
  writeOut(a, dot);
  return 0;
}

// Renders collected diagnostics to stderr (with an "essentc: N error(s)"
// trailer) and writes the --diag-json mirror. Called on every exit path
// that reaches the front end, including success with warnings only.
void flushDiagnostics(const Args& a, const diag::DiagEngine& de) {
  if (!de.diagnostics().empty()) {
    std::fputs(de.render().c_str(), stderr);
    std::fprintf(stderr, "essentc: %zu error(s), %zu warning(s)\n", de.errorCount(),
                 de.warningCount());
  }
  if (!a.diagJsonPath.empty()) writeJsonReport("diagnostics", a.diagJsonPath, de.toJson());
}

}  // namespace

int main(int argc, char** argv) {
  Args a = parseArgs(argc, argv);
  diag::DiagEngine de;
  // The trace session covers everything from elaboration to teardown and
  // outlives every engine/pool, matching the session lifetime contract in
  // obs/trace.h. --trace-summary without --trace records but writes no file.
  std::unique_ptr<obs::TraceSession> trace;
  if (!a.tracePath.empty() || a.traceSummary) {
    obs::TraceOptions to;
    to.detail = a.traceDetail;
    if (a.traceRingKb > 0)
      to.ringCapacity = std::max<size_t>(
          1024, (static_cast<size_t>(a.traceRingKb) * 1024) / sizeof(obs::TraceEvent));
    trace = std::make_unique<obs::TraceSession>(to);
    trace->install();
    trace->nameThread("main");
  }
  int rc = 0;
  try {
    std::string text;
    if (a.scale > 0) {
      text = designs::tinySoCFirrtl(designs::socScaled(a.scale));
      de.setSource(strfmt("<socScaled(%u)>", a.scale), text);
    } else {
      text = readFile(a.inputPath);
      de.setSource(a.inputPath, text);
    }
    // The deadline clock starts here and covers elaboration + simulation.
    support::ResourceGuard guard(a.limits);
    sim::CompileOptions copts;
    if (a.baseline) copts.build.constProp = copts.build.cse = copts.build.dce = false;
    copts.build.allowCombLoops = a.allowCombLoops;
    copts.limits = a.limits;
    std::shared_ptr<const sim::CompiledDesign> design = sim::compileDesign(text, copts, de);
    if (!design) {
      rc = 1;
    } else {
      const sim::SimIR& ir = design->ir;
      switch (a.mode) {
        case Args::Mode::Stats:
          rc = runStats(a, ir);
          break;
        case Args::Mode::Run:
          rc = a.batch > 0 ? runBatch(a, std::move(design), de, guard)
                           : runSim(a, std::move(design), de, guard);
          break;
        case Args::Mode::CompileRun:
          rc = runCompileRun(a, std::move(design), guard);
          break;
        case Args::Mode::Dot:
          rc = runDot(a, ir);
          break;
        case Args::Mode::EmitCpp: {
          codegen::CodegenOptions co;
          co.ccss = !a.baseline;
          co.branchHints = a.hints;
          core::CondPartSchedule sched;
          if (co.ccss) {
            core::ScheduleOptions so;
            so.partition.smallThreshold = a.cp;
            sched = core::buildSchedule(core::Netlist::build(ir), so);
          }
          if (a.shards > 1) {
            rc = writeSharded(a, ir, co.ccss ? &sched : nullptr, co);
          } else {
            writeOut(a, codegen::emitCpp(ir, co.ccss ? &sched : nullptr, co));
            rc = 0;
          }
          break;
        }
      }
    }
  } catch (const support::ResourceExhausted& e) {
    de.error(e.code(), e.what(), {});
    rc = e.code() == "E0504" ? 124 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "essentc: internal error: %s\n", e.what());
    flushDiagnostics(a, de);
    return 2;
  }
  if (trace) {
    // Stop recording before reading: every engine (and its pool) created in
    // the mode handlers has been destroyed, so the buffers are quiescent.
    trace->uninstall();
    if (!a.tracePath.empty()) {
      obs::writeJsonFile(a.tracePath, trace->toJson());
      std::fprintf(stderr, "essentc: wrote trace (%llu events, %llu dropped) to %s\n",
                   static_cast<unsigned long long>(trace->eventCount()),
                   static_cast<unsigned long long>(trace->droppedCount()),
                   a.tracePath.c_str());
    }
    if (a.traceSummary) std::fputs(trace->summary().render().c_str(), stdout);
  }
  flushDiagnostics(a, de);
  return rc;
}
