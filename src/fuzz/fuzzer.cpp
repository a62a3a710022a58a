#include "fuzz/fuzzer.h"

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "fuzz/generator.h"
#include "fuzz/shrinker.h"
#include "sim/builder.h"
#include "support/rng.h"
#include "support/strutil.h"

namespace essent::fuzz {

namespace {

void mix(uint64_t& digest, uint64_t v) {
  digest ^= v + 0x9e3779b97f4a7c15ULL + (digest << 6) + (digest >> 2);
}

bool hasKind(const std::vector<EngineKind>& ks, EngineKind k) {
  return std::find(ks.begin(), ks.end(), k) != ks.end();
}

void writeFile(const std::string& path, const std::string& content) {
  std::ofstream f(path);
  f << content;
}

// Saves fail_<seed>.fir/.stim/.report.txt (+ .min.* when shrunk).
void saveFailure(const std::string& dirPath, const CaseResult& cr, std::FILE* log) {
  std::error_code ec;
  std::filesystem::create_directories(dirPath, ec);
  std::string base = dirPath + strfmt("/fail_%llu",
                                      static_cast<unsigned long long>(cr.caseSeed));
  writeFile(base + ".fir", cr.fir);
  writeFile(base + ".stim", cr.stim.serialize());
  std::string report = strfmt("case seed: %llu\nwide: %d\ncodegen checked: %d (%u shards)\n",
                              static_cast<unsigned long long>(cr.caseSeed), cr.wide ? 1 : 0,
                              cr.codegenChecked ? 1 : 0, cr.codegenShards);
  if (!cr.buildError.empty()) report += "build error: " + cr.buildError + "\n";
  if (cr.divergence) report += cr.divergence->describe() + "\n";
  if (!cr.shrunkFir.empty()) {
    writeFile(base + ".min.fir", cr.shrunkFir);
    if (cr.shrunkStim) writeFile(base + ".min.stim", cr.shrunkStim->serialize());
    report += strfmt("shrunk: %zu -> %zu bytes, %zu -> %zu cycles\n", cr.fir.size(),
                     cr.shrunkFir.size(), cr.stim.numCycles(),
                     cr.shrunkStim ? cr.shrunkStim->numCycles() : cr.stim.numCycles());
  }
  writeFile(base + ".report.txt", report);
  if (log)
    std::fprintf(log, "  saved reproducer: %s.fir (+.stim, .report.txt)\n", base.c_str());
}

}  // namespace

uint64_t caseSeedFor(uint64_t campaignSeed, uint64_t index) {
  // One SplitMix64 step over a combined state: avoids correlated streams
  // between adjacent indices while staying trivially replayable.
  Rng rng(campaignSeed ^ (index * 0x9e3779b97f4a7c15ULL));
  return rng.next();
}

CaseResult runFuzzCase(uint64_t caseSeed, const FuzzConfig& config, std::FILE* log) {
  CaseResult cr;
  cr.caseSeed = caseSeed;

  // Every shape decision comes from the case seed alone, so --replay with
  // just this seed rebuilds the identical case.
  Rng rng(caseSeed);
  GenOptions gen;
  cr.wide = config.wideEvery != 0 && rng.nextChance(1.0 / config.wideEvery);
  gen.allowWide = cr.wide;
  gen.numInputs = 2 + static_cast<uint32_t>(rng.nextBelow(4));
  gen.numRegs = 2 + static_cast<uint32_t>(rng.nextBelow(5));
  gen.exprNodes = 12 + static_cast<uint32_t>(rng.nextBelow(24));
  static const double kToggles[] = {1.0, 0.5, 0.2, 0.05};
  double toggleP = kToggles[rng.nextBelow(4)];
  bool withCodegen = !cr.wide && hasKind(config.engines, EngineKind::Codegen) &&
                     config.codegenEvery != 0 &&
                     rng.nextChance(1.0 / config.codegenEvery);
  uint64_t stimSeed = rng.next();

  cr.fir = generateCircuit(caseSeed, gen);

  OracleOptions oo;
  oo.engines = config.engines;
  if (!withCodegen)
    oo.engines.erase(std::remove(oo.engines.begin(), oo.engines.end(), EngineKind::Codegen),
                     oo.engines.end());
  oo.parThreads = config.parThreads;
  oo.subprocessTimeoutMs = config.subprocessTimeoutMs;
  // Half the codegen-checked cases, by a case-seed bit so --replay matches,
  // split the emitted simulator across two units instead of one.
  cr.codegenShards = oo.codegenShards = caseSeed % 2 ? 2 : 1;

  // Stimulus needs the built IR's input list; build errors are themselves
  // fuzz findings (the generator emits only well-formed FIRRTL).
  sim::SimIR ir;
  try {
    ir = sim::buildFromFirrtl(cr.fir, sim::BuildOptions{});
  } catch (const std::exception& e) {
    cr.buildError = e.what();
    if (log)
      std::fprintf(log, "case %llu: BUILD ERROR: %s\n",
                   static_cast<unsigned long long>(caseSeed), e.what());
    return cr;
  }
  cr.stim = randomStimulus(ir, stimSeed, config.cycles, toggleP);

  OracleResult result = runOracle(cr.fir, cr.stim, oo);
  cr.codegenChecked = withCodegen && !result.codegenSkipped;
  cr.codegenSkipped = result.codegenSkipped;
  if (!result.buildError.empty()) {
    cr.buildError = result.buildError;
    return cr;
  }
  cr.divergence = result.divergence;

  if (cr.divergence && config.shrinkFailures) {
    // "Still failing" = same engine pair and divergence kind; the cycle and
    // values may legitimately move as the circuit shrinks.
    Divergence orig = *cr.divergence;
    FailPredicate pred = [&](const std::string& fir, const Stimulus& stim) {
      OracleResult r = runOracle(fir, stim, oo);
      return r.ran && r.divergence && r.divergence->kind == orig.kind &&
             r.divergence->engineA == orig.engineA && r.divergence->engineB == orig.engineB;
    };
    ShrinkOptions so;
    so.maxAttempts = config.shrinkAttempts;
    ShrinkResult sr = shrinkCase(cr.fir, cr.stim, pred, so);
    cr.shrunkFir = sr.fir;
    cr.shrunkStim = sr.stim;
    if (log)
      std::fprintf(log, "  shrink: %zu -> %zu bytes, %zu -> %zu cycles (%u attempts)\n",
                   cr.fir.size(), sr.fir.size(), cr.stim.numCycles(), sr.stim.numCycles(),
                   sr.attempts);
  }
  return cr;
}

CaseResult replayCase(const std::string& fir, const Stimulus& stim,
                      const FuzzConfig& config, std::FILE* log) {
  CaseResult cr;
  cr.fir = fir;
  cr.stim = stim;
  OracleOptions oo;
  oo.engines = config.engines;
  oo.parThreads = config.parThreads;
  oo.subprocessTimeoutMs = config.subprocessTimeoutMs;
  // A replayed file has no case seed to pick a shard count, so the codegen
  // leg checks both: one unit, then (if that agreed) two.
  OracleResult result = runOracle(fir, stim, oo);
  if (result.ok() && hasKind(oo.engines, EngineKind::Codegen) && !result.codegenSkipped) {
    cr.codegenShards = oo.codegenShards = 2;
    result = runOracle(fir, stim, oo);
  }
  cr.codegenChecked = hasKind(oo.engines, EngineKind::Codegen) && !result.codegenSkipped;
  cr.codegenSkipped = result.codegenSkipped;
  if (!result.buildError.empty())
    cr.buildError = result.buildError;
  else
    cr.divergence = result.divergence;
  if (log) {
    if (!cr.failed())
      std::fprintf(log, "replay: engines agree\n");
    else if (!cr.buildError.empty())
      std::fprintf(log, "replay: BUILD ERROR: %s\n", cr.buildError.c_str());
    else
      std::fprintf(log, "replay: DIVERGENCE\n%s\n", cr.divergence->describe().c_str());
  }
  return cr;
}

FuzzSummary runFuzzCampaign(const FuzzConfig& config, std::FILE* log) {
  FuzzSummary sum;
  for (uint64_t i = 0; i < config.budget; i++) {
    uint64_t caseSeed = caseSeedFor(config.seed, i);
    CaseResult cr = runFuzzCase(caseSeed, config, config.verbose ? log : nullptr);
    sum.cases++;
    if (cr.codegenChecked) sum.codegenChecked++;
    if (cr.codegenSkipped) sum.codegenSkipped++;
    mix(sum.digest, caseSeed);
    mix(sum.digest, cr.failed() ? 1 : 0);
    if (cr.divergence) mix(sum.digest, static_cast<uint64_t>(cr.divergence->kind));
    if (cr.failed()) {
      sum.failures++;
      sum.failingSeeds.push_back(caseSeed);
      if (log) {
        std::fprintf(log, "case %llu/%llu seed=%llu: FAIL\n",
                     static_cast<unsigned long long>(i + 1),
                     static_cast<unsigned long long>(config.budget),
                     static_cast<unsigned long long>(caseSeed));
        if (!cr.buildError.empty())
          std::fprintf(log, "  build error: %s\n", cr.buildError.c_str());
        if (cr.divergence) std::fprintf(log, "  %s\n", cr.divergence->describe().c_str());
      }
      if (!config.corpusDir.empty()) saveFailure(config.corpusDir, cr, log);
    } else if (log && config.verbose) {
      std::fprintf(log, "case %llu/%llu seed=%llu: ok%s\n",
                   static_cast<unsigned long long>(i + 1),
                   static_cast<unsigned long long>(config.budget),
                   static_cast<unsigned long long>(caseSeed),
                   cr.codegenChecked ? " (codegen)" : "");
    }
  }
  if (log)
    std::fprintf(log,
                 "fuzz campaign: %llu cases, %llu failures, %llu codegen-checked "
                 "(%llu skipped), digest %016llx\n",
                 static_cast<unsigned long long>(sum.cases),
                 static_cast<unsigned long long>(sum.failures),
                 static_cast<unsigned long long>(sum.codegenChecked),
                 static_cast<unsigned long long>(sum.codegenSkipped),
                 static_cast<unsigned long long>(sum.digest));
  return sum;
}

}  // namespace essent::fuzz
