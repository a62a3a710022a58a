// Fuzz campaign driver: generates seeded circuits + stimulus, runs the
// differential oracle, shrinks failures, and saves reproducers to a corpus
// directory.
//
// Determinism contract: every per-case decision (circuit shape, stimulus,
// whether the case is wide or includes the compiled engine, and in which
// shard layout) derives from a single 64-bit case seed, which itself
// derives from (campaign seed, case index). `essent-fuzz --replay
// <caseSeed>` therefore reproduces any case from any campaign exactly,
// without re-running the cases before it.
#pragma once

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "fuzz/oracle.h"

namespace essent::fuzz {

struct FuzzConfig {
  uint64_t seed = 1;
  uint64_t budget = 100;       // number of cases
  uint64_t cycles = 80;        // stimulus length per case
  std::vector<EngineKind> engines = allEngineKinds();
  unsigned parThreads = 2;
  // The compiled engine costs a host-compiler invocation per case, so only
  // every Nth case (seed-derived, deterministic) includes it; 0 disables.
  uint32_t codegenEvery = 10;
  // Every Nth case allows >64-bit signals (never codegen-eligible); 0
  // disables wide circuits.
  uint32_t wideEvery = 7;
  std::string corpusDir;       // failing cases saved here when non-empty
  bool shrinkFailures = true;
  uint32_t shrinkAttempts = 400;
  bool verbose = false;
  // Watchdog for every codegen compile/run subprocess — applied to the
  // initial oracle run AND to each shrink attempt's re-run, so a circuit
  // that compiles into a hanging simulator can never wedge a campaign.
  // 0 disables (not recommended).
  int64_t subprocessTimeoutMs = 60'000;
};

struct CaseResult {
  uint64_t caseSeed = 0;
  bool wide = false;
  bool codegenChecked = false;
  bool codegenSkipped = false;
  uint32_t codegenShards = 1;      // layout of the codegen leg (OracleOptions)
  std::string buildError;          // generator produced an unbuildable circuit
  std::optional<Divergence> divergence;
  std::string fir;                 // populated on failure
  Stimulus stim;
  std::string shrunkFir;           // populated when shrinking ran
  std::optional<Stimulus> shrunkStim;

  bool failed() const { return divergence.has_value() || !buildError.empty(); }
};

struct FuzzSummary {
  uint64_t cases = 0;
  uint64_t failures = 0;
  uint64_t codegenChecked = 0;
  uint64_t codegenSkipped = 0;
  std::vector<uint64_t> failingSeeds;
  // Order-sensitive digest over every case's seed and verdict: two runs of
  // the same campaign must produce identical digests.
  uint64_t digest = 0;

  bool failed() const { return failures != 0; }
};

// The case seed for index `i` of a campaign (exposed for --replay tooling).
uint64_t caseSeedFor(uint64_t campaignSeed, uint64_t index);

// Runs a single case; `log` may be null.
CaseResult runFuzzCase(uint64_t caseSeed, const FuzzConfig& config, std::FILE* log);

// Runs `config.budget` cases. Progress and failure reports go to `log`
// (may be null); failing cases are saved under config.corpusDir.
FuzzSummary runFuzzCampaign(const FuzzConfig& config, std::FILE* log);

// Re-checks a saved reproducer (.fir + stimulus) through the oracle; a
// codegen leg is checked in both the single-unit and the two-shard layout.
CaseResult replayCase(const std::string& fir, const Stimulus& stim,
                      const FuzzConfig& config, std::FILE* log);

}  // namespace essent::fuzz
