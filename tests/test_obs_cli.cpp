// End-to-end tests for the essentc observability flags (--profile,
// --stats-json, --top-hot), run as real subprocesses against the shipped
// examples/ FIRRTL inputs. Emitted files must parse with the strict obs
// JSON parser and satisfy the documented sum checks.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cli_harness.h"
#include "obs/json.h"

#ifndef EXAMPLES_DIR
#error "EXAMPLES_DIR must be defined by the build"
#endif

namespace {

using essent::obs::Json;

using essent::clitest::runCli;
using essent::support::TempDir;

Json parseFile(const std::string& path) {
  std::ifstream f(path);
  EXPECT_TRUE(f.good()) << "missing " << path;
  std::stringstream ss;
  ss << f.rdbuf();
  return Json::parse(ss.str());
}

std::string example(const char* name) { return std::string(EXAMPLES_DIR) + "/" + name; }

TEST(ObsCli, ProfileEmitsSumCheckedJson) {
  const TempDir tmp("essent_obs_cli_XXXXXX");
  const std::string p = tmp.file("p.json");
  auto res = runCli("--run 1000 --poke en=1 --poke sel=2 --profile " + p + " " +
                        example("counterbanks.fir"));
  ASSERT_EQ(res.exitCode, 0) << res.output;
  EXPECT_NE(res.output.find("wrote profile"), std::string::npos) << res.output;

  Json doc = parseFile(p);
  EXPECT_EQ(doc.at("design").asStr(), "CounterBanks");
  EXPECT_EQ(doc.at("engine").asStr(), "essent-ccss");
  EXPECT_EQ(doc.at("stats").at("cycles").asUInt(), 1000u);
  double ea = doc.at("effective_activity").asDouble();
  EXPECT_GE(ea, 0.0);
  EXPECT_LE(ea, 1.0);

  // Per-partition counters must sum to the engine-level totals.
  uint64_t ops = 0, acts = 0;
  for (const Json& row : doc.at("partitions").items()) {
    ops += row.at("ops_evaluated").asUInt();
    acts += row.at("activations").asUInt();
    EXPECT_LE(row.at("activations").asUInt(), 1000u);
  }
  EXPECT_EQ(ops, doc.at("stats").at("ops_evaluated").asUInt());
  EXPECT_EQ(acts, doc.at("stats").at("partition_activations").asUInt());

  // Timeline covers the run and re-buckets the same activations.
  const Json& tl = doc.at("timeline");
  EXPECT_EQ(tl.at("profiled_cycles").asUInt(), 1000u);
  uint64_t tlSum = 0;
  for (const Json& w : tl.at("activations_per_window").items()) tlSum += w.asUInt();
  EXPECT_EQ(tlSum, acts);

  EXPECT_FALSE(doc.at("phase_timings").at("timers").members().empty());
}

TEST(ObsCli, StatsJsonOnRunIncludesEngineSection) {
  const TempDir tmp("essent_obs_cli_XXXXXX");
  const std::string s = tmp.file("s.json");
  auto res = runCli("--run 200 --poke start=1 --poke a=48 --poke b=36 --stats-json " + s + " " +
                        example("gcd.fir"));
  ASSERT_EQ(res.exitCode, 0) << res.output;
  Json doc = parseFile(s);
  EXPECT_EQ(doc.at("design").at("name").asStr(), "GCD");
  EXPECT_EQ(doc.at("options").at("engine").asStr(), "ccss");
  const Json& parts = doc.at("partitioning");
  EXPECT_GT(parts.at("final_parts").asUInt(), 0u);
  EXPECT_EQ(parts.at("after_cut").asUInt(),
            parts.at("initial_parts").asUInt() + parts.at("cones_cut").asUInt());
  EXPECT_EQ(doc.at("engine").at("name").asStr(), "essent-ccss");
  EXPECT_EQ(doc.at("engine").at("stats").at("cycles").asUInt(), 200u);
  ASSERT_NE(doc.at("phase_timings").find("timers"), nullptr);
  const Json& timers = doc.at("phase_timings").at("timers");
  for (const char* phase : {"parse", "lower", "netlist", "mffc", "cut", "schedule"})
    EXPECT_NE(timers.find(phase), nullptr) << "missing phase " << phase;
}

TEST(ObsCli, StatsJsonWithoutRunOmitsEngineSection) {
  const TempDir tmp("essent_obs_cli_XXXXXX");
  const std::string s = tmp.file("s.json");
  auto res = runCli("--stats-json " + s + " " + example("counterbanks.fir"));
  ASSERT_EQ(res.exitCode, 0) << res.output;
  Json doc = parseFile(s);
  EXPECT_EQ(doc.find("engine"), nullptr);
  EXPECT_NE(doc.find("schedule"), nullptr);
}

TEST(ObsCli, StatsJsonEdgeConfigsBaselineAndCpZero) {
  // --baseline disables activity tracking; --cp 0 disables sibling merging.
  // Both must still produce parseable stats documents.
  const TempDir tmp("essent_obs_cli_XXXXXX");
  for (const char* cfg : {"--baseline", "--cp 0"}) {
    const std::string s = tmp.file("edge.json");
    auto res = runCli(std::string(cfg) + " --run 100 --stats-json " + s + " " +
                          example("counterbanks.fir"));
    ASSERT_EQ(res.exitCode, 0) << cfg << ": " << res.output;
    Json doc = parseFile(s);
    EXPECT_EQ(doc.at("engine").at("stats").at("cycles").asUInt(), 100u) << cfg;
    EXPECT_GT(doc.at("engine").at("stats").at("ops_evaluated").asUInt(), 0u) << cfg;
  }
}

TEST(ObsCli, TopHotPrintsRankedTable) {
  auto res = runCli("--run 500 --poke en=1 --poke sel=1 --top-hot 3 " +
                        example("counterbanks.fir"));
  ASSERT_EQ(res.exitCode, 0) << res.output;
  EXPECT_NE(res.output.find("hottest partitions"), std::string::npos) << res.output;
  // Each row carries the partition's size (its op count) beside its work.
  const size_t title = res.output.find("hottest partitions");
  ASSERT_NE(title, std::string::npos);
  std::istringstream lines(res.output.substr(title));
  std::string line;
  std::getline(lines, line);  // the title
  std::getline(lines, line);  // the column header
  std::istringstream header(line);
  std::vector<std::string> columns;
  for (std::string c; header >> c;) columns.push_back(c);
  EXPECT_EQ(columns, (std::vector<std::string>{"rank", "part", "ops", "activations", "opsEval",
                                                "wakes", "share"}))
      << res.output;
}

TEST(ObsCli, ProfileRequiresRunAndCcssEngine) {
  const TempDir tmp("essent_obs_cli_XXXXXX");
  std::string fir = example("counterbanks.fir");
  auto noRun = runCli("--profile " + tmp.file("p.json") + " " + fir);
  EXPECT_NE(noRun.exitCode, 0);
  EXPECT_NE(noRun.output.find("--run"), std::string::npos) << noRun.output;
  auto wrongEngine =
      runCli("--engine full --run 10 --profile " + tmp.file("p.json") + " " + fir);
  EXPECT_NE(wrongEngine.exitCode, 0);
  auto badPath = runCli("--run 10 --profile /nonexistent-dir/p.json " + fir);
  EXPECT_NE(badPath.exitCode, 0);
}

TEST(ObsCli, ProfileOnGcdExampleParses) {
  const TempDir tmp("essent_obs_cli_XXXXXX");
  const std::string p = tmp.file("gcd.json");
  auto res = runCli("--run 300 --poke start=1 --poke a=1071 --poke b=462 --profile " + p + " " +
                        example("gcd.fir"));
  ASSERT_EQ(res.exitCode, 0) << res.output;
  Json doc = parseFile(p);
  EXPECT_EQ(doc.at("design").asStr(), "GCD");
  EXPECT_GT(doc.at("partitions").items().size(), 0u);
}

}  // namespace
