// Unit tests for the observability substrate: the JSON document model
// (writer + parser round trips), the stats histogram, and the RAII phase
// timers.
#include <gtest/gtest.h>

#include "obs/json.h"
#include "obs/phase_timer.h"
#include "obs/stats.h"

namespace essent::obs {
namespace {

TEST(Json, ScalarDumpForms) {
  EXPECT_EQ(Json().dump(), "null");
  EXPECT_EQ(Json(true).dump(), "true");
  EXPECT_EQ(Json(false).dump(), "false");
  EXPECT_EQ(Json(42).dump(), "42");
  EXPECT_EQ(Json(-7).dump(), "-7");
  EXPECT_EQ(Json(UINT64_MAX).dump(), "18446744073709551615");
  EXPECT_EQ(Json(1.5).dump(), "1.5");
  EXPECT_EQ(Json(2.0).dump(), "2.0");  // double-ness stays visible
  EXPECT_EQ(Json("hi").dump(), "\"hi\"");
}

TEST(Json, StringEscaping) {
  Json j("a\"b\\c\nd\te\x01");
  std::string dumped = j.dump();
  EXPECT_EQ(dumped, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
  EXPECT_EQ(Json::parse(dumped).asStr(), j.asStr());
}

TEST(Json, ObjectPreservesInsertionOrderAndNests) {
  Json j = Json::object();
  j["zeta"] = 1;
  j["alpha"] = 2;
  j["nested"]["inner"] = "v";  // operator[] on null promotes to object
  EXPECT_EQ(j.members()[0].first, "zeta");
  EXPECT_EQ(j.members()[1].first, "alpha");
  EXPECT_EQ(j.at("nested").at("inner").asStr(), "v");
  EXPECT_EQ(j.find("missing"), nullptr);
  EXPECT_THROW(j.at("missing"), JsonError);
}

TEST(Json, RoundTripComplexDocument) {
  Json doc = Json::object();
  doc["counters"]["cycles"] = uint64_t{123456789012345ull};
  doc["counters"]["neg"] = -42;
  doc["ratio"] = 0.4375;
  doc["flag"] = true;
  doc["nothing"] = Json();
  Json arr = Json::array();
  for (int i = 0; i < 5; i++) arr.push(i * i);
  doc["squares"] = std::move(arr);
  for (int indent : {0, 2, 4}) {
    Json back = Json::parse(doc.dump(indent));
    EXPECT_EQ(back, doc) << "indent=" << indent;
  }
}

TEST(Json, LargeIntegersSurviveExactly) {
  uint64_t big = 0xFFFFFFFFFFFFFFFFull;
  Json back = Json::parse(Json(big).dump());
  EXPECT_EQ(back.asUInt(), big);
  Json negBack = Json::parse(Json(INT64_MIN).dump());
  EXPECT_EQ(negBack.asInt(), INT64_MIN);
}

TEST(Json, ParserRejectsMalformedInput) {
  EXPECT_THROW(Json::parse(""), JsonError);
  EXPECT_THROW(Json::parse("{"), JsonError);
  EXPECT_THROW(Json::parse("[1,]"), JsonError);
  EXPECT_THROW(Json::parse("{\"a\":1 \"b\":2}"), JsonError);
  EXPECT_THROW(Json::parse("\"unterminated"), JsonError);
  EXPECT_THROW(Json::parse("01"), JsonError);  // trailing junk after 0
  EXPECT_THROW(Json::parse("truex"), JsonError);
  EXPECT_THROW(Json::parse("{\"a\":1,\"a\":2}"), JsonError);  // duplicate key
  EXPECT_THROW(Json::parse("nul"), JsonError);
}

TEST(Json, ParserAcceptsEscapesAndUnicode) {
  Json j = Json::parse(R"("tab\there Aé")");
  EXPECT_EQ(j.asStr(), "tab\there A\xc3\xa9");
}

TEST(Json, TypeMismatchesThrow) {
  Json j(3.5);
  EXPECT_THROW(j.asStr(), JsonError);
  EXPECT_THROW(j.asUInt(), JsonError);  // non-integral double
  EXPECT_DOUBLE_EQ(j.asDouble(), 3.5);
  EXPECT_EQ(Json(7.0).asUInt(), 7u);  // integral double coerces
  EXPECT_THROW(Json(-1).asUInt(), JsonError);
}

TEST(Histogram, Pow2BucketsAndMoments) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);  // empty histogram reports 0, not UINT64_MAX
  for (uint64_t v : {0ull, 1ull, 1ull, 3ull, 8ull}) h.record(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 13u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 8u);
  // Buckets: [0]=zeros, [1]=1, [2]=2-3, [3]=4-7, [4]=8-15.
  const auto& b = h.buckets();
  ASSERT_EQ(b.size(), 5u);
  EXPECT_EQ(b[0], 1u);
  EXPECT_EQ(b[1], 2u);
  EXPECT_EQ(b[2], 1u);
  EXPECT_EQ(b[3], 0u);
  EXPECT_EQ(b[4], 1u);
  Json j = h.toJson();
  EXPECT_EQ(j.at("count").asUInt(), 5u);
  EXPECT_DOUBLE_EQ(j.at("mean").asDouble(), 13.0 / 5.0);
}

TEST(PhaseTimer, RecordsScopedDurations) {
  resetPhaseTimings();
  {
    ScopedPhaseTimer t("obs-test-phase");
  }
  { ScopedPhaseTimer t("obs-test-phase"); }
  { ScopedPhaseTimer t("obs-test-earlier-name"); }
  Json j = phaseTimingsJson();
  ASSERT_EQ(j.members().size(), 1u);
  const Json& timer = j.at("timers").at("obs-test-phase");
  EXPECT_EQ(timer.at("calls").asUInt(), 2u);
  EXPECT_GE(timer.at("seconds").asDouble(), 0.0);
  // Phases are listed in first-execution order, not by name.
  const auto& phases = j.at("timers").members();
  ASSERT_EQ(phases.size(), 2u);
  EXPECT_EQ(phases[0].first, "obs-test-phase");
  EXPECT_EQ(phases[1].first, "obs-test-earlier-name");
  resetPhaseTimings();
  EXPECT_EQ(phaseTimingsJson().dump(0), "{}");
}

}  // namespace
}  // namespace essent::obs
