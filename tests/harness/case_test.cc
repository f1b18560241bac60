#include "harness/case.h"

#include <gtest/gtest.h>

#include <vector>

namespace samya::harness {
namespace {

using workload::Request;

/// A case with every field away from its default.
Case FullCase() {
  Case c = MakeNemesisCase(SystemKind::kSamyaAny, /*seed=*/9,
                           /*intensity=*/1.5, /*num_sites=*/7,
                           /*isolate=*/2.0, /*disconnected_mode=*/true);
  c.max_tokens = 77;
  c.duration = Seconds(12);
  c.scripts = {{Request{Millis(10), Request::Type::kAcquire, 3},
                Request{Millis(20), Request::Type::kRelease, 2}},
               {},
               {Request{Millis(30), Request::Type::kRead, 1}}};
  c.schedule.ops.push_back({Seconds(5), sim::FaultOp::Kind::kIsolateSite, 2,
                            sim::kInvalidNode, 0.0, {{2, 9, 14}}});
  c.quiescence_guard = false;
  c.window = Millis(7);
  c.choices = {0, 2, 1, 0, 3};
  c.mutation = "alloc_remainder";
  c.violation_check = "conservation";
  c.note = "round trip";
  return c;
}

TEST(CaseTest, JsonRoundTripsEveryField) {
  const Case c = FullCase();
  auto parsed = Case::FromJson(JsonParse(JsonDump(c.ToJson(), 2)).value());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Case& d = parsed.value();
  EXPECT_EQ(d.system, c.system);
  EXPECT_EQ(d.seed, c.seed);
  EXPECT_EQ(d.num_sites, c.num_sites);
  EXPECT_EQ(d.max_tokens, c.max_tokens);
  EXPECT_EQ(d.duration, c.duration);
  ASSERT_EQ(d.scripts.size(), c.scripts.size());
  for (size_t r = 0; r < c.scripts.size(); ++r) {
    ASSERT_EQ(d.scripts[r].size(), c.scripts[r].size()) << "region " << r;
    for (size_t i = 0; i < c.scripts[r].size(); ++i) {
      EXPECT_EQ(d.scripts[r][i].at, c.scripts[r][i].at);
      EXPECT_EQ(d.scripts[r][i].type, c.scripts[r][i].type);
      EXPECT_EQ(d.scripts[r][i].amount, c.scripts[r][i].amount);
    }
  }
  EXPECT_EQ(d.scripts[0][0].amount, 3);
  ASSERT_EQ(d.schedule.size(), c.schedule.size());
  for (size_t i = 0; i < c.schedule.size(); ++i) {
    EXPECT_EQ(d.schedule.ops[i], c.schedule.ops[i]) << "op " << i;
  }
  EXPECT_EQ(d.schedule.ops.back().groups,
            (std::vector<std::vector<sim::NodeId>>{{2, 9, 14}}));
  EXPECT_EQ(d.quiescence_guard, c.quiescence_guard);
  EXPECT_EQ(d.disconnected_mode, c.disconnected_mode);
  EXPECT_EQ(d.window, c.window);
  EXPECT_EQ(d.choices, c.choices);
  EXPECT_EQ(d.mutation, c.mutation);
  EXPECT_EQ(d.violation_check, c.violation_check);
  EXPECT_EQ(d.note, c.note);
  // And the document itself is a fixed point.
  EXPECT_EQ(JsonDump(d.ToJson(), 2), JsonDump(c.ToJson(), 2));
}

TEST(CaseTest, DefaultsOmitOptionalFields) {
  // Absent scripts mean the seeded trace workload; absent schedule and
  // choices mean no faults and FIFO delivery.
  const JsonValue doc = Case{}.ToJson();
  EXPECT_EQ(doc.Find("scripts"), nullptr);
  EXPECT_EQ(doc.Find("schedule"), nullptr);
  EXPECT_EQ(doc.Find("choices"), nullptr);
  auto parsed = Case::FromJson(doc);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().scripts.empty());
  EXPECT_TRUE(parsed.value().schedule.empty());
  EXPECT_TRUE(parsed.value().quiescence_guard);
}

TEST(CaseTest, RejectsSiteCountBelowOne) {
  for (int n : {0, -3}) {
    Case c;
    c.num_sites = n;
    auto parsed = Case::FromJson(c.ToJson());
    ASSERT_FALSE(parsed.ok()) << n;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(CaseTest, RejectsMoreScriptsThanClientRegions) {
  Case c = ContentionCase(SystemKind::kSamyaMajority);
  c.scripts.resize(5);
  ASSERT_TRUE(Case::FromJson(c.ToJson()).ok());
  c.scripts.resize(6);
  auto parsed = Case::FromJson(c.ToJson());
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

TEST(CaseTest, RejectsUnknownFormatSystemOpTypeAndChoice) {
  for (const char* text : {
           R"({"format": "samya-chaos-case-v1", "system": "samya_any"})",
           R"({"format": "samya-case-v1", "system": "nope"})",
           R"({"format": "samya-case-v1", "system": "samya_any",
               "scripts": [[{"at_us": 1, "type": "steal", "amount": 1}]]})",
           R"({"format": "samya-case-v1", "system": "samya_any",
               "choices": [0, -1]})"}) {
    auto doc = JsonParse(text);
    ASSERT_TRUE(doc.ok()) << text;
    EXPECT_FALSE(Case::FromJson(doc.value()).ok()) << text;
  }
}

TEST(DdminTest, FindsOneMinimalSubsetWithinBudget) {
  // Fails iff both 3 and 7 survive: ddmin must peel everything else away.
  std::vector<int> items;
  for (int i = 0; i < 20; ++i) items.push_back(i);
  const auto fails = [](const std::vector<int>& v) {
    bool has3 = false, has7 = false;
    for (int x : v) {
      has3 = has3 || x == 3;
      has7 = has7 || x == 7;
    }
    return has3 && has7;
  };
  int runs = 0;
  EXPECT_EQ(Ddmin(items, fails, /*max_runs=*/200, &runs),
            (std::vector<int>{3, 7}));
  EXPECT_GT(runs, 0);
  EXPECT_LE(runs, 200);

  // A spent budget returns the input untouched.
  int spent = 5;
  EXPECT_EQ(Ddmin(items, fails, /*max_runs=*/5, &spent), items);
  EXPECT_EQ(spent, 5);
}

}  // namespace
}  // namespace samya::harness
