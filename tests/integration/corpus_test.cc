// Replays every committed case in tests/integration/corpus/.
//
// Each corpus file is a fully serialized Case: a fault schedule, a recorded
// delivery order, or both, over the seeded trace workload or fixed scripts.
// Cases with an empty `violation_check` are regression guards: they encode
// runs a search once swept (or that exercised past bugs) and must replay
// clean. Cases with one named are known reproducers (a guard-off
// conservation case from the shrink pipeline, a mutation-armed
// conservation break) and must still fail exactly that check — if one goes
// quiet, the reproducer rotted and should be regenerated. The
// deterministic simulator makes each replay bit-identical, which the
// determinism test below pins.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/case.h"
#include "harness/postmortem.h"

namespace samya::harness {
namespace {

/// A replay that disagrees with its recording is exactly what the
/// post-mortem pipeline exists for: ship the run's flight history next to
/// the failure output (DESIGN.md §13).
void DumpBundleOnUnexpected(const std::filesystem::path& case_path,
                            const Case& c, const CaseResult& r) {
  const std::string out =
      (std::filesystem::temp_directory_path() /
       (case_path.stem().string() + "_postmortem.json")).string();
  const Status st =
      WritePostmortem(MakePostmortem("corpus_replay", c.ToJson(), r), out);
  if (st.ok()) {
    std::fprintf(stderr, "replay mismatch: post-mortem bundle at %s\n",
                 out.c_str());
  }
}

/// Derived artifacts (post-mortem bundles) may sit next to a case after a
/// replay; only bare case files belong to the corpus.
bool IsDerivedArtifact(const std::filesystem::path& path) {
  const std::string stem = path.stem().string();
  const char* suffix = "_postmortem";
  const size_t n = std::strlen(suffix);
  return stem.size() >= n && stem.compare(stem.size() - n, n, suffix) == 0;
}

std::vector<std::filesystem::path> CorpusFiles() {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(CORPUS_DIR)) {
    if (entry.path().extension() == ".json" &&
        !IsDerivedArtifact(entry.path())) {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

Case Load(const std::filesystem::path& path) {
  auto c = LoadCase(path.string());
  EXPECT_TRUE(c.ok()) << path << ": " << c.status().ToString();
  return c.ok() ? c.value() : Case{};
}

TEST(CorpusTest, CorpusIsNonEmpty) {
  EXPECT_GE(CorpusFiles().size(), 13u)
      << "corpus went missing from " << CORPUS_DIR;
}

TEST(CorpusTest, EveryCaseReplaysAsRecorded) {
  for (const auto& path : CorpusFiles()) {
    SCOPED_TRACE(path.filename().string());
    const Case c = Load(path);
    const CaseResult r = RunCase(c);
    EXPECT_GT(r.aggregate.TotalCommitted(), 0u);
    if (!c.scripts.empty()) {
      EXPECT_GT(r.ops_recorded, 0u);
    }
    const bool as_recorded = c.violation_check.empty()
                                 ? !r.violated()
                                 : r.Fails(c.violation_check);
    EXPECT_TRUE(as_recorded)
        << "expected " << (c.violation_check.empty() ? "a clean run"
                                                     : c.violation_check)
        << ", got " << (r.violated() ? r.failed_check : "a clean run") << ": "
        << (r.violations.empty() ? r.check.violation
                                 : r.violations.front().detail);
    if (!as_recorded) DumpBundleOnUnexpected(path, c, r);
  }
}

TEST(CorpusTest, ReplayIsDeterministic) {
  // The corpus contract: a committed case reproduces bit-identically. Two
  // back-to-back replays must agree on the event count, the protocol
  // history, every scheduling decision and every decision-context hash.
  for (const auto& path : CorpusFiles()) {
    SCOPED_TRACE(path.filename().string());
    const Case c = Load(path);
    const CaseResult a = RunCase(c);
    const CaseResult b = RunCase(c);
    EXPECT_EQ(a.events_executed, b.events_executed);
    EXPECT_EQ(a.obs->flight()->Digest(), b.obs->flight()->Digest());
    EXPECT_EQ(a.ops_recorded, b.ops_recorded);
    EXPECT_EQ(a.choices, b.choices);
    EXPECT_EQ(a.failed_check, b.failed_check);
    ASSERT_EQ(a.trace.size(), b.trace.size());
    for (size_t i = 0; i < a.trace.size(); ++i) {
      EXPECT_EQ(a.trace[i].state_hash, b.trace[i].state_hash)
          << "decision " << i;
      EXPECT_EQ(a.trace[i].num_candidates, b.trace[i].num_candidates);
    }
  }
}

TEST(CorpusTest, CorpusFilesAreCanonical) {
  // Committed files are exactly what `WriteCase` writes for the case they
  // hold, so regenerating a case produces a minimal diff.
  for (const auto& path : CorpusFiles()) {
    SCOPED_TRACE(path.filename().string());
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    EXPECT_EQ(text.str(), JsonDump(Load(path).ToJson(), /*indent=*/2));
  }
}

}  // namespace
}  // namespace samya::harness
