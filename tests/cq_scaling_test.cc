// Deterministic scaling contract for the CQ kernels: on a catalog ten
// times larger, the arc-consistency fixpoint and the Figure 6 enumerator
// must do about ten times the work, not a hundred. Work is read from the
// engines' own charge units (ExecContext visits) and obs counters, never
// from wall time, so the test is exact and host-independent.
//
// The queries are the serving mix's Boolean CQ, FO sentence and k-ary CQs
// (bench_engine_throughput / perfbench), each forced onto the CQ engine
// whose scaling is under test.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "engine/plan.h"
#include "obs/stats.h"
#include "tree/generator.h"
#include "util/exec_context.h"
#include "util/random.h"

namespace treeq {
namespace engine {
namespace {

constexpr int kSmallProducts = 120;   // 1,349 nodes
constexpr int kLargeProducts = 1200;  // 13,045 nodes
// Node growth is 9.67x; allow a small constant on top of it.
constexpr double kMaxGrowth = 12.0;

DocumentPtr Catalog(int products) {
  Rng rng(7);
  CatalogOptions opts;
  opts.num_products = products;
  return MakeDocumentWithOrders(CatalogDocument(&rng, opts));
}

struct Work {
  uint64_t visits = 0;
  uint64_t words_scanned = 0;
  uint64_t propagation_rounds = 0;
};

// Runs `text` once on `doc` through the forced engine and reports the
// charge units and counters that run incremented.
Work RunForced(Language language, const std::string& text,
               const std::string& engine, const Document& doc) {
  Result<PlanPtr> plan = Plan::Compile(language, text);
  EXPECT_TRUE(plan.ok()) << text << ": " << plan.status().ToString();
  if (!plan.ok()) return {};
  ExecContext exec = ExecContext::WithVisitBudget(1ull << 62);
  ExecuteOptions options;
  options.force_route = engine;
  obs::StatsRegistry& registry = obs::StatsRegistry::Global();
  registry.Reset();
  Result<QueryResult> result = (*plan)->Execute(doc, exec, options);
  EXPECT_TRUE(result.ok()) << text << ": " << result.status().ToString();
  Work work;
  work.visits = exec.visits_used();
  work.words_scanned = registry.CounterValue("axes.words_scanned");
  work.propagation_rounds = registry.CounterValue("cq.ac.propagation_rounds");
  return work;
}

double Growth(uint64_t small, uint64_t large) {
  return static_cast<double>(large) / static_cast<double>(small);
}

class CqScalingTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    small_ = Catalog(kSmallProducts);
    large_ = Catalog(kLargeProducts);
  }
  static void TearDownTestSuite() {
    small_.reset();
    large_.reset();
  }
  static DocumentPtr small_;
  static DocumentPtr large_;
};

DocumentPtr CqScalingTest::small_;
DocumentPtr CqScalingTest::large_;

#ifndef TREEQ_OBS_DISABLED
// The direct arc-consistency fixpoint revises whole candidate sets, so the
// number of revisions depends on the query, not on the document.
TEST_F(CqScalingTest, ArcConsistencyRoundsIndependentOfDocumentSize) {
  struct Case {
    Language language;
    const char* text;
  };
  const Case cases[] = {
      {Language::kCq,
       "Q() :- Child+(x, y), Lab_product(x), Lab_rating5(y)."},
      {Language::kFo,
       "exists x . exists y . (Child(x, y) and Lab_review(x) and "
       "Lab_rating5(y))"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.text);
    Work small = RunForced(c.language, c.text, "cq.dichotomy", *small_);
    Work large = RunForced(c.language, c.text, "cq.dichotomy", *large_);
    EXPECT_GT(small.propagation_rounds, 0u);
    EXPECT_EQ(small.propagation_rounds, large.propagation_rounds);
  }
}
#endif  // TREEQ_OBS_DISABLED

const char* const kKaryQueries[] = {
    "Q(p, v) :- Child+(p, v), Child(v, s), Lab_product(p), Lab_review(v), "
    "Lab_rating5(s).",
    "Q(y) :- Child+(w, x), Child+(x, y), Lab_product(x), Lab_rating5(y).",
    "Q(b) :- Lab_rating5(b), Child+(a, b), Child+(c, a), Lab_product(a).",
};

// Yannakakis charges the reducer as one O(|Q| * n) block and the Figure 6
// enumerator one unit per partner it visits, so visits grow with n.
TEST_F(CqScalingTest, YannakakisVisitsGrowLinearly) {
  // kMaxGrowth is sized for these catalogs.
  ASSERT_EQ(small_->num_nodes(), 1349);
  ASSERT_EQ(large_->num_nodes(), 13045);
  for (const char* text : kKaryQueries) {
    SCOPED_TRACE(text);
    Work small = RunForced(Language::kCq, text, "cq.yannakakis", *small_);
    Work large = RunForced(Language::kCq, text, "cq.yannakakis", *large_);
    ASSERT_GT(small.visits, 0u);
    EXPECT_LE(Growth(small.visits, large.visits), kMaxGrowth)
        << small.visits << " -> " << large.visits;
  }
}

#ifndef TREEQ_OBS_DISABLED
// The enumerator scans only the words of each binding's axis image, so the
// scanned words grow with n rather than with n per binding.
TEST_F(CqScalingTest, YannakakisWordsScannedGrowLinearly) {
  for (const char* text : kKaryQueries) {
    SCOPED_TRACE(text);
    Work small = RunForced(Language::kCq, text, "cq.yannakakis", *small_);
    Work large = RunForced(Language::kCq, text, "cq.yannakakis", *large_);
    ASSERT_GT(small.words_scanned, 0u);
    EXPECT_LE(Growth(small.words_scanned, large.words_scanned), kMaxGrowth)
        << small.words_scanned << " -> " << large.words_scanned;
  }
}
#endif  // TREEQ_OBS_DISABLED

}  // namespace
}  // namespace engine
}  // namespace treeq
