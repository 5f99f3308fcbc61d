#include "datalog/horn.h"

#include <gtest/gtest.h>

#include <vector>

#include "util/random.h"

namespace treeq {
namespace horn {
namespace {

TEST(HornTest, EmptyInstance) {
  HornInstance h;
  EXPECT_EQ(h.num_predicates(), 0);
  EXPECT_TRUE(h.Solve().empty());
}

TEST(HornTest, FactsOnly) {
  HornInstance h;
  PredId p = h.AddPredicates(3);
  h.AddFact(p + 1);
  std::vector<char> truth = h.Solve();
  EXPECT_EQ(truth, (std::vector<char>{0, 1, 0}));
}

// Example 3.3 of the paper after relabeling:
//   r1: 1 <- ; r2: 2 <- ; r3: 3 <- ; r4: 4 <- 1; r5: 5 <- 3,4; r6: 6 <- 2,5
TEST(HornTest, PaperExample33) {
  HornInstance h;
  h.AddPredicates(7);  // ids 0..6; the paper's atoms are 1..6
  h.AddFact(1);
  h.AddFact(2);
  h.AddFact(3);
  h.AddClause(4, {1});
  h.AddClause(5, {3, 4});
  h.AddClause(6, {2, 5});
  std::vector<PredId> order;
  std::vector<char> truth = h.Solve(&order);
  EXPECT_EQ(truth, (std::vector<char>{0, 1, 1, 1, 1, 1, 1}));
  // The paper's trace starts q = [1, 2, 3] and pops 1 first.
  ASSERT_GE(order.size(), 3u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
  EXPECT_EQ(order[2], 3);
  EXPECT_EQ(order.back(), 6);
}

TEST(HornTest, ChainDerivation) {
  HornInstance h;
  const int n = 100;
  h.AddPredicates(n);
  h.AddFact(0);
  for (int i = 1; i < n; ++i) h.AddClause(i, {i - 1});
  std::vector<char> truth = h.Solve();
  for (int i = 0; i < n; ++i) EXPECT_TRUE(truth[i]) << i;
}

TEST(HornTest, UnderivableStaysFalse) {
  HornInstance h;
  h.AddPredicates(4);
  h.AddFact(0);
  h.AddClause(1, {0, 2});  // 2 never derivable
  h.AddClause(3, {1});
  std::vector<char> truth = h.Solve();
  EXPECT_EQ(truth, (std::vector<char>{1, 0, 0, 0}));
}

TEST(HornTest, CyclicRulesDoNotBootstrap) {
  HornInstance h;
  h.AddPredicates(2);
  h.AddClause(0, {1});
  h.AddClause(1, {0});
  std::vector<char> truth = h.Solve();
  EXPECT_EQ(truth, (std::vector<char>{0, 0}));
}

TEST(HornTest, DuplicateBodyLiterals) {
  HornInstance h;
  h.AddPredicates(2);
  h.AddFact(0);
  h.AddClause(1, {0, 0});  // needs 0 "twice"
  std::vector<char> truth = h.Solve();
  EXPECT_TRUE(truth[1]);
}

TEST(HornTest, SizeInLiterals) {
  HornInstance h;
  h.AddPredicates(3);
  h.AddFact(0);
  h.AddClause(1, {0});
  h.AddClause(2, {0, 1});
  EXPECT_EQ(h.SizeInLiterals(), 1 + 2 + 3);
  EXPECT_EQ(h.num_clauses(), 3);
}

// Minimal-model property on random instances: the computed model is a model
// (every clause with a true body has a true head) and is minimal (every true
// predicate has a derivation, checked by recomputation from scratch with the
// truth assignment as the only allowed support).
TEST(HornTest, RandomInstancesComputeMinimalModels) {
  Rng rng(21);
  for (int trial = 0; trial < 50; ++trial) {
    HornInstance h;
    int preds = 2 + static_cast<int>(rng.Uniform(0, 20));
    h.AddPredicates(preds);
    int clauses = static_cast<int>(rng.Uniform(1, 40));
    std::vector<std::pair<PredId, std::vector<PredId>>> spec;
    for (int c = 0; c < clauses; ++c) {
      PredId head = static_cast<PredId>(rng.Uniform(0, preds - 1));
      std::vector<PredId> body;
      int len = static_cast<int>(rng.Uniform(0, 3));
      for (int i = 0; i < len; ++i) {
        body.push_back(static_cast<PredId>(rng.Uniform(0, preds - 1)));
      }
      spec.emplace_back(head, body);
      h.AddClause(head, body);
    }
    std::vector<char> truth = h.Solve();
    // Model check.
    for (const auto& [head, body] : spec) {
      bool body_true = true;
      for (PredId p : body) body_true = body_true && truth[p];
      if (body_true) {
        EXPECT_TRUE(truth[head]);
      }
    }
    // Minimality: iterate naive closure and compare.
    std::vector<char> closure(preds, 0);
    bool changed = true;
    while (changed) {
      changed = false;
      for (const auto& [head, body] : spec) {
        if (closure[head]) continue;
        bool body_true = true;
        for (PredId p : body) body_true = body_true && closure[p];
        if (body_true) {
          closure[head] = 1;
          changed = true;
        }
      }
    }
    EXPECT_EQ(truth, closure) << "trial " << trial;
  }
}

}  // namespace
}  // namespace horn
}  // namespace treeq
