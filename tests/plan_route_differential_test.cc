// Differential tests for the logical plan layer (src/plan/): a corpus of
// queries each expressed in two or more languages must (a) canonicalize
// to identical 128-bit hashes, (b) produce bit-identical QueryResults on
// every document, and (c) produce the same answer under every forced
// route (ExecuteOptions::force_route) the plan declares eligible. The
// cache-sharing acceptance criterion — same-semantics queries in
// different dialects share one PlanCache entry and one ResultCache entry
// — is asserted through the caches' own tallies.
//
// Corpus notes: XPath is root-anchored, so `//a` can never match the
// document root; the faithful CQ/datalog phrasing adds an explicit
// ancestor variable (`Child+(w, x)` with w unconstrained) to assert "x
// has some ancestor" ⇔ "x is not the root". FO participates only at
// arity 0 (sentences).

#include "engine/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "obs/stats.h"
#include "plan/cost.h"
#include "plan/route.h"
#include "tree/generator.h"
#include "util/random.h"

namespace treeq {
namespace engine {
namespace {

DocumentPtr Catalog(int seed = 1, int products = 20) {
  Rng rng(static_cast<uint64_t>(seed));
  CatalogOptions opts;
  opts.num_products = products;
  return MakeDocumentWithOrders(CatalogDocument(&rng, opts));
}

DocumentPtr Random(int seed, int nodes) {
  Rng rng(static_cast<uint64_t>(seed));
  RandomTreeOptions opts;
  opts.num_nodes = nodes;
  return MakeDocumentWithOrders(RandomTree(&rng, opts));
}

struct Dialect {
  Language language;
  const char* text;
};

struct CorpusEntry {
  const char* name;
  std::vector<Dialect> dialects;
};

// Every entry's dialects are semantically identical queries; the first
// dialect is the reference.
const std::vector<CorpusEntry>& Corpus() {
  static const std::vector<CorpusEntry> corpus = {
      {"descendant-chain",
       {{Language::kXPath, "//product//rating5"},
        {Language::kCq,
         "Q(y) :- Child+(w, x), Child+(x, y), Lab_product(x), "
         "Lab_rating5(y)."},
        // Same CQ, renamed variables and shuffled atoms.
        {Language::kCq,
         "Q(b) :- Lab_rating5(b), Child+(a, b), Child+(c, a), "
         "Lab_product(a)."},
        {Language::kDatalog,
         "Q(y) :- Child+(w, x), Child+(x, y), Lab_product(x), "
         "Lab_rating5(y). ?- Q."}}},
      {"child-step",
       {{Language::kXPath, "//product/name"},
        {Language::kCq,
         "Q(n) :- Child+(r, p), Child(p, n), Lab_product(p), Lab_name(n)."},
        {Language::kDatalog,
         "Q(n) :- Child+(r, p), Child(p, n), Lab_product(p), Lab_name(n). "
         "?- Q."}}},
      {"boolean-label",
       {{Language::kFo, "exists x . Lab_name(x)"},
        {Language::kCq, "Q() :- Lab_name(x)."}}},
      {"boolean-desc-pair",
       {{Language::kFo,
         "exists x . exists y . (Child+(x, y) and Lab_product(x) and "
         "Lab_rating5(y))"},
        {Language::kCq,
         "Q() :- Child+(x, y), Lab_product(x), Lab_rating5(y)."}}},
      // The CQ repeats one edge as Child and Parent; canonicalization
      // folds it into a tree, but the CQ's own query (the form its
      // engines run on) is not one, so cq.yannakakis is not eligible.
      {"boolean-repeated-edge",
       {{Language::kFo,
         "exists x . exists y . (Child(x, y) and Lab_product(x))"},
        {Language::kCq,
         "Q() :- Child(x, y), Parent(y, x), Lab_product(x)."}}},
      {"binary-tuples",
       {{Language::kCq,
         "Q(p, r) :- Child+(w, p), Child+(p, r), Lab_product(p), "
         "Lab_review(r)."},
        {Language::kCq,
         "Q(a, b) :- Child+(c, a), Lab_review(b), Child+(a, b), "
         "Lab_product(a)."}}},
      // Every variable labeled: eligible for the twig engines
      // (cq.twigstack, cq.structural_joins) as well as Yannakakis.
      {"labeled-child-pair",
       {{Language::kCq,
         "Q(p, n) :- Child(p, n), Lab_product(p), Lab_name(n)."},
        {Language::kCq,
         "Q(x, y) :- Lab_name(y), Lab_product(x), Child(x, y)."}}},
  };
  return corpus;
}

std::vector<PlanPtr> CompileAll(const CorpusEntry& entry) {
  std::vector<PlanPtr> plans;
  for (const Dialect& d : entry.dialects) {
    Result<PlanPtr> plan = Plan::Compile(d.language, d.text);
    EXPECT_TRUE(plan.ok()) << entry.name << ": " << d.text << ": "
                           << plan.status().ToString();
    if (plan.ok()) plans.push_back(std::move(plan).value());
  }
  return plans;
}

TEST(PlanRouteDifferentialTest, DialectsShareOneCanonicalHash) {
  for (const CorpusEntry& entry : Corpus()) {
    SCOPED_TRACE(entry.name);
    std::vector<PlanPtr> plans = CompileAll(entry);
    ASSERT_EQ(plans.size(), entry.dialects.size());
    for (size_t i = 1; i < plans.size(); ++i) {
      EXPECT_EQ(plans[0]->ir().Render(), plans[i]->ir().Render())
          << entry.dialects[i].text;
      EXPECT_TRUE(plans[0]->canonical_hash() == plans[i]->canonical_hash())
          << entry.dialects[i].text << " hashed "
          << plans[i]->canonical_hash().ToHex() << " vs reference "
          << plans[0]->canonical_hash().ToHex();
    }
  }
}

TEST(PlanRouteDifferentialTest, DialectsProduceBitIdenticalResults) {
  std::vector<DocumentPtr> docs = {Catalog(1), Catalog(7, 3),
                                   Random(11, 200)};
  for (const CorpusEntry& entry : Corpus()) {
    SCOPED_TRACE(entry.name);
    std::vector<PlanPtr> plans = CompileAll(entry);
    ASSERT_EQ(plans.size(), entry.dialects.size());
    for (const DocumentPtr& doc : docs) {
      Result<QueryResult> want = plans[0]->Execute(*doc);
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      for (size_t i = 1; i < plans.size(); ++i) {
        Result<QueryResult> got = plans[i]->Execute(*doc);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        EXPECT_EQ(got->value, want->value)
            << entry.dialects[i].text << " on " << doc->name();
      }
    }
  }
}

// Every engine the plan declares eligible must answer with the same
// value the router's pick produced — the router can only change cost,
// never the answer.
TEST(PlanRouteDifferentialTest, EveryForcedRouteAgreesWithTheRouter) {
  std::vector<DocumentPtr> docs = {Catalog(1), Random(13, 150)};
  ExecContext unbounded;
  for (const CorpusEntry& entry : Corpus()) {
    SCOPED_TRACE(entry.name);
    for (const Dialect& d : entry.dialects) {
      PlanPtr plan = Plan::Compile(d.language, d.text).value();
      ASSERT_FALSE(plan->EligibleEngines().empty()) << d.text;
      for (const DocumentPtr& doc : docs) {
        Result<QueryResult> routed = plan->Execute(*doc);
        ASSERT_TRUE(routed.ok()) << routed.status().ToString();
        for (plan::EngineKind kind : plan->EligibleEngines()) {
          ExecuteOptions options;
          options.force_route = plan::EngineName(kind);
          Result<QueryResult> forced =
              plan->Execute(*doc, unbounded, options);
          ASSERT_TRUE(forced.ok())
              << d.text << " forced to " << options.force_route << ": "
              << forced.status().ToString();
          EXPECT_EQ(forced->value, routed->value)
              << d.text << " forced to " << options.force_route << " on "
              << doc->name();
        }
      }
    }
  }
}

// One routing decision: a budget-bounded request takes the same route as
// an unbounded one (the budget only limits it), and ExplainRouting's
// cheapest candidate is that route.
TEST(PlanRouteDifferentialTest, BoundedRequestsTakeTheRoutedEngine) {
  std::vector<DocumentPtr> docs = {Catalog(1), Catalog(7, 3),
                                   Random(11, 200)};
  for (const CorpusEntry& entry : Corpus()) {
    SCOPED_TRACE(entry.name);
    for (const Dialect& d : entry.dialects) {
      PlanPtr plan = Plan::Compile(d.language, d.text).value();
      for (const DocumentPtr& doc : docs) {
        Result<QueryResult> unbounded = plan->Execute(*doc);
        ASSERT_TRUE(unbounded.ok()) << unbounded.status().ToString();
        ExecContext budget = ExecContext::WithVisitBudget(UINT64_MAX - 1);
        Result<QueryResult> bounded = plan->Execute(*doc, budget);
        ASSERT_TRUE(bounded.ok()) << bounded.status().ToString();
        EXPECT_EQ(std::string(bounded->engine), unbounded->engine)
            << d.text << " on " << doc->name();
        EXPECT_EQ(bounded->value, unbounded->value)
            << d.text << " on " << doc->name();

        // "routing n=<nodes>: <engine>=<cost>[*] ..."
        const std::string table = plan->ExplainRouting(*doc);
        const size_t begin = table.find(": ");
        ASSERT_NE(begin, std::string::npos) << table;
        const size_t end = table.find('=', begin);
        ASSERT_NE(end, std::string::npos) << table;
        const std::string first = table.substr(begin + 2, end - begin - 2);
        EXPECT_EQ(plan::ParseEngineName(first),
                  plan::ParseEngineName(unbounded->engine))
            << d.text << " on " << doc->name() << ": " << table << " vs "
            << unbounded->engine;
      }
    }
  }
}

TEST(PlanRouteDifferentialTest, ForceRouteRejectsUnknownAndIneligible) {
  PlanPtr plan = Plan::Compile(Language::kXPath, "//name").value();
  DocumentPtr doc = Catalog(1, 3);
  ExecContext unbounded;
  ExecuteOptions options;
  options.force_route = "no.such.engine";
  Result<QueryResult> unknown = plan->Execute(*doc, unbounded, options);
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kInvalidArgument);
  // A real engine name that this plan never declared eligible.
  options.force_route = "fo.naive";
  Result<QueryResult> ineligible = plan->Execute(*doc, unbounded, options);
  ASSERT_FALSE(ineligible.ok());
  EXPECT_EQ(ineligible.status().code(), StatusCode::kUnsupported);
}

// The acceptance criterion: one canonical hash ⇒ one PlanCache entry.
// The second dialect's compile lands on the resident hash and is aliased
// onto the existing entry instead of occupying a second slot.
TEST(PlanRouteDifferentialTest, DialectsShareOnePlanCacheEntry) {
  const CorpusEntry& entry = Corpus()[0];  // descendant-chain, 4 dialects
  PlanCache cache(8);
  for (const Dialect& d : entry.dialects) {
    ASSERT_TRUE(cache.GetOrCompile(d.language, d.text).ok()) << d.text;
  }
  EXPECT_EQ(cache.size(), 1u) << "all dialects must share one entry";
  EXPECT_EQ(cache.misses(), entry.dialects.size());
  EXPECT_EQ(cache.canonical_hits(), entry.dialects.size() - 1);
  // Re-submitting any dialect's text is now a plain hit.
  uint64_t hits_before = cache.hits();
  for (const Dialect& d : entry.dialects) {
    bool hit = false;
    ASSERT_TRUE(cache.GetOrCompile(d.language, d.text, &hit).ok());
    EXPECT_TRUE(hit) << d.text;
  }
  EXPECT_EQ(cache.hits(), hits_before + entry.dialects.size());
}

// One canonical hash ⇒ one ResultCache entry and one execution: the
// second dialect's submission is served from the cache without running.
TEST(PlanRouteDifferentialTest, DialectsShareOneResultCacheEntry) {
  DocumentPtr doc = Catalog(1);
  cache::ResultCache result_cache;
  Executor exec(Executor::Options{.num_workers = 1,
                                  .result_cache = &result_cache});
  const CorpusEntry& entry = Corpus()[0];
  std::vector<PlanPtr> plans = CompileAll(entry);
  ASSERT_EQ(plans.size(), entry.dialects.size());

  Result<QueryResult> first = exec.Submit({plans[0], doc, {}}).future.get();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(result_cache.inserts(), 1u);
  for (size_t i = 1; i < plans.size(); ++i) {
    Result<QueryResult> cached =
        exec.Submit({plans[i], doc, {}}).future.get();
    ASSERT_TRUE(cached.ok()) << cached.status().ToString();
    EXPECT_EQ(cached->value, first->value) << entry.dialects[i].text;
  }
  EXPECT_EQ(result_cache.hits(), entry.dialects.size() - 1)
      << "every other dialect must be served from the shared entry";
  EXPECT_EQ(result_cache.inserts(), 1u);
  EXPECT_EQ(result_cache.size(), 1u);
}

// Routed runs report a rationale; forced runs say so.
TEST(PlanRouteDifferentialTest, ResultsCarryRouteRationale) {
  DocumentPtr doc = Catalog(1);
  PlanPtr plan = Plan::Compile(Language::kXPath, "//name").value();
  QueryResult routed = plan->Execute(*doc).value();
  EXPECT_FALSE(routed.route_rationale.empty());
  EXPECT_NE(routed.route_rationale.find("cost="), std::string::npos);
  ExecContext unbounded;
  ExecuteOptions options;
  options.force_route = "xpath.naive";
  QueryResult forced = plan->Execute(*doc, unbounded, options).value();
  EXPECT_EQ(forced.route_rationale, "forced: xpath.naive");
  EXPECT_EQ(std::string(forced.engine), "xpath.naive");
}

// The engine table (plan/cost.cc): one row per EngineKind, whose label
// round-trips through ParseEngineName and names its route counter.
constexpr plan::EngineKind kAllEngines[] = {
    plan::EngineKind::kXPathSetAtATime, plan::EngineKind::kXPathNaive,
    plan::EngineKind::kXPathStream,     plan::EngineKind::kTwigStack,
    plan::EngineKind::kStructuralJoins, plan::EngineKind::kYannakakis,
    plan::EngineKind::kDichotomy,       plan::EngineKind::kDatalogTmnf,
    plan::EngineKind::kFoCorollary52,   plan::EngineKind::kFoNaive,
};

TEST(EngineTableTest, LabelsAreDistinctAndRoundTrip) {
  std::set<std::string> labels;
  for (plan::EngineKind kind : kAllEngines) {
    const std::string label = plan::EngineName(kind);
    EXPECT_EQ(plan::ParseEngineName(label), kind) << label;
    EXPECT_TRUE(labels.insert(label).second) << "duplicate label " << label;
  }
  EXPECT_EQ(plan::ParseEngineName("cq.x_property"),
            plan::EngineKind::kDichotomy);
  EXPECT_EQ(plan::ParseEngineName("cq.backtracking"),
            plan::EngineKind::kDichotomy);
}

#ifndef TREEQ_OBS_DISABLED
TEST(EngineTableTest, RouteCountsTheChosenEnginesCounter) {
  DocumentPtr doc = Catalog(1, 3);
  const plan::DocStats stats = plan::DocStats::For(*doc);
  PlanPtr compiled = Plan::Compile(Language::kXPath, "//name").value();
  obs::StatsRegistry& registry = obs::StatsRegistry::Global();
  for (plan::EngineKind kind : kAllEngines) {
    std::string leaf = plan::EngineName(kind);
    std::replace(leaf.begin(), leaf.end(), '.', '_');
    const std::string counter = "plan.route." + leaf;
    const uint64_t before = registry.CounterValue(counter);
    plan::RouteDecision decision =
        plan::Route(compiled->ir(), {kind}, kind, stats);
    EXPECT_EQ(decision.chosen, kind);
    EXPECT_EQ(registry.CounterValue(counter), before + 1) << counter;
  }
}
#endif  // TREEQ_OBS_DISABLED

// A forced cq.dichotomy reports its canonical label on a plan from
// another language, and on a CQ plan the path the dichotomy took over
// the CQ's own query (the NP-hard spelling's IR is a chain, which the
// X-property path would take).
TEST(EngineTableTest, ForcedDichotomyReportsItsLabelPerLanguage) {
  DocumentPtr doc = Catalog(1, 3);
  ExecContext unbounded;
  ExecuteOptions options;
  options.force_route = "cq.dichotomy";
  struct Case {
    Language language;
    const char* text;
    const char* engine;
  };
  const Case cases[] = {
      {Language::kFo,
       "exists x . exists y . (Child+(x, y) and Lab_product(x) and "
       "Lab_rating5(y))",
       "cq.dichotomy"},
      {Language::kCq, "Q() :- Child+(x, y), Lab_product(x), Lab_rating5(y).",
       "cq.x_property"},
      {Language::kCq, "Q() :- Child(x, y), Child(y, z), Child+(x, z).",
       "cq.backtracking"},
  };
  for (const Case& c : cases) {
    PlanPtr compiled = Plan::Compile(c.language, c.text).value();
    Result<QueryResult> forced = compiled->Execute(*doc, unbounded, options);
    ASSERT_TRUE(forced.ok()) << c.text << ": " << forced.status().ToString();
    EXPECT_EQ(std::string(forced->engine), c.engine) << c.text;
  }
}

}  // namespace
}  // namespace engine
}  // namespace treeq
