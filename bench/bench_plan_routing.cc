// Cost-based router payoff: per-query wall time of the routed execution
// path (Plan::Execute picks the cheapest eligible engine) against the same
// plan pinned to the worst eligible engine (force_route="xpath.naive",
// the O(|Q|*|D|^2) baseline every XPath plan can fall back to), plus the
// router's own overhead against a pinned native engine. The --json record
// carries the two headline numbers CI gates:
//
//   router_vs_naive_speedup   total naive wall / total routed wall — the
//                             router must beat the worst engine by a wide
//                             margin (gated >= 3x);
//   router_overhead_ratio     routed qps / forced-native qps — picking an
//                             engine per request costs a table of cost
//                             formulas, not an evaluation (gated > 0.85).
//
// Those two run over XPath queries only, the language that keeps
// xpath.naive eligible. The third gate covers all four languages: each
// XPath query, plus Boolean CQ, k-ary CQ, datalog and FO spellings of
// bench_engine_throughput's mix, is also forced onto each eligible engine:
//
//   regret                    (per row) routed wall / best forced wall,
//                             over every eligible engine except the
//                             xpath.naive and fo.naive paper baselines;
//   route_regret_max          the worst row — a misroute shows as a row
//                             far above 1 (gated <= 10);
//   route_regret_geomean      the geometric mean over the rows.
//
// The regret rows run at two catalog sizes: the 120-product corpus the
// other two gates use, and one 1,200-product catalog (~13k nodes), where a
// super-linear pick shows as a large regret. xpath.naive is n^2, so the
// naive and native gates stay on the small corpus.
//
// Per-query rows record the wall times, the catalog size (`products`) and
// which engine the router chose (engine_index is the position in the
// plan's EligibleEngines() list, 0 = native), so a regression in one
// query's routing is visible in the JSON diff, not just the aggregate.

#include <benchmark/benchmark.h>

#include "bench_json.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "plan/cost.h"
#include "tree/generator.h"
#include "util/random.h"

namespace {

using treeq::ExecContext;
using treeq::Language;
using treeq::engine::DocumentStore;
using treeq::engine::ExecuteOptions;
using treeq::engine::Plan;
using treeq::engine::PlanPtr;
using treeq::engine::QueryResult;

// XPath-only workload: every XPath plan keeps xpath.naive eligible, so
// the forced-worst-engine comparison is well-defined for each entry. The
// mix spans the router's decision space: structural descendant chains
// (stream/set-at-a-time/Yannakakis candidates), a child step, and a
// qualifier query that lowers opaquely (router choice collapses to
// set-at-a-time vs naive).
constexpr const char* kQueries[] = {
    "//product//rating5",
    "//review/rating5",
    "//product/name",
    "/catalog/product/reviews/review",
    "/catalog/product[reviews/review]/name",
};
constexpr int kNumQueries = static_cast<int>(std::size(kQueries));

struct LanguageQuery {
  Language language;
  const char* text;
};

// The non-XPath queries of bench_engine_throughput's mix: a Boolean CQ, a
// k-ary CQ, a datalog program and a positive FO sentence. They only enter
// the regret gate (no xpath.naive to compare against).
constexpr LanguageQuery kOtherLanguageQueries[] = {
    {Language::kCq, "Q() :- Child+(x, y), Lab_product(x), Lab_rating1(y)."},
    {Language::kCq, "Q(p, r) :- Child+(p, r), Lab_product(p), Lab_review(r)."},
    {Language::kDatalog,
     "Good(x) :- Lab_rating5(x).\nHasGood(x) :- Child(x, y), Good(y).\n"
     "?- HasGood."},
    {Language::kFo,
     "exists x . exists y . (Child(x, y) and Lab_review(x) and "
     "Lab_rating5(y))"},
};

constexpr int kNumDocuments = 4;
constexpr int kProductsPerDocument = 120;
constexpr int kRepeats = 5;  // timed evaluations per (query, doc, mode)
constexpr int kLargeProducts = 1200;  // the regret-only large catalog

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void BuildCorpus(DocumentStore* store, int num_documents = kNumDocuments,
                 int products = kProductsPerDocument) {
  for (int d = 0; d < num_documents; ++d) {
    treeq::Rng rng(static_cast<uint64_t>(2000 + d));
    treeq::CatalogOptions opts;
    opts.num_products = products;
    auto added = store->Add("catalog" + std::to_string(d),
                            treeq::CatalogDocument(&rng, opts));
    TREEQ_CHECK(added.ok());
  }
}

/// Total wall time of kRepeats evaluations of `plan` over every document,
/// with `force` pinning an engine ("" = let the router decide). Checks
/// every result and returns the name of the engine that answered the last
/// evaluation through `engine_out`.
uint64_t MeasureWallNs(const PlanPtr& plan, const DocumentStore& store,
                       const std::string& force, std::string* engine_out) {
  ExecContext unbounded;
  ExecuteOptions options;
  options.force_route = force;
  uint64_t total = 0;
  for (int rep = 0; rep < kRepeats; ++rep) {
    for (const std::string& name : store.Names()) {
      treeq::DocumentPtr doc = store.Get(name).value();
      uint64_t start = NowNs();
      treeq::Result<QueryResult> r = plan->Execute(*doc, unbounded, options);
      total += NowNs() - start;
      TREEQ_CHECK(r.ok());
      benchmark::DoNotOptimize(r->engine);
      if (engine_out != nullptr) *engine_out = r->engine;
    }
  }
  return total;
}

/// One regret row: the routed wall time and the best forced wall time over
/// `plan`'s eligible engines, skipping the xpath.naive and fo.naive
/// baselines. Each mode's time is the fastest of kRegretRounds rounds that
/// interleave all modes, so warm-up and drift land on every mode alike.
struct RegretRow {
  uint64_t routed_ns = UINT64_MAX;
  uint64_t best_ns = UINT64_MAX;
  std::string best_engine;
};

constexpr int kRegretRounds = 3;

RegretRow MeasureRegret(const PlanPtr& plan, const DocumentStore& store) {
  std::vector<std::string> forced;
  for (treeq::plan::EngineKind kind : plan->EligibleEngines()) {
    if (kind != treeq::plan::EngineKind::kXPathNaive &&
        kind != treeq::plan::EngineKind::kFoNaive) {
      forced.push_back(treeq::plan::EngineName(kind));
    }
  }
  std::vector<uint64_t> forced_ns(forced.size(), UINT64_MAX);
  RegretRow row;
  for (int round = 0; round < kRegretRounds; ++round) {
    row.routed_ns =
        std::min(row.routed_ns, MeasureWallNs(plan, store, "", nullptr));
    for (size_t e = 0; e < forced.size(); ++e) {
      forced_ns[e] = std::min(forced_ns[e],
                              MeasureWallNs(plan, store, forced[e], nullptr));
    }
  }
  for (size_t e = 0; e < forced.size(); ++e) {
    if (forced_ns[e] < row.best_ns) {
      row.best_ns = forced_ns[e];
      row.best_engine = forced[e];
    }
  }
  return row;
}

/// Running max and geometric mean of the per-row regrets.
struct RegretTally {
  double max = 0;
  double log_sum = 0;
  int rows = 0;

  double Add(uint64_t routed_ns, uint64_t best_ns) {
    const double regret =
        static_cast<double>(routed_ns) / static_cast<double>(best_ns);
    max = std::max(max, regret);
    log_sum += std::log(regret);
    ++rows;
    return regret;
  }
  double geomean() const { return std::exp(log_sum / rows); }
};

/// Position of `engine` in `plan`'s EligibleEngines() (0 = native).
int EngineIndex(const PlanPtr& plan, const std::string& engine) {
  const std::vector<treeq::plan::EngineKind>& eligible =
      plan->EligibleEngines();
  for (size_t e = 0; e < eligible.size(); ++e) {
    if (treeq::plan::ParseEngineName(engine) == eligible[e]) {
      return static_cast<int>(e);
    }
  }
  return -1;
}

/// One regret-only row (no naive or native comparison) for `query` over
/// `store`, a corpus of `products`-product catalogs: printed, tallied, and
/// recorded with the catalog size.
void RegretOnlyRow(const LanguageQuery& query, int query_index,
                   const DocumentStore& store, int products,
                   RegretTally* regret, treeq::benchjson::Record* record) {
  auto compiled = Plan::Compile(query.language, query.text);
  TREEQ_CHECK(compiled.ok());
  PlanPtr plan = std::move(compiled).value();
  std::string routed_engine;
  (void)MeasureWallNs(plan, store, "", &routed_engine);  // warm-up
  const RegretRow regret_row = MeasureRegret(plan, store);
  const double row_regret =
      regret->Add(regret_row.routed_ns, regret_row.best_ns);
  const int engine_index = EngineIndex(plan, routed_engine);
  TREEQ_CHECK(engine_index >= 0);

  std::printf("%5d products  %-8s q%d routed=%-20s %8.2f ms   best %-20s "
              "%8.2f ms   regret %.2f\n",
              products, treeq::LanguageName(query.language), query_index,
              routed_engine.c_str(),
              static_cast<double>(regret_row.routed_ns) / 1e6,
              regret_row.best_engine.c_str(),
              static_cast<double>(regret_row.best_ns) / 1e6, row_regret);
  if (record != nullptr) {
    record->AddRow(
        {{"query_index", static_cast<double>(query_index)},
         {"products", static_cast<double>(products)},
         {"engine_index", static_cast<double>(engine_index)},
         {"eligible_engines",
          static_cast<double>(plan->EligibleEngines().size())},
         {"regret_routed_wall_ns", static_cast<double>(regret_row.routed_ns)},
         {"best_forced_wall_ns", static_cast<double>(regret_row.best_ns)},
         {"regret", row_regret}});
  }
}

void RunRoutingBench(treeq::benchjson::Record* record) {
  DocumentStore store;
  BuildCorpus(&store);
  DocumentStore large;
  BuildCorpus(&large, /*num_documents=*/1, kLargeProducts);

  std::printf("=== cost-based router vs forced engines ===\n");
  std::printf("corpus: %d catalog documents, %d products each; "
              "%d evaluations per (query, mode); regret rows also on one "
              "%d-product catalog\n\n",
              kNumDocuments, kProductsPerDocument,
              kRepeats * kNumDocuments, kLargeProducts);

  uint64_t routed_total_ns = 0;
  uint64_t naive_total_ns = 0;
  uint64_t native_total_ns = 0;
  RegretTally regret;
  for (int q = 0; q < kNumQueries; ++q) {
    auto compiled = Plan::Compile(Language::kXPath, kQueries[q]);
    TREEQ_CHECK(compiled.ok());
    PlanPtr plan = std::move(compiled).value();

    // Untimed warm-up so first-touch effects (axis tables, page faults)
    // don't land on whichever mode happens to run first.
    (void)MeasureWallNs(plan, store, "", nullptr);

    std::string routed_engine;
    const uint64_t routed_ns =
        MeasureWallNs(plan, store, "", &routed_engine);
    const uint64_t naive_ns =
        MeasureWallNs(plan, store, "xpath.naive", nullptr);
    const uint64_t native_ns = MeasureWallNs(
        plan, store, treeq::plan::EngineName(plan->NativeEngine()), nullptr);
    const RegretRow regret_row = MeasureRegret(plan, store);
    routed_total_ns += routed_ns;
    naive_total_ns += naive_ns;
    native_total_ns += native_ns;
    const double row_regret =
        regret.Add(regret_row.routed_ns, regret_row.best_ns);

    const int engine_index = EngineIndex(plan, routed_engine);
    TREEQ_CHECK(engine_index >= 0);

    std::printf("%-40s routed=%-20s %8.2f ms   naive %8.2f ms (%6.1fx)   "
                "native %8.2f ms   regret %.2f (best %s)\n",
                kQueries[q], routed_engine.c_str(),
                static_cast<double>(routed_ns) / 1e6,
                static_cast<double>(naive_ns) / 1e6,
                static_cast<double>(naive_ns) /
                    static_cast<double>(routed_ns),
                static_cast<double>(native_ns) / 1e6, row_regret,
                regret_row.best_engine.c_str());
    if (record != nullptr) {
      record->AddRow(
          {{"query_index", static_cast<double>(q)},
           {"products", static_cast<double>(kProductsPerDocument)},
           {"engine_index", static_cast<double>(engine_index)},
           {"eligible_engines",
            static_cast<double>(plan->EligibleEngines().size())},
           {"routed_wall_ns", static_cast<double>(routed_ns)},
           {"naive_wall_ns", static_cast<double>(naive_ns)},
           {"native_wall_ns", static_cast<double>(native_ns)},
           {"naive_vs_routed",
            static_cast<double>(naive_ns) / static_cast<double>(routed_ns)},
           {"regret_routed_wall_ns",
            static_cast<double>(regret_row.routed_ns)},
           {"best_forced_wall_ns", static_cast<double>(regret_row.best_ns)},
           {"regret", row_regret}});
    }
  }

  // The XPath queries' small-corpus regret rows came from the loop above;
  // add the other spellings on the small corpus, then all nine queries on
  // the large catalog.
  std::vector<LanguageQuery> all_queries;
  for (const char* text : kQueries) {
    all_queries.push_back({Language::kXPath, text});
  }
  all_queries.insert(all_queries.end(), std::begin(kOtherLanguageQueries),
                     std::end(kOtherLanguageQueries));
  for (int q = kNumQueries; q < static_cast<int>(all_queries.size()); ++q) {
    RegretOnlyRow(all_queries[q], q, store, kProductsPerDocument, &regret,
                  record);
  }
  for (int q = 0; q < static_cast<int>(all_queries.size()); ++q) {
    RegretOnlyRow(all_queries[q], q, large, kLargeProducts, &regret, record);
  }

  const double router_vs_naive_speedup =
      static_cast<double>(naive_total_ns) /
      static_cast<double>(routed_total_ns);
  const double router_overhead_ratio =
      static_cast<double>(native_total_ns) /
      static_cast<double>(routed_total_ns);

  std::printf("\nrouter vs always-naive:  %.1fx faster "
              "(%.2f ms vs %.2f ms total)\n",
              router_vs_naive_speedup,
              static_cast<double>(routed_total_ns) / 1e6,
              static_cast<double>(naive_total_ns) / 1e6);
  std::printf("router vs pinned-native: %.2f (>= ~1 when the router only "
              "ever improves on the native engine)\n",
              router_overhead_ratio);
  std::printf("route regret over %d rows: max %.2f, geomean %.2f\n",
              regret.rows, regret.max, regret.geomean());

  // The routed path must never lose badly to always-native: routing picks
  // the native engine unless an estimate says another engine is cheaper,
  // so the total can only drift below 1 by decision overhead plus estimate
  // error on these small documents.
  TREEQ_CHECK(router_vs_naive_speedup > 1.0);

  if (record != nullptr) {
    record->SetNumber("num_documents", kNumDocuments);
    record->SetNumber("products_per_document", kProductsPerDocument);
    record->SetNumber("large_catalog_products", kLargeProducts);
    record->SetNumber("workload_queries", kNumQueries);
    record->SetNumber("evals_per_mode", kRepeats * kNumDocuments);
    record->SetNumber("routed_total_ns",
                      static_cast<double>(routed_total_ns));
    record->SetNumber("naive_total_ns",
                      static_cast<double>(naive_total_ns));
    record->SetNumber("native_total_ns",
                      static_cast<double>(native_total_ns));
    record->SetNumber("router_vs_naive_speedup", router_vs_naive_speedup);
    record->SetNumber("router_overhead_ratio", router_overhead_ratio);
    record->SetNumber("route_regret_max", regret.max);
    record->SetNumber("route_regret_geomean", regret.geomean());
  }
}

// Micro-benchmarks for the default (google-benchmark) mode.

void BM_RoutedExecute(benchmark::State& state) {
  DocumentStore store;
  BuildCorpus(&store);
  PlanPtr plan =
      Plan::Compile(Language::kXPath, kQueries[state.range(0)]).value();
  treeq::DocumentPtr doc = store.Get(store.Names().front()).value();
  ExecContext unbounded;
  ExecuteOptions options;
  for (auto _ : state) {
    auto r = plan->Execute(*doc, unbounded, options);
    benchmark::DoNotOptimize(r.ok());
  }
}
BENCHMARK(BM_RoutedExecute)->DenseRange(0, kNumQueries - 1);

void BM_RouteDecisionOnly(benchmark::State& state) {
  DocumentStore store;
  BuildCorpus(&store);
  PlanPtr plan = Plan::Compile(Language::kXPath, kQueries[0]).value();
  treeq::DocumentPtr doc = store.Get(store.Names().front()).value();
  for (auto _ : state) {
    std::string table = plan->ExplainRouting(*doc);
    benchmark::DoNotOptimize(table.size());
  }
}
BENCHMARK(BM_RouteDecisionOnly);

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = treeq::benchjson::ExtractJsonPath(&argc, argv);
  if (!json_path.empty()) {
    return treeq::benchjson::WriteRecord(
        json_path, "bench_plan_routing",
        [](treeq::benchjson::Record* record) { RunRoutingBench(record); });
  }
  RunRoutingBench(nullptr);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
