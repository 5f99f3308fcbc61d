// S6a — Theorem 6.5: Boolean conjunctive queries over X-underbar signatures
// evaluate in O(||A|| * |Q|) via arc-consistency + minimum valuation — even
// for CYCLIC queries, which acyclicity-based methods cannot touch. Sweeps:
// data size for a fixed cyclic tau_1 query vs backtracking; plus the
// Horn-encoding vs direct ablation. The paper's proof materializes the axis
// relations (||A|| ~ n^2 for Child+); the direct fixpoint works on axis
// images and never materializes them, so it is fitted against n.

#include <benchmark/benchmark.h>

#include "bench_json.h"

#include <cstdio>

#include "cq/naive.h"
#include "cq/parser.h"
#include "cq/x_property.h"
#include "tree/generator.h"
#include "tree/orders.h"
#include "util/random.h"

namespace {

treeq::Tree MakeTree(int n) {
  treeq::Rng rng(77);
  treeq::RandomTreeOptions opts;
  opts.num_nodes = n;
  opts.attach_window = 5;
  opts.alphabet = {"a", "b", "c"};
  return treeq::RandomTree(&rng, opts);
}

// A cyclic tau_1 query: a triangle of descendant atoms plus labels chosen
// to be selective.
treeq::cq::ConjunctiveQuery CyclicTau1() {
  return treeq::cq::ParseCq(
             "Q() :- Child+(x, y), Child+(y, z), Child+(x, z), Lab_a(x), "
             "Lab_b(y), Lab_c(z).")
      .value();
}

void PrintHeadline() {
  std::printf("=== Theorem 6.5: X-underbar evaluation of a cyclic CQ ===\n");
  std::printf("query: %s\n", CyclicTau1().ToString().c_str());
  std::printf("%-8s %-14s %-18s\n", "nodes", "X-eval result",
              "backtrack agrees");
  for (int n : {100, 400, 1600}) {
    treeq::Tree t = MakeTree(n);
    treeq::TreeOrders o = treeq::ComputeOrders(t);
    auto fast = treeq::cq::EvaluateXProperty(CyclicTau1(), t, o,
                                             treeq::cq::TreeOrder::kPre);
    auto slow = treeq::cq::NaiveSatisfiableCq(CyclicTau1(), t, o);
    std::printf("%-8d %-14s %-18s\n", n,
                fast.value().satisfiable ? "satisfiable" : "unsatisfiable",
                fast.value().satisfiable == slow.value() ? "yes" : "NO!");
  }
  std::printf("\n");
}

void BM_XPropertyDirect(benchmark::State& state) {
  treeq::Tree t = MakeTree(static_cast<int>(state.range(0)));
  treeq::TreeOrders o = treeq::ComputeOrders(t);
  treeq::cq::ConjunctiveQuery q = CyclicTau1();
  for (auto _ : state) {
    auto r = treeq::cq::EvaluateXProperty(q, t, o,
                                          treeq::cq::TreeOrder::kPre,
                                          treeq::cq::AcImplementation::kDirect);
    benchmark::DoNotOptimize(r.ok());
  }
  // The fixpoint revises whole sets through O(n) axis images, so the fit
  // is against n, not against the quadratic ||A|| of Child+.
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_XPropertyDirect)
    ->Arg(1024)
    ->Arg(4096)
    ->Arg(16384)
    ->Arg(65536)
    ->Complexity(benchmark::oN)
    ->Unit(benchmark::kMicrosecond);

void BM_XPropertyHornEncoding(benchmark::State& state) {
  treeq::Tree t = MakeTree(static_cast<int>(state.range(0)));
  treeq::TreeOrders o = treeq::ComputeOrders(t);
  treeq::cq::ConjunctiveQuery q = CyclicTau1();
  for (auto _ : state) {
    auto r = treeq::cq::EvaluateXProperty(
        q, t, o, treeq::cq::TreeOrder::kPre,
        treeq::cq::AcImplementation::kHornEncoding);
    benchmark::DoNotOptimize(r.ok());
  }
  // ||A|| for Child+ is quadratic in n; the claim is linearity in ||A||.
  state.SetComplexityN(state.range(0) * state.range(0));
}
BENCHMARK(BM_XPropertyHornEncoding)
    ->Arg(128)
    ->Arg(256)
    ->Arg(512)
    ->Arg(1024)
    ->Complexity(benchmark::oN)
    ->Unit(benchmark::kMicrosecond);

void BM_BacktrackingBaseline(benchmark::State& state) {
  treeq::Tree t = MakeTree(static_cast<int>(state.range(0)));
  treeq::TreeOrders o = treeq::ComputeOrders(t);
  treeq::cq::ConjunctiveQuery q = CyclicTau1();
  for (auto _ : state) {
    auto r = treeq::cq::NaiveSatisfiableCq(q, t, o);
    benchmark::DoNotOptimize(r.ok());
  }
}
BENCHMARK(BM_BacktrackingBaseline)->Arg(128)->Arg(512)->Unit(
    benchmark::kMicrosecond);

// tau_2 and tau_3 workloads through the same evaluator.
void BM_XPropertyTau2(benchmark::State& state) {
  treeq::Tree t = MakeTree(static_cast<int>(state.range(0)));
  treeq::TreeOrders o = treeq::ComputeOrders(t);
  auto q = treeq::cq::ParseCq(
               "Q() :- Following(x, y), Following(y, z), Following(x, z), "
               "Lab_a(x), Lab_b(y), Lab_c(z).")
               .value();
  for (auto _ : state) {
    auto r = treeq::cq::EvaluateXProperty(q, t, o,
                                          treeq::cq::TreeOrder::kPost);
    benchmark::DoNotOptimize(r.ok());
  }
}
BENCHMARK(BM_XPropertyTau2)->Arg(256)->Arg(512)->Unit(
    benchmark::kMicrosecond);

void BM_XPropertyTau3(benchmark::State& state) {
  treeq::Tree t = MakeTree(static_cast<int>(state.range(0)));
  treeq::TreeOrders o = treeq::ComputeOrders(t);
  auto q = treeq::cq::ParseCq(
               "Q() :- Child(x, y), Child(x, z), NextSibling(y, z), "
               "Lab_a(y), Lab_b(z).")
               .value();
  for (auto _ : state) {
    auto r = treeq::cq::EvaluateXProperty(q, t, o,
                                          treeq::cq::TreeOrder::kBflr);
    benchmark::DoNotOptimize(r.ok());
  }
}
BENCHMARK(BM_XPropertyTau3)->Arg(256)->Arg(512)->Unit(
    benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = treeq::benchjson::ExtractJsonPath(&argc, argv);
  if (!json_path.empty()) {
    // --json mode: the headline workload runs once under a reset obs
    // registry; its work counters and spans land in the record.
    return treeq::benchjson::WriteRecord(
        json_path, "bench_thm65_xbar", [](treeq::benchjson::Record*) {
          PrintHeadline();
        });
  }
  PrintHeadline();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
