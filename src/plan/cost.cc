#include "plan/cost.h"

#include <algorithm>
#include <iterator>

#include "obs/obs.h"

namespace treeq {
namespace plan {

namespace {

uint64_t SatMul(uint64_t a, uint64_t b) {
  if (a == 0 || b == 0) return 0;
  if (a > UINT64_MAX / b) return UINT64_MAX;
  return a * b;
}

uint64_t SatAdd(uint64_t a, uint64_t b) {
  return a > UINT64_MAX - b ? UINT64_MAX : a + b;
}

/// Atom count of the plan; the size proxy |Q| the per-node formulas scale
/// with. Opaque plans fall back to a rendering-length proxy.
uint64_t PlanSize(const LogicalPlan& plan) {
  if (!plan.structural()) return plan.opaque.size() / 8 + 1;
  uint64_t size = 0;
  for (const QueryGraph& g : plan.branches) {
    size += g.vars.size() + g.edges.size();
  }
  return std::max<uint64_t>(size, 1);
}

/// Sum of per-variable candidate-set sizes across all branches, times
/// `per_item` — the shape of every label-index-driven engine's cost.
uint64_t CandidateCost(const LogicalPlan& plan, const DocStats& stats,
                       uint64_t per_item) {
  uint64_t total = 0;
  for (const QueryGraph& g : plan.branches) {
    for (const IrVar& var : g.vars) {
      total = SatAdd(total, SatMul(stats.VarCandidates(var), per_item));
    }
    // Each extra branch re-runs the engine; charge its edges too.
    total = SatAdd(total, g.edges.size());
  }
  return std::max<uint64_t>(total, 1);
}

/// Quantifier nesting n^k over the plan's k variables (every branch's,
/// or |Q| for an opaque plan) — saturates quickly, as it should.
uint64_t FoNaiveCost(const LogicalPlan& plan, const DocStats& stats) {
  uint64_t vars = 0;
  for (const QueryGraph& g : plan.branches) vars += g.vars.size();
  if (!plan.structural()) vars = PlanSize(plan);
  uint64_t cost = 1;
  for (uint64_t i = 0; i < std::max<uint64_t>(vars, 1); ++i) {
    cost = SatMul(cost, std::max<uint64_t>(stats.nodes, 2));
  }
  return cost;
}

/// One physical engine: its canonical label, its cost formula, and its
/// plan.route.<engine> counter. TREEQ_OBS_INC caches one counter per
/// macro site, so each row spells its counter as its own literal.
struct EngineRow {
  EngineKind kind;
  const char* name;
  uint64_t (*cost)(const LogicalPlan& plan, const DocStats& stats);
  void (*count_route)();
};

/// The one engine table, one row per EngineKind in enum order.
constexpr EngineRow kEngines[] = {
    {EngineKind::kXPathSetAtATime, "xpath.set_at_a_time",
     // |Q| * (n + 1): the Theorem 6.8 set-at-a-time bound, the shape of
     // Plan::EstimatedVisits.
     [](const LogicalPlan& plan, const DocStats& stats) {
       return SatMul(PlanSize(plan), SatAdd(stats.nodes, 1));
     },
     [] { TREEQ_OBS_INC("plan.route.xpath_set_at_a_time"); }},
    {EngineKind::kXPathNaive, "xpath.naive",
     // Node-at-a-time recursion touches O(n) per context node.
     [](const LogicalPlan& plan, const DocStats& stats) {
       return SatMul(PlanSize(plan), SatMul(stats.nodes, stats.nodes));
     },
     [] { TREEQ_OBS_INC("plan.route.xpath_naive"); }},
    {EngineKind::kXPathStream, "xpath.stream",
     // One SAX pass; the constant covers per-event transducer work.
     [](const LogicalPlan&, const DocStats& stats) {
       return std::max<uint64_t>(SatMul(6, stats.nodes), 1);
     },
     [] { TREEQ_OBS_INC("plan.route.xpath_stream"); }},
    {EngineKind::kTwigStack, "cq.twigstack",
     // Holistic: linear in the merged label streams.
     [](const LogicalPlan& plan, const DocStats& stats) {
       return CandidateCost(plan, stats, 4);
     },
     [] { TREEQ_OBS_INC("plan.route.cq_twigstack"); }},
    {EngineKind::kStructuralJoins, "cq.structural_joins",
     // Binary joins re-scan intermediate results; a bit worse than twig.
     [](const LogicalPlan& plan, const DocStats& stats) {
       return CandidateCost(plan, stats, 6);
     },
     [] { TREEQ_OBS_INC("plan.route.cq_structural_joins"); }},
    {EngineKind::kYannakakis, "cq.yannakakis",
     [](const LogicalPlan& plan, const DocStats& stats) {
       return CandidateCost(plan, stats, 4);
     },
     [] { TREEQ_OBS_INC("plan.route.cq_yannakakis"); }},
    {EngineKind::kDichotomy, "cq.dichotomy",
     // Boolean arc-consistency over candidate sets (X-property path).
     [](const LogicalPlan& plan, const DocStats& stats) {
       return CandidateCost(plan, stats, 3);
     },
     [] { TREEQ_OBS_INC("plan.route.cq_dichotomy"); }},
    {EngineKind::kDatalogTmnf, "datalog.tmnf",
     // TMNF fixpoint: rules * nodes, two passes amortized.
     [](const LogicalPlan& plan, const DocStats& stats) {
       return SatMul(PlanSize(plan), SatMul(stats.nodes, 2));
     },
     [] { TREEQ_OBS_INC("plan.route.datalog_tmnf"); }},
    {EngineKind::kFoCorollary52, "fo.corollary52",
     // Corollary 5.2 pipeline is linear in |formula| * n after rewriting.
     [](const LogicalPlan& plan, const DocStats& stats) {
       return SatMul(PlanSize(plan), SatMul(stats.nodes, 2));
     },
     [] { TREEQ_OBS_INC("plan.route.fo_corollary52"); }},
    {EngineKind::kFoNaive, "fo.naive", FoNaiveCost,
     [] { TREEQ_OBS_INC("plan.route.fo_naive"); }},
};

constexpr bool RowsFollowEnumOrder() {
  for (size_t i = 0; i < std::size(kEngines); ++i) {
    if (kEngines[i].kind != static_cast<EngineKind>(i)) return false;
  }
  return true;
}
static_assert(RowsFollowEnumOrder(),
              "kEngines must hold one row per EngineKind, in enum order");

const EngineRow& Row(EngineKind kind) {
  return kEngines[static_cast<size_t>(kind)];
}

}  // namespace

const char* EngineName(EngineKind kind) { return Row(kind).name; }

std::optional<EngineKind> ParseEngineName(std::string_view name) {
  for (const EngineRow& row : kEngines) {
    if (row.name == name) return row.kind;
  }
  // The post-hoc labels a cq.dichotomy run reports for the path it took.
  if (name == "cq.x_property" || name == "cq.backtracking") {
    return EngineKind::kDichotomy;
  }
  return std::nullopt;
}

void CountRoute(EngineKind kind) { Row(kind).count_route(); }

DocStats DocStats::For(const Document& doc) {
  DocStats stats;
  stats.nodes = static_cast<uint64_t>(doc.num_nodes());
  stats.doc = &doc;
  return stats;
}

uint64_t DocStats::LabelFrequency(std::string_view label) const {
  if (doc == nullptr) return nodes;
  // Items() returns an empty stream for kNullLabel / unknown labels.
  const LabelId id = doc->tree().label_table().Lookup(label);
  return doc->label_index().Items(id).size();
}

uint64_t DocStats::VarCandidates(const IrVar& var) const {
  if (var.labels.empty()) return nodes;
  uint64_t best = nodes;
  for (const std::string& label : var.labels) {
    best = std::min(best, LabelFrequency(label));
  }
  return best;
}

uint64_t EstimateCost(EngineKind kind, const LogicalPlan& plan,
                      const DocStats& stats) {
  return Row(kind).cost(plan, stats);
}

}  // namespace plan
}  // namespace treeq
