#ifndef TREEQ_PLAN_ROUTE_H_
#define TREEQ_PLAN_ROUTE_H_

#include <string>
#include <vector>

#include "plan/cost.h"

/// \file route.h
/// The cost-based engine router: the one routing decision every unforced
/// Plan::Execute takes, bounded or not. Given a logical plan, the engines
/// that can answer it (computed at compile time by engine/plan.cc), and
/// the document's statistics, ScoreRoute() prices every candidate with
/// EstimateCost — with a mild thumb on the scale for the query's native
/// engine, so ties and near-ties keep the historically expected pipeline —
/// and Route() picks the cheapest.
///
/// Metrics: every Route() decision bumps plan.route.decisions and a
/// per-engine plan.route.<engine> counter, and records the decision
/// latency in the plan.cost_ns histogram. ScoreRoute() counts nothing, so
/// explaining a route is not a decision.

namespace treeq {
namespace plan {

/// One scored candidate, as Plan::ExplainRouting prints it.
struct RouteCandidate {
  EngineKind kind = EngineKind::kXPathSetAtATime;
  uint64_t cost = 0;
  bool native = false;
};

/// The router's verdict for one execution.
struct RouteDecision {
  EngineKind chosen = EngineKind::kXPathSetAtATime;
  /// All scored candidates, cheapest first.
  std::vector<RouteCandidate> candidates;
  /// One-line human rationale, e.g.
  /// "cq.twigstack cost=52 (native xpath.set_at_a_time cost=804)".
  std::string rationale;
};

/// Scores `eligible` (must be non-empty and contain `native`) against
/// `stats`, cheapest first. The native engine's score gets a 20% discount:
/// it is the only engine whose constants we trust from the source
/// language's own tests, so the router only defects from it for a
/// predicted win, never on noise. Pure: records no metrics.
std::vector<RouteCandidate> ScoreRoute(const LogicalPlan& plan,
                                       const std::vector<EngineKind>& eligible,
                                       EngineKind native,
                                       const DocStats& stats);

/// ScoreRoute plus the pick: the cheapest candidate, its rationale, and
/// the decision counters.
RouteDecision Route(const LogicalPlan& plan,
                    const std::vector<EngineKind>& eligible,
                    EngineKind native, const DocStats& stats);

}  // namespace plan
}  // namespace treeq

#endif  // TREEQ_PLAN_ROUTE_H_
