#include "plan/route.h"

#include <algorithm>
#include <chrono>

#include "obs/obs.h"

namespace treeq {
namespace plan {

std::vector<RouteCandidate> ScoreRoute(const LogicalPlan& plan,
                                       const std::vector<EngineKind>& eligible,
                                       EngineKind native,
                                       const DocStats& stats) {
  std::vector<RouteCandidate> candidates;
  candidates.reserve(eligible.size());
  for (EngineKind kind : eligible) {
    RouteCandidate c;
    c.kind = kind;
    c.native = kind == native;
    c.cost = EstimateCost(kind, plan, stats);
    if (c.native) {
      // 20% native discount: defect only for a predicted win, not noise.
      c.cost -= c.cost / 5;
    }
    candidates.push_back(c);
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const RouteCandidate& a, const RouteCandidate& b) {
                     if (a.cost != b.cost) return a.cost < b.cost;
                     return a.native && !b.native;  // native wins ties
                   });
  return candidates;
}

RouteDecision Route(const LogicalPlan& plan,
                    const std::vector<EngineKind>& eligible,
                    EngineKind native, const DocStats& stats) {
  const auto start = std::chrono::steady_clock::now();
  RouteDecision decision;
  decision.candidates = ScoreRoute(plan, eligible, native, stats);
  decision.chosen =
      decision.candidates.empty() ? native : decision.candidates[0].kind;
  decision.rationale = EngineName(decision.chosen);
  decision.rationale += " cost=";
  decision.rationale += decision.candidates.empty()
                            ? "?"
                            : std::to_string(decision.candidates[0].cost);
  if (decision.chosen != native) {
    decision.rationale += " (native ";
    decision.rationale += EngineName(native);
    for (const RouteCandidate& c : decision.candidates) {
      if (c.kind == native) {
        decision.rationale += " cost=" + std::to_string(c.cost);
        break;
      }
    }
    decision.rationale += ")";
  }
  TREEQ_OBS_INC("plan.route.decisions");
  CountRoute(decision.chosen);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  TREEQ_OBS_HISTOGRAM(
      "plan.cost_ns",
      std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
          .count());
  return decision;
}

}  // namespace plan
}  // namespace treeq
