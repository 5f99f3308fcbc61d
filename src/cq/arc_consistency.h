#ifndef TREEQ_CQ_ARC_CONSISTENCY_H_
#define TREEQ_CQ_ARC_CONSISTENCY_H_

#include <vector>

#include "cq/ast.h"
#include "tree/label_index.h"
#include "tree/orders.h"
#include "util/status.h"

/// \file arc_consistency.h
/// Arc-consistent pre-valuations (Section 6). A pre-valuation assigns each
/// query variable a nonempty candidate node set; it is arc-consistent when
/// every unary atom holds on every candidate and every binary atom has
/// support in both directions (Definition in Section 6).
///
/// ComputeMaxArcConsistent computes the unique subset-maximal arc-consistent
/// pre-valuation (Proposition 6.2). Two interchangeable implementations are
/// provided (an ablation benchmarked in bench_thm65_xbar):
///   - kDirect: a set-at-a-time worklist fixpoint over the axis atoms.
///     Revising R(x, y) applies Theta(x) &= AxisImage(R^-1, Theta(y)) and
///     Theta(y) &= AxisImage(R, Theta(x)) (tree/axes.h), and an atom is
///     re-queued only when one of its variables' sets shrank. Axis
///     relations are never materialized: each revision is one word-parallel
///     O(n) image, and the number of revisions depends on the query's shape
///     and how often its sets shrink, not on n directly (Gottlob, Koch and
///     Schulz, "Conjunctive Queries over Trees");
///   - kHornEncoding: the paper's proof verbatim — encode "v is NOT in
///     Theta(x)" as propositional Horn clauses over the materialized axis
///     relations and run Minoux' algorithm, O(||A|| * |Q|) with ||A|| ~ n^2
///     for the transitive axes.

namespace treeq {
namespace cq {

/// Candidate sets, indexed by query variable.
using PreValuation = std::vector<NodeSet>;

enum class AcImplementation {
  kDirect,
  kHornEncoding,
};

/// Result of the maximal-arc-consistency computation. When `consistent` is
/// false some variable's candidate set is empty and no arc-consistent
/// pre-valuation exists (so the query is unsatisfiable, Section 6).
struct AcResult {
  bool consistent = false;
  PreValuation theta;
};

/// Candidate sets restricted by the unary (label) atoms. With a label
/// index each atom is a word-wise intersection with the document's cached
/// per-label bitmap; without one, an O(n) scan per atom.
PreValuation LabelRestrictedCandidates(const ConjunctiveQuery& query,
                                       const Tree& tree,
                                       const LabelIndex* index);

/// Computes the subset-maximal arc-consistent pre-valuation of `query` on
/// `tree`. If `initial` is non-null it restricts the starting candidate
/// sets (used e.g. for the singleton relations of tuple-membership checks,
/// Section 6); by default every variable starts at the whole domain.
/// `index`, when set, seeds kDirect's label restriction from the
/// document's LabelIndex; the result is the same either way.
AcResult ComputeMaxArcConsistent(
    const ConjunctiveQuery& query, const Tree& tree, const TreeOrders& orders,
    AcImplementation implementation = AcImplementation::kDirect,
    const PreValuation* initial = nullptr, const LabelIndex* index = nullptr);

/// Checks the arc-consistency conditions for `theta` directly from the
/// definition (O(|Q| * n^2); for tests).
bool IsArcConsistent(const ConjunctiveQuery& query, const Tree& tree,
                     const TreeOrders& orders, const PreValuation& theta);

}  // namespace cq
}  // namespace treeq

#endif  // TREEQ_CQ_ARC_CONSISTENCY_H_
