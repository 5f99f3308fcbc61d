#include "cq/arc_consistency.h"

#include <deque>
#include <map>
#include <utility>

#include "datalog/horn.h"
#include "obs/obs.h"
#include "tree/axes.h"

namespace treeq {
namespace cq {

PreValuation LabelRestrictedCandidates(const ConjunctiveQuery& query,
                                       const Tree& tree,
                                       const LabelIndex* index) {
  const int n = tree.num_nodes();
  PreValuation cand(query.num_vars(), NodeSet::All(n));
  for (const LabelAtom& a : query.label_atoms()) {
    if (index != nullptr) {
      const LabelId id = tree.label_table().Lookup(a.label);
      if (id == kNullLabel) {
        cand[a.var] = NodeSet(n);  // no node carries an unknown label
      } else {
        cand[a.var].IntersectWith(index->Set(id));
      }
      continue;
    }
    for (NodeId v = 0; v < n; ++v) {
      if (cand[a.var].Contains(v) && !tree.HasLabel(v, a.label)) {
        cand[a.var].Erase(v);
      }
    }
  }
  return cand;
}

namespace {

/// Worklist fixpoint over the axis atoms: revising R(x, y) narrows
/// Theta(x) to the R-preimage of Theta(y), then Theta(y) to the R-image of
/// the narrowed Theta(x). After one revision the atom supports both sides,
/// so only the other atoms of a shrunken variable are re-queued (a
/// self-loop R(x, x) re-queues itself).
AcResult DirectAc(const ConjunctiveQuery& query, const Tree& tree,
                  const TreeOrders& orders, const PreValuation* initial,
                  const LabelIndex* index) {
  TREEQ_OBS_SPAN("cq.ac.direct");
  PreValuation theta = LabelRestrictedCandidates(query, tree, index);
  if (initial != nullptr) {
    TREEQ_CHECK(static_cast<int>(initial->size()) == query.num_vars());
    for (int x = 0; x < query.num_vars(); ++x) {
      theta[x].IntersectWith((*initial)[x]);
    }
  }

  const std::vector<AxisAtom>& atoms = query.axis_atoms();
  const int num_atoms = static_cast<int>(atoms.size());
  std::vector<std::vector<int>> atoms_of(query.num_vars());
  for (int i = 0; i < num_atoms; ++i) {
    atoms_of[atoms[i].var0].push_back(i);
    if (atoms[i].var1 != atoms[i].var0) atoms_of[atoms[i].var1].push_back(i);
  }
  std::deque<int> worklist;
  std::vector<char> queued(num_atoms, 1);
  for (int i = 0; i < num_atoms; ++i) worklist.push_back(i);

  NodeSet image(tree.num_nodes());
  // Theta(var) &= image, re-queueing var's atoms if the set shrank.
  auto narrow = [&](int var, int atom) {
    const int before = theta[var].size();
    theta[var].IntersectWith(image);
    if (theta[var].size() == before) return;
    TREEQ_OBS_COUNT("cq.ac.domain_shrinks", before - theta[var].size());
    for (int j : atoms_of[var]) {
      const bool self_loop = atoms[j].var0 == atoms[j].var1;
      if ((j != atom || self_loop) && !queued[j]) {
        queued[j] = 1;
        worklist.push_back(j);
      }
    }
  };
  while (!worklist.empty()) {
    const int i = worklist.front();
    worklist.pop_front();
    queued[i] = 0;
    const AxisAtom& a = atoms[i];
    TREEQ_OBS_INC("cq.ac.propagation_rounds");
    AxisImage(tree, orders, InverseAxis(a.axis), theta[a.var1], &image);
    narrow(a.var0, i);
    TREEQ_OBS_INC("cq.ac.propagation_rounds");
    AxisImage(tree, orders, a.axis, theta[a.var0], &image);
    narrow(a.var1, i);
  }

  AcResult result;
  result.theta = std::move(theta);
  result.consistent = true;
  for (const NodeSet& set : result.theta) {
    if (set.empty()) result.consistent = false;
  }
  return result;
}

/// The paper's proof of Proposition 6.2: propositions ThetaBar(x, v) mean
/// "v is NOT in Theta(x)"; Horn clauses derive exactly the unsupported
/// values, and Minoux' algorithm solves the instance in linear time.
AcResult HornAc(const ConjunctiveQuery& query, const Tree& tree,
                const TreeOrders& orders, const PreValuation* initial) {
  TREEQ_OBS_SPAN("cq.ac.horn");
  const int n = tree.num_nodes();

  horn::HornInstance instance;
  // Proposition ids: var * n + v.
  instance.AddPredicates(query.num_vars() * n);
  auto prop = [n](int var, NodeId v) { return var * n + v; };

  // { ThetaBar(x, v) <- .  |  P(x) in Q, not P(v) } — the caller-provided
  // restriction acts as extra singleton unary relations.
  for (const LabelAtom& a : query.label_atoms()) {
    for (NodeId v = 0; v < n; ++v) {
      if (!tree.HasLabel(v, a.label)) instance.AddFact(prop(a.var, v));
    }
  }
  if (initial != nullptr) {
    TREEQ_CHECK(static_cast<int>(initial->size()) == query.num_vars());
    for (int x = 0; x < query.num_vars(); ++x) {
      for (NodeId v = 0; v < n; ++v) {
        if (!(*initial)[x].Contains(v)) instance.AddFact(prop(x, v));
      }
    }
  }
  // { ThetaBar(x, v) <- AND { ThetaBar(y, w) | R(v, w) }  |  R(x, y) in Q }
  // and symmetrically for the second argument, over the materialized axes.
  std::map<Axis, std::vector<std::pair<NodeId, NodeId>>> relations;
  for (Axis axis : query.AxesUsed()) {
    relations.emplace(axis, MaterializeAxis(tree, orders, axis));
  }
  for (const AxisAtom& a : query.axis_atoms()) {
    std::vector<std::vector<horn::PredId>> fwd(n), rev(n);
    for (const auto& [u, v] : relations.at(a.axis)) {
      fwd[u].push_back(prop(a.var1, v));
      rev[v].push_back(prop(a.var0, u));
    }
    for (NodeId v = 0; v < n; ++v) {
      instance.AddClause(prop(a.var0, v), std::move(fwd[v]));
    }
    for (NodeId w = 0; w < n; ++w) {
      instance.AddClause(prop(a.var1, w), std::move(rev[w]));
    }
  }

  TREEQ_OBS_COUNT("cq.ac.horn_clauses", instance.num_clauses());
  std::vector<char> excluded = instance.Solve();
  AcResult result;
  result.theta.assign(query.num_vars(), NodeSet(n));
  result.consistent = true;
  for (int x = 0; x < query.num_vars(); ++x) {
    for (NodeId v = 0; v < n; ++v) {
      if (!excluded[prop(x, v)]) result.theta[x].Insert(v);
    }
    if (result.theta[x].empty()) result.consistent = false;
  }
  return result;
}

}  // namespace

AcResult ComputeMaxArcConsistent(const ConjunctiveQuery& query,
                                 const Tree& tree, const TreeOrders& orders,
                                 AcImplementation implementation,
                                 const PreValuation* initial,
                                 const LabelIndex* index) {
  TREEQ_CHECK(query.Validate().ok());
  switch (implementation) {
    case AcImplementation::kDirect:
      return DirectAc(query, tree, orders, initial, index);
    case AcImplementation::kHornEncoding:
      return HornAc(query, tree, orders, initial);
  }
  TREEQ_CHECK(false);
  return {};
}

bool IsArcConsistent(const ConjunctiveQuery& query, const Tree& tree,
                     const TreeOrders& orders, const PreValuation& theta) {
  const int n = tree.num_nodes();
  for (const NodeSet& set : theta) {
    if (set.empty()) return false;
  }
  for (const LabelAtom& a : query.label_atoms()) {
    for (NodeId v = 0; v < n; ++v) {
      if (theta[a.var].Contains(v) && !tree.HasLabel(v, a.label)) {
        return false;
      }
    }
  }
  for (const AxisAtom& a : query.axis_atoms()) {
    for (NodeId v = 0; v < n; ++v) {
      if (theta[a.var0].Contains(v)) {
        bool support = false;
        for (NodeId w = 0; w < n && !support; ++w) {
          support = theta[a.var1].Contains(w) &&
                    AxisHolds(tree, orders, a.axis, v, w);
        }
        if (!support) return false;
      }
      if (theta[a.var1].Contains(v)) {
        bool support = false;
        for (NodeId u = 0; u < n && !support; ++u) {
          support = theta[a.var0].Contains(u) &&
                    AxisHolds(tree, orders, a.axis, u, v);
        }
        if (!support) return false;
      }
    }
  }
  return true;
}

}  // namespace cq
}  // namespace treeq
