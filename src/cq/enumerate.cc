#include "cq/enumerate.h"

#include <algorithm>
#include <vector>

namespace treeq {
namespace cq {

namespace {

/// Figure 6, iteratively over the DFS variable order x1, ..., xn.
class SolutionEnumerator {
 public:
  SolutionEnumerator(const ConjunctiveQuery& query, const Tree& tree,
                     const TreeOrders& orders, const ReducedQuery& reduced,
                     const ExecContext& exec)
      : query_(query), tree_(tree), orders_(orders), reduced_(reduced),
        exec_(exec) {}

  Result<std::vector<std::vector<NodeId>>> Run(uint64_t limit) {
    const int k = query_.num_vars();
    // Pre-order DFS numbering of the query tree (Figure 6's x1..xn).
    int root = -1;
    std::vector<std::vector<int>> children(k);
    for (int v = 0; v < k; ++v) {
      if (reduced_.parent_var[v] == -1) {
        if (root != -1) {
          return Status::InvalidArgument("reduced query is not connected");
        }
        root = v;
      } else {
        children[reduced_.parent_var[v]].push_back(v);
      }
    }
    TREEQ_CHECK(root != -1);
    dfs_order_.clear();
    std::vector<int> stack = {root};
    while (!stack.empty()) {
      int v = stack.back();
      stack.pop_back();
      dfs_order_.push_back(v);
      for (auto it = children[v].rbegin(); it != children[v].rend(); ++it) {
        stack.push_back(*it);
      }
    }

    theta_.assign(k, kNullNode);
    partners_.assign(k, {});
    results_.clear();
    limit_ = limit;
    abort_ = Status::OK();
    EnumerateSatisfactions(0);
    TREEQ_RETURN_IF_ERROR(abort_);
    return std::move(results_);
  }

 private:
  // Figure 6's enumerate_satisfactions(i). Variable x_i ranges over the
  // partners of its parent's binding among its candidates (all candidates
  // at the root), in increasing node order. The first failed charge lands
  // in abort_ and unwinds the recursion.
  void EnumerateSatisfactions(int i) {
    if (!abort_.ok() || results_.size() >= limit_) return;
    const int var = dfs_order_[i];
    std::vector<NodeId>& values = partners_[i];
    if (i == 0) {
      values = reduced_.candidates[var].ToVector();
    } else {
      AxisPartners(tree_, orders_, reduced_.parent_axis[var],
                   theta_[reduced_.parent_var[var]], reduced_.candidates[var],
                   &values);
    }
    for (NodeId v : values) {
      abort_ = exec_.Charge(1);
      if (!abort_.ok()) return;
      theta_[var] = v;
      if (i == static_cast<int>(dfs_order_.size()) - 1) {
        abort_ = exec_.ChargeMemory(theta_.size() * sizeof(NodeId));
        if (!abort_.ok()) return;
        results_.push_back(theta_);
      } else {
        EnumerateSatisfactions(i + 1);
      }
      if (!abort_.ok() || results_.size() >= limit_) return;
    }
  }

  const ConjunctiveQuery& query_;
  const Tree& tree_;
  const TreeOrders& orders_;
  const ReducedQuery& reduced_;
  const ExecContext& exec_;
  Status abort_;
  std::vector<int> dfs_order_;
  std::vector<NodeId> theta_;
  // partners_[i]: the values x_i ranges over under the current bindings.
  std::vector<std::vector<NodeId>> partners_;
  std::vector<std::vector<NodeId>> results_;
  uint64_t limit_ = 0;
};

}  // namespace

Result<std::vector<std::vector<NodeId>>> EnumerateSolutions(
    const ConjunctiveQuery& query, const Tree& tree, const TreeOrders& orders,
    const ReducedQuery& reduced, uint64_t limit, const ExecContext& exec) {
  if (!reduced.satisfiable) {
    return std::vector<std::vector<NodeId>>{};
  }
  if (static_cast<int>(reduced.parent_var.size()) != query.num_vars()) {
    return Status::InvalidArgument("reduced query does not match the query");
  }
  SolutionEnumerator enumerator(query, tree, orders, reduced, exec);
  return enumerator.Run(limit);
}

Result<TupleSet> EvaluateAcyclic(const ConjunctiveQuery& query,
                                 const Tree& tree, const TreeOrders& orders,
                                 uint64_t limit, const ExecContext& exec,
                                 const LabelIndex* index,
                                 AxisImageMemo* memo) {
  // The reducer is O(|Q| * |D|); charge it as a block before running. The
  // block charge is kept even when the memo serves some semijoin images —
  // it prices the sweep's set algebra, which always runs — so a CQ plan's
  // visit accounting stays deterministic cached or not.
  TREEQ_RETURN_IF_ERROR(exec.Charge(
      1 + static_cast<uint64_t>(tree.num_nodes()) * query.num_vars()));
  TREEQ_ASSIGN_OR_RETURN(ReducedQuery reduced,
                         FullReducer(query, tree, orders, /*root_var=*/-1,
                                     index, memo));
  if (!reduced.satisfiable) return TupleSet{};
  TREEQ_ASSIGN_OR_RETURN(
      std::vector<std::vector<NodeId>> solutions,
      EnumerateSolutions(query, tree, orders, reduced, limit, exec));
  TupleSet tuples;
  tuples.reserve(solutions.size());
  for (const std::vector<NodeId>& solution : solutions) {
    std::vector<NodeId> tuple;
    tuple.reserve(query.head_vars().size());
    for (int h : query.head_vars()) tuple.push_back(solution[h]);
    tuples.push_back(std::move(tuple));
  }
  CanonicalizeTuples(&tuples);
  return tuples;
}

}  // namespace cq
}  // namespace treeq
