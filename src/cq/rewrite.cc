#include "cq/rewrite.h"

#include <algorithm>
#include <map>
#include <set>
#include <tuple>
#include <vector>

namespace treeq {
namespace cq {

bool Table1Satisfiable(RewriteAxis r, RewriteAxis s) {
  // Rows: R; columns: S in order Child, Child+, NextSibling, NextSibling+.
  static constexpr bool kTable[4][4] = {
      /* Child        */ {false, false, true, true},
      /* Child+       */ {true, true, true, true},
      /* NextSibling  */ {false, false, false, false},
      /* NextSibling+ */ {false, false, true, true},
  };
  return kTable[static_cast<int>(r)][static_cast<int>(s)];
}

namespace {

/// Union-find over variable indices.
class VarUnion {
 public:
  explicit VarUnion(int n) : parent_(n) {
    for (int i = 0; i < n; ++i) parent_[i] = i;
  }
  int Find(int x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(int a, int b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<int> parent_;
};

/// The paper's signature for Theorem 5.1 after normalization.
bool IsRewriteAxis(Axis axis) {
  switch (axis) {
    case Axis::kChild:
    case Axis::kDescendant:
    case Axis::kDescendantOrSelf:
    case Axis::kNextSibling:
    case Axis::kFollowingSibling:
    case Axis::kFollowingSiblingOrSelf:
      return true;
    default:
      return false;
  }
}

Axis ToAxis(RewriteAxis r) {
  switch (r) {
    case RewriteAxis::kChild:
      return Axis::kChild;
    case RewriteAxis::kChildPlus:
      return Axis::kDescendant;
    case RewriteAxis::kNextSibling:
      return Axis::kNextSibling;
    case RewriteAxis::kNextSiblingPlus:
      return Axis::kFollowingSibling;
  }
  TREEQ_CHECK(false);
  return Axis::kSelf;
}

/// Preprocessed input: Self unified away, inverses normalized, Following
/// expanded; axes restricted to the Theorem 5.1 signature.
struct Preprocessed {
  ConjunctiveQuery query;     // Self-free, Following-free
  std::vector<int> head_map;  // original head position -> query var
};

Result<Preprocessed> Preprocess(const ConjunctiveQuery& input) {
  TREEQ_RETURN_IF_ERROR(input.Validate());
  ConjunctiveQuery normalized = input;
  normalized.NormalizeInverseAxes();

  // Expand Following(x, y) into NextSibling+(x0, y0), Child*(x0, x),
  // Child*(y0, y) with fresh x0, y0 (Section 2).
  ConjunctiveQuery expanded;
  for (int v = 0; v < normalized.num_vars(); ++v) {
    expanded.AddVar(normalized.var_names()[v]);
  }
  for (const LabelAtom& a : normalized.label_atoms()) {
    expanded.AddLabelAtom(a.label, a.var);
  }
  int fresh = 0;
  for (const AxisAtom& a : normalized.axis_atoms()) {
    if (a.axis == Axis::kFollowing) {
      int x0 = expanded.AddVar("_f" + std::to_string(fresh++));
      int y0 = expanded.AddVar("_f" + std::to_string(fresh++));
      expanded.AddAxisAtom(Axis::kFollowingSibling, x0, y0);
      expanded.AddAxisAtom(Axis::kDescendantOrSelf, x0, a.var0);
      expanded.AddAxisAtom(Axis::kDescendantOrSelf, y0, a.var1);
    } else {
      expanded.AddAxisAtom(a.axis, a.var0, a.var1);
    }
  }
  for (int h : normalized.head_vars()) expanded.AddHeadVar(h);

  // Unify Self atoms away.
  VarUnion uf(expanded.num_vars());
  for (const AxisAtom& a : expanded.axis_atoms()) {
    if (a.axis == Axis::kSelf) uf.Union(a.var0, a.var1);
  }
  Preprocessed out;
  std::map<int, int> rep_to_var;
  std::vector<int> var_of(expanded.num_vars());
  for (int v = 0; v < expanded.num_vars(); ++v) {
    int rep = uf.Find(v);
    auto it = rep_to_var.find(rep);
    if (it == rep_to_var.end()) {
      int nv = out.query.AddVar(expanded.var_names()[v]);
      rep_to_var.emplace(rep, nv);
      var_of[v] = nv;
    } else {
      var_of[v] = it->second;
    }
  }
  for (const LabelAtom& a : expanded.label_atoms()) {
    out.query.AddLabelAtom(a.label, var_of[a.var]);
  }
  for (const AxisAtom& a : expanded.axis_atoms()) {
    if (a.axis == Axis::kSelf) continue;
    if (!IsRewriteAxis(a.axis)) {
      return Status::Unsupported(std::string("axis ") + AxisName(a.axis) +
                                 " is outside the Theorem 5.1 signature");
    }
    out.query.AddAxisAtom(a.axis, var_of[a.var0], var_of[a.var1]);
  }
  for (int h : expanded.head_vars()) {
    out.query.AddHeadVar(var_of[h]);
    out.head_map.push_back(var_of[h]);
  }
  return out;
}

/// Enumerates all ordered set partitions (weak orders) of {0..k-1} as
/// block-index vectors: psi[v] = position of v's block in the <pre order.
void EnumerateWeakOrders(int k, std::vector<std::vector<int>>* out) {
  // partitions: list of blocks in order; grow element by element.
  std::vector<std::vector<std::vector<int>>> current = {{{0}}};
  if (k == 0) {
    out->push_back({});
    return;
  }
  for (int e = 1; e < k; ++e) {
    std::vector<std::vector<std::vector<int>>> next;
    for (const auto& partition : current) {
      const int m = static_cast<int>(partition.size());
      for (int b = 0; b < m; ++b) {  // join an existing block
        auto copy = partition;
        copy[b].push_back(e);
        next.push_back(std::move(copy));
      }
      for (int p = 0; p <= m; ++p) {  // new singleton block at position p
        auto copy = partition;
        copy.insert(copy.begin() + p, {e});
        next.push_back(std::move(copy));
      }
    }
    current = std::move(next);
  }
  for (const auto& partition : current) {
    std::vector<int> psi(k, -1);
    for (size_t b = 0; b < partition.size(); ++b) {
      for (int v : partition[b]) psi[v] = static_cast<int>(b);
    }
    out->push_back(std::move(psi));
  }
}

/// One Q_psi under rewriting: atoms keyed by (source, target) with a single
/// axis each (pair normalization keeps that invariant).
class WorkQuery {
 public:
  // Returns false if Q_psi is unsatisfiable.
  bool Init(const ConjunctiveQuery& query, const std::vector<int>& psi,
            int num_blocks) {
    num_blocks_ = num_blocks;
    for (const AxisAtom& a : query.axis_atoms()) {
      int x = psi[a.var0];
      int y = psi[a.var1];
      RewriteAxis r;
      switch (a.axis) {
        case Axis::kChild:
          r = RewriteAxis::kChild;
          break;
        case Axis::kDescendant:
          r = RewriteAxis::kChildPlus;
          break;
        case Axis::kDescendantOrSelf:
          if (x == y) continue;  // R*(x, x) is true — drop
          r = RewriteAxis::kChildPlus;  // distinct blocks: strengthen
          break;
        case Axis::kNextSibling:
          r = RewriteAxis::kNextSibling;
          break;
        case Axis::kFollowingSibling:
          r = RewriteAxis::kNextSiblingPlus;
          break;
        case Axis::kFollowingSiblingOrSelf:
          if (x == y) continue;
          r = RewriteAxis::kNextSiblingPlus;
          break;
        default:
          TREEQ_CHECK(false);
          return false;
      }
      if (x == y) return false;  // irreflexive axis on one node
      if (x > y) return false;   // contradicts x <pre y: Q_psi cyclic
      if (!AddAtom(r, x, y)) return false;
    }
    return true;
  }

  /// The Table 1 resolution loop. Returns false if Q_psi is unsatisfiable.
  bool Resolve() {
    for (;;) {
      // Find z maximal with >= 2 in-atoms.
      int z = -1;
      for (const auto& [key, axis] : atoms_) {
        (void)axis;
        int target = key.second;
        if (target > z && InDegree(target) >= 2) z = target;
      }
      if (z == -1) return true;
      // Two in-atoms with minimal sources x < y.
      int x = -1, y = -1;
      for (const auto& [key, axis] : atoms_) {
        if (key.second != z) continue;
        if (x == -1 || key.first < x) {
          y = x;
          x = key.first;
        } else if (y == -1 || key.first < y) {
          y = key.first;
        }
      }
      TREEQ_CHECK(x != -1 && y != -1 && x < y);
      RewriteAxis r = atoms_.at({x, z});
      RewriteAxis s = atoms_.at({y, z});
      if (!Table1Satisfiable(r, s)) return false;
      atoms_.erase({x, z});
      if (!AddAtom(r, x, y)) return false;
    }
  }

  const std::map<std::pair<int, int>, RewriteAxis>& atoms() const {
    return atoms_;
  }

 private:
  int InDegree(int target) const {
    int count = 0;
    for (const auto& [key, axis] : atoms_) {
      (void)axis;
      if (key.second == target) ++count;
    }
    return count;
  }

  /// Inserts an atom, applying the pair-normalization rules:
  ///   R next to R+ on the same pair -> keep R;
  ///   a Child-family atom next to a NextSibling-family atom -> unsat.
  /// Returns false on unsatisfiability.
  bool AddAtom(RewriteAxis r, int x, int y) {
    auto it = atoms_.find({x, y});
    if (it == atoms_.end()) {
      atoms_.emplace(std::make_pair(x, y), r);
      return true;
    }
    RewriteAxis existing = it->second;
    if (existing == r) return true;
    auto family = [](RewriteAxis a) {
      return a == RewriteAxis::kChild || a == RewriteAxis::kChildPlus ? 0 : 1;
    };
    if (family(existing) != family(r)) return false;  // Child vs NextSibling
    // Same family, different strength: the base relation implies the
    // transitive one; keep the stronger (base) atom.
    it->second = family(r) == 0 ? RewriteAxis::kChild
                                : RewriteAxis::kNextSibling;
    return true;
  }

  int num_blocks_ = 0;
  std::map<std::pair<int, int>, RewriteAxis> atoms_;
};

}  // namespace

Result<RewriteOutput> RewriteToAcyclicUnion(const ConjunctiveQuery& input) {
  TREEQ_ASSIGN_OR_RETURN(Preprocessed pre, Preprocess(input));
  const ConjunctiveQuery& query = pre.query;
  const int k = query.num_vars();

  std::vector<std::vector<int>> weak_orders;
  EnumerateWeakOrders(k, &weak_orders);

  RewriteOutput output;
  output.order_types_considered = static_cast<int>(weak_orders.size());

  for (const std::vector<int>& psi : weak_orders) {
    int num_blocks = 0;
    for (int b : psi) num_blocks = std::max(num_blocks, b + 1);

    WorkQuery work;
    if (!work.Init(query, psi, num_blocks)) continue;
    if (!work.Resolve()) continue;

    // Emit the acyclic query: variables are the blocks of psi.
    ConjunctiveQuery result;
    for (int b = 0; b < num_blocks; ++b) {
      // Name: the first input variable mapped to this block.
      std::string name = "b" + std::to_string(b);
      for (int v = 0; v < k; ++v) {
        if (psi[v] == b) {
          name = query.var_names()[v];
          break;
        }
      }
      result.AddVar(name);
    }
    for (const auto& [key, axis] : work.atoms()) {
      result.AddAxisAtom(ToAxis(axis), key.first, key.second);
    }
    std::set<std::pair<std::string, int>> label_seen;
    for (const LabelAtom& a : query.label_atoms()) {
      if (label_seen.insert({a.label, psi[a.var]}).second) {
        result.AddLabelAtom(a.label, psi[a.var]);
      }
    }
    for (int h : query.head_vars()) result.AddHeadVar(psi[h]);
    output.queries.push_back(std::move(result));
  }
  return output;
}

namespace {

/// One search state of the lazy rewriting: atoms over union-find classes, a
/// set of known strict <pre facts, and the equality classes themselves.
struct LazyState {
  std::vector<int> uf;                        // parent pointers
  std::set<std::pair<int, int>> less;         // known x <pre y facts
  std::set<std::tuple<Axis, int, int>> atoms; // Child/C+/C*/NS/NS+/NS* only

  int Find(int x) {
    while (uf[x] != x) {
      uf[x] = uf[uf[x]];
      x = uf[x];
    }
    return x;
  }
};

bool IsStarAxis(Axis a) {
  return a == Axis::kDescendantOrSelf || a == Axis::kFollowingSiblingOrSelf;
}
bool IsChildFamily(Axis a) {
  return a == Axis::kChild || a == Axis::kDescendant ||
         a == Axis::kDescendantOrSelf;
}
RewriteAxis AsRewriteAxis(Axis a) {
  switch (a) {
    case Axis::kChild:
      return RewriteAxis::kChild;
    case Axis::kDescendant:
      return RewriteAxis::kChildPlus;
    case Axis::kNextSibling:
      return RewriteAxis::kNextSibling;
    case Axis::kFollowingSibling:
      return RewriteAxis::kNextSiblingPlus;
    default:
      TREEQ_CHECK(false);
      return RewriteAxis::kChild;
  }
}

/// Reachability in the strict-order graph (non-star atoms + recorded
/// facts). Small queries, so a simple DFS suffices.
bool StrictlyBefore(const LazyState& s, int a, int b) {
  std::map<int, std::vector<int>> adj;
  for (const auto& [axis, x, y] : s.atoms) {
    if (!IsStarAxis(axis)) adj[x].push_back(y);
  }
  for (const auto& [x, y] : s.less) adj[x].push_back(y);
  std::set<int> seen = {a};
  std::vector<int> stack = {a};
  while (!stack.empty()) {
    int v = stack.back();
    stack.pop_back();
    if (v == b) return true;
    for (int w : adj[v]) {
      if (seen.insert(w).second) stack.push_back(w);
    }
  }
  return false;
}

/// Local normalization of a lazy state. Returns false when the state is
/// unsatisfiable. May merge classes (loops internally until stable).
bool NormalizeLazy(LazyState* s) {
  for (bool changed = true; changed;) {
    changed = false;
    // Canonicalize by union-find.
    {
      std::set<std::tuple<Axis, int, int>> next;
      for (const auto& [axis, x, y] : s->atoms) {
        next.insert({axis, s->Find(x), s->Find(y)});
      }
      s->atoms = std::move(next);
      std::set<std::pair<int, int>> next_less;
      for (const auto& [x, y] : s->less) {
        next_less.insert({s->Find(x), s->Find(y)});
      }
      s->less = std::move(next_less);
    }
    // Reflexive atoms / facts.
    for (auto it = s->atoms.begin(); it != s->atoms.end();) {
      const auto& [axis, x, y] = *it;
      if (x == y) {
        if (!IsStarAxis(axis)) return false;  // irreflexive relation
        it = s->atoms.erase(it);
        changed = true;
      } else {
        ++it;
      }
    }
    for (const auto& [x, y] : s->less) {
      if (x == y) return false;
    }
    // Pair rules per ordered variable pair.
    std::map<std::pair<int, int>, std::vector<Axis>> by_pair;
    for (const auto& [axis, x, y] : s->atoms) {
      by_pair[{x, y}].push_back(axis);
    }
    for (const auto& [pair, axes] : by_pair) {
      if (axes.size() < 2) continue;
      bool child_star = false, child_strict = false;
      bool sib_star = false, sib_strict = false;
      for (Axis a : axes) {
        (IsChildFamily(a) ? (IsStarAxis(a) ? child_star : child_strict)
                          : (IsStarAxis(a) ? sib_star : sib_strict)) = true;
      }
      bool child_any = child_star || child_strict;
      bool sib_any = sib_star || sib_strict;
      if (child_any && sib_any) {
        if (child_strict || sib_strict) return false;  // disjoint relations
        // C*(x,y) ∧ NS*(x,y) forces x = y.
        s->uf[s->Find(pair.first)] = s->Find(pair.second);
        changed = true;
        break;  // re-canonicalize
      }
      // Within one family: keep the strongest atom (base < plus < star).
      auto strength = [](Axis a) {
        if (a == Axis::kChild || a == Axis::kNextSibling) return 0;
        if (a == Axis::kDescendant || a == Axis::kFollowingSibling) return 1;
        return 2;
      };
      Axis best = axes[0];
      for (Axis a : axes) {
        if (strength(a) < strength(best)) best = a;
      }
      bool drop = false;
      for (Axis a : axes) drop = drop || a != best;
      if (drop) {
        for (Axis a : axes) {
          if (a != best) s->atoms.erase({a, pair.first, pair.second});
        }
        changed = true;
      }
    }
    if (changed) continue;
    // Order consistency: strict cycles are unsatisfiable; a star atom whose
    // reverse order is known strengthens or dies.
    for (const auto& [axis, x, y] : s->atoms) {
      if (!IsStarAxis(axis)) {
        if (StrictlyBefore(*s, y, x)) return false;
      } else if (StrictlyBefore(*s, y, x)) {
        return false;  // R*(x,y) needs x = y or x < y
      } else if (StrictlyBefore(*s, x, y)) {
        // Known strict: strengthen star to plus deterministically.
        Axis plus = IsChildFamily(axis) ? Axis::kDescendant
                                        : Axis::kFollowingSibling;
        s->atoms.erase({axis, x, y});
        s->atoms.insert({plus, x, y});
        changed = true;
        break;
      }
    }
  }
  return true;
}

}  // namespace

Result<RewriteOutput> RewriteToAcyclicUnionLazy(
    const ConjunctiveQuery& input) {
  TREEQ_ASSIGN_OR_RETURN(Preprocessed pre, Preprocess(input));
  const ConjunctiveQuery& query = pre.query;
  const int k = query.num_vars();

  LazyState initial;
  initial.uf.resize(k);
  for (int i = 0; i < k; ++i) initial.uf[i] = i;
  for (const AxisAtom& a : query.axis_atoms()) {
    initial.atoms.insert({a.axis, a.var0, a.var1});
  }

  RewriteOutput output;
  std::vector<LazyState> worklist = {std::move(initial)};
  const int kStateCap = 1 << 20;  // far above any ordered Bell we reach
  int leaves = 0;

  while (!worklist.empty()) {
    if (static_cast<int>(worklist.size()) + leaves > kStateCap) {
      return Status::Internal("lazy rewrite state explosion");
    }
    LazyState state = std::move(worklist.back());
    worklist.pop_back();
    if (!NormalizeLazy(&state)) continue;

    // Find a conflict: a variable with two incoming atoms.
    std::map<int, std::vector<std::tuple<Axis, int, int>>> incoming;
    for (const auto& atom : state.atoms) {
      incoming[std::get<2>(atom)].push_back(atom);
    }
    const std::tuple<Axis, int, int>* a0 = nullptr;
    const std::tuple<Axis, int, int>* a1 = nullptr;
    for (const auto& [z, list] : incoming) {
      (void)z;
      if (list.size() >= 2) {
        a0 = &list[0];
        a1 = &list[1];
        break;
      }
    }

    if (a0 == nullptr) {
      // Acyclic leaf: emit.
      ++leaves;
      ConjunctiveQuery result;
      std::map<int, int> var_of;
      LazyState* sp = &state;
      auto map_var = [&var_of, &result, &query, sp](int v) {
        int rep = sp->Find(v);
        auto it = var_of.find(rep);
        if (it != var_of.end()) return it->second;
        int nv = result.AddVar(query.var_names()[rep]);
        var_of.emplace(rep, nv);
        return nv;
      };
      for (const auto& [axis, x, y] : state.atoms) {
        int vx = map_var(x);
        int vy = map_var(y);
        result.AddAxisAtom(axis, vx, vy);
      }
      std::set<std::pair<std::string, int>> label_seen;
      for (const LabelAtom& a : query.label_atoms()) {
        int v = map_var(a.var);
        if (label_seen.insert({a.label, v}).second) {
          result.AddLabelAtom(a.label, v);
        }
      }
      for (int h : query.head_vars()) result.AddHeadVar(map_var(h));
      output.queries.push_back(std::move(result));
      continue;
    }

    const auto& [axis0, x0, z0] = *a0;
    const auto& [axis1, x1, z1] = *a1;
    TREEQ_CHECK(z0 == z1);
    // Star atoms in the conflict: split into "=" and "+" readings.
    if (IsStarAxis(axis0) || IsStarAxis(axis1)) {
      const auto& star = IsStarAxis(axis0) ? *a0 : *a1;
      const auto& [saxis, sx, sz] = star;
      LazyState merged = state;
      merged.atoms.erase(star);
      merged.uf[merged.Find(sx)] = merged.Find(sz);
      worklist.push_back(std::move(merged));
      LazyState strict = state;
      strict.atoms.erase(star);
      strict.atoms.insert({IsChildFamily(saxis) ? Axis::kDescendant
                                                : Axis::kFollowingSibling,
                           sx, sz});
      worklist.push_back(std::move(strict));
      continue;
    }
    // Both strict: we need the order between the two sources.
    auto resolve = [&](LazyState s, const std::tuple<Axis, int, int>& first,
                       const std::tuple<Axis, int, int>& second) {
      // first's source precedes second's source: Table 1 on (R, S).
      const auto& [raxis, rx, rz] = first;
      const auto& [saxis2, sy, sz2] = second;
      (void)sz2;
      if (!Table1Satisfiable(AsRewriteAxis(raxis), AsRewriteAxis(saxis2))) {
        return;  // dead branch
      }
      s.atoms.erase(first);
      s.atoms.insert({raxis, rx, sy});
      worklist.push_back(std::move(s));
    };
    if (x0 == x1) {
      // Same source with two different (post-normalization) atoms to the
      // same target can only be a cross-family conflict, which
      // NormalizeLazy already killed; same-family pairs were collapsed.
      TREEQ_CHECK(false);
      continue;
    }
    if (StrictlyBefore(state, x0, x1)) {
      resolve(std::move(state), *a0, *a1);
    } else if (StrictlyBefore(state, x1, x0)) {
      resolve(std::move(state), *a1, *a0);
    } else {
      // Branch three ways on the sources' relation.
      LazyState merged = state;
      merged.uf[merged.Find(x0)] = merged.Find(x1);
      worklist.push_back(std::move(merged));
      LazyState before = state;
      before.less.insert({x0, x1});
      resolve(std::move(before), *a0, *a1);
      LazyState after = std::move(state);
      after.less.insert({x1, x0});
      resolve(std::move(after), *a1, *a0);
    }
  }
  output.order_types_considered = leaves;
  return output;
}

Result<std::optional<ConjunctiveQuery>> RewriteChildNextSibling(
    const ConjunctiveQuery& input) {
  TREEQ_ASSIGN_OR_RETURN(Preprocessed pre, Preprocess(input));
  const ConjunctiveQuery& query = pre.query;
  for (Axis axis : query.AxesUsed()) {
    if (axis != Axis::kChild && axis != Axis::kNextSibling) {
      return Status::Unsupported(
          std::string("RewriteChildNextSibling supports only Child and "
                      "NextSibling; got ") +
          AxisName(axis));
    }
  }

  const int k = query.num_vars();
  VarUnion uf(k);
  // Atom set under rewriting; dedup via std::set.
  std::set<std::tuple<Axis, int, int>> atoms;
  for (const AxisAtom& a : query.axis_atoms()) {
    atoms.insert({a.axis, a.var0, a.var1});
  }

  auto canonicalize = [&]() {
    std::set<std::tuple<Axis, int, int>> next;
    for (const auto& [axis, x, y] : atoms) {
      next.insert({axis, uf.Find(x), uf.Find(y)});
    }
    atoms = std::move(next);
  };

  auto has_cycle = [&]() {
    // Every atom implies source <pre target, so any directed cycle is
    // unsatisfiable.
    std::map<int, std::vector<int>> adj;
    for (const auto& [axis, x, y] : atoms) {
      (void)axis;
      adj[x].push_back(y);
    }
    std::map<int, int> state;  // 0 new, 1 active, 2 done
    std::vector<std::pair<int, size_t>> stack;
    for (const auto& [start, _] : adj) {
      if (state[start] != 0) continue;
      stack.push_back({start, 0});
      state[start] = 1;
      while (!stack.empty()) {
        auto& [v, idx] = stack.back();
        auto it = adj.find(v);
        if (it == adj.end() || idx >= it->second.size()) {
          state[v] = 2;
          stack.pop_back();
          continue;
        }
        int w = it->second[idx++];
        if (state[w] == 1) return true;
        if (state[w] == 0) {
          state[w] = 1;
          stack.push_back({w, 0});
        }
      }
    }
    return false;
  };

  const int kMaxIterations = 4 * (static_cast<int>(atoms.size()) + 1) *
                             (k + 1) * (k + 1);
  for (int iter = 0; iter < kMaxIterations; ++iter) {
    canonicalize();
    // Irreflexivity.
    for (const auto& [axis, x, y] : atoms) {
      (void)axis;
      if (x == y) return std::optional<ConjunctiveQuery>();
    }
    if (has_cycle()) return std::optional<ConjunctiveQuery>();

    // Find a target with two distinct in-atoms.
    std::map<int, std::vector<std::tuple<Axis, int, int>>> incoming;
    for (const auto& atom : atoms) {
      incoming[std::get<2>(atom)].push_back(atom);
    }
    bool changed = false;
    for (const auto& [z, list] : incoming) {
      (void)z;
      if (list.size() < 2) continue;
      const auto& [axis_a, xa, za] = list[0];
      const auto& [axis_b, xb, zb] = list[1];
      TREEQ_CHECK(za == zb);
      if (axis_a == axis_b) {
        // Child is backward-functional; so is NextSibling: sources equal.
        uf.Union(xa, xb);
      } else {
        // One Child atom, one NextSibling atom: the parent of z is also
        // the parent of z's previous sibling.
        if (axis_a == Axis::kChild) {
          atoms.erase({axis_a, xa, za});
          atoms.insert({Axis::kChild, xa, xb});
        } else {
          atoms.erase({axis_b, xb, zb});
          atoms.insert({Axis::kChild, xb, xa});
        }
      }
      changed = true;
      break;
    }
    if (!changed) {
      // Fixpoint: emit the acyclic query over the unified variables.
      ConjunctiveQuery result;
      std::map<int, int> var_of;
      auto map_var = [&](int v) {
        int rep = uf.Find(v);
        auto it = var_of.find(rep);
        if (it != var_of.end()) return it->second;
        int nv = result.AddVar(query.var_names()[rep]);
        var_of.emplace(rep, nv);
        return nv;
      };
      for (const auto& [axis, x, y] : atoms) {
        result.AddAxisAtom(axis, map_var(x), map_var(y));
      }
      std::set<std::pair<std::string, int>> label_seen;
      for (const LabelAtom& a : query.label_atoms()) {
        int v = map_var(a.var);
        if (label_seen.insert({a.label, v}).second) {
          result.AddLabelAtom(a.label, v);
        }
      }
      for (int h : query.head_vars()) result.AddHeadVar(map_var(h));
      // Isolated variables (all of whose atoms were dropped) must still be
      // registered so head vars resolve.
      return std::optional<ConjunctiveQuery>(std::move(result));
    }
  }
  return Status::Internal("RewriteChildNextSibling failed to converge");
}

}  // namespace cq
}  // namespace treeq
