#include "tree/axes.h"

#include <algorithm>
#include <utility>

#include "obs/obs.h"

namespace treeq {

Axis InverseAxis(Axis axis) {
  switch (axis) {
    case Axis::kSelf:
      return Axis::kSelf;
    case Axis::kChild:
      return Axis::kParent;
    case Axis::kParent:
      return Axis::kChild;
    case Axis::kDescendant:
      return Axis::kAncestor;
    case Axis::kAncestor:
      return Axis::kDescendant;
    case Axis::kDescendantOrSelf:
      return Axis::kAncestorOrSelf;
    case Axis::kAncestorOrSelf:
      return Axis::kDescendantOrSelf;
    case Axis::kNextSibling:
      return Axis::kPrevSibling;
    case Axis::kPrevSibling:
      return Axis::kNextSibling;
    case Axis::kFollowingSibling:
      return Axis::kPrecedingSibling;
    case Axis::kPrecedingSibling:
      return Axis::kFollowingSibling;
    case Axis::kFollowingSiblingOrSelf:
      return Axis::kPrecedingSiblingOrSelf;
    case Axis::kPrecedingSiblingOrSelf:
      return Axis::kFollowingSiblingOrSelf;
    case Axis::kFollowing:
      return Axis::kPreceding;
    case Axis::kPreceding:
      return Axis::kFollowing;
    case Axis::kFirstChild:
      return Axis::kFirstChildInv;
    case Axis::kFirstChildInv:
      return Axis::kFirstChild;
  }
  TREEQ_CHECK(false);
  return Axis::kSelf;
}

const char* AxisName(Axis axis) {
  switch (axis) {
    case Axis::kSelf:
      return "self";
    case Axis::kChild:
      return "child";
    case Axis::kParent:
      return "parent";
    case Axis::kDescendant:
      return "descendant";
    case Axis::kAncestor:
      return "ancestor";
    case Axis::kDescendantOrSelf:
      return "descendant-or-self";
    case Axis::kAncestorOrSelf:
      return "ancestor-or-self";
    case Axis::kNextSibling:
      return "next-sibling";
    case Axis::kPrevSibling:
      return "prev-sibling";
    case Axis::kFollowingSibling:
      return "following-sibling";
    case Axis::kPrecedingSibling:
      return "preceding-sibling";
    case Axis::kFollowingSiblingOrSelf:
      return "following-sibling-or-self";
    case Axis::kPrecedingSiblingOrSelf:
      return "preceding-sibling-or-self";
    case Axis::kFollowing:
      return "following";
    case Axis::kPreceding:
      return "preceding";
    case Axis::kFirstChild:
      return "first-child";
    case Axis::kFirstChildInv:
      return "first-child-inv";
  }
  TREEQ_CHECK(false);
  return "";
}

Result<Axis> ParseAxis(std::string_view name) {
  struct Alias {
    const char* name;
    Axis axis;
  };
  static constexpr Alias kAliases[] = {
      {"self", Axis::kSelf},
      {"Self", Axis::kSelf},
      {"child", Axis::kChild},
      {"Child", Axis::kChild},
      {"parent", Axis::kParent},
      {"Parent", Axis::kParent},
      {"Child-", Axis::kParent},
      {"descendant", Axis::kDescendant},
      {"Descendant", Axis::kDescendant},
      {"Child+", Axis::kDescendant},
      {"ancestor", Axis::kAncestor},
      {"Ancestor", Axis::kAncestor},
      {"descendant-or-self", Axis::kDescendantOrSelf},
      {"Descendant-or-self", Axis::kDescendantOrSelf},
      {"Child*", Axis::kDescendantOrSelf},
      {"ancestor-or-self", Axis::kAncestorOrSelf},
      {"Ancestor-or-self", Axis::kAncestorOrSelf},
      {"next-sibling", Axis::kNextSibling},
      {"NextSibling", Axis::kNextSibling},
      {"prev-sibling", Axis::kPrevSibling},
      {"PrevSibling", Axis::kPrevSibling},
      {"NextSibling-", Axis::kPrevSibling},
      {"following-sibling", Axis::kFollowingSibling},
      {"Following-Sibling", Axis::kFollowingSibling},
      {"NextSibling+", Axis::kFollowingSibling},
      {"preceding-sibling", Axis::kPrecedingSibling},
      {"Preceding-Sibling", Axis::kPrecedingSibling},
      {"following-sibling-or-self", Axis::kFollowingSiblingOrSelf},
      {"NextSibling*", Axis::kFollowingSiblingOrSelf},
      {"preceding-sibling-or-self", Axis::kPrecedingSiblingOrSelf},
      {"following", Axis::kFollowing},
      {"Following", Axis::kFollowing},
      {"preceding", Axis::kPreceding},
      {"Preceding", Axis::kPreceding},
      {"first-child", Axis::kFirstChild},
      {"FirstChild", Axis::kFirstChild},
      {"first-child-inv", Axis::kFirstChildInv},
  };
  for (const Alias& a : kAliases) {
    if (name == a.name) return a.axis;
  }
  return Status::ParseError("unknown axis: " + std::string(name));
}

bool IsTransitiveAxis(Axis axis) {
  switch (axis) {
    case Axis::kDescendant:
    case Axis::kAncestor:
    case Axis::kDescendantOrSelf:
    case Axis::kAncestorOrSelf:
    case Axis::kFollowingSibling:
    case Axis::kPrecedingSibling:
    case Axis::kFollowingSiblingOrSelf:
    case Axis::kPrecedingSiblingOrSelf:
    case Axis::kFollowing:
    case Axis::kPreceding:
      return true;
    default:
      return false;
  }
}

bool IsForwardAxis(Axis axis) {
  switch (axis) {
    case Axis::kSelf:
    case Axis::kChild:
    case Axis::kDescendant:
    case Axis::kDescendantOrSelf:
    case Axis::kNextSibling:
    case Axis::kFollowingSibling:
    case Axis::kFollowingSiblingOrSelf:
    case Axis::kFollowing:
    case Axis::kFirstChild:
      return true;
    default:
      return false;
  }
}

bool AxisHolds(const Tree& tree, const TreeOrders& orders, Axis axis, NodeId u,
               NodeId v) {
  switch (axis) {
    case Axis::kSelf:
      return u == v;
    case Axis::kChild:
      return tree.parent(v) == u;
    case Axis::kParent:
      return tree.parent(u) == v;
    case Axis::kDescendant:
      return orders.IsProperAncestor(u, v);
    case Axis::kAncestor:
      return orders.IsProperAncestor(v, u);
    case Axis::kDescendantOrSelf:
      return u == v || orders.IsProperAncestor(u, v);
    case Axis::kAncestorOrSelf:
      return u == v || orders.IsProperAncestor(v, u);
    case Axis::kNextSibling:
      return tree.next_sibling(u) == v;
    case Axis::kPrevSibling:
      return tree.next_sibling(v) == u;
    case Axis::kFollowingSibling:
      return u != v && tree.parent(u) == tree.parent(v) &&
             tree.parent(u) != kNullNode && orders.pre[u] < orders.pre[v];
    case Axis::kPrecedingSibling:
      return AxisHolds(tree, orders, Axis::kFollowingSibling, v, u);
    case Axis::kFollowingSiblingOrSelf:
      return u == v ||
             AxisHolds(tree, orders, Axis::kFollowingSibling, u, v);
    case Axis::kPrecedingSiblingOrSelf:
      return u == v ||
             AxisHolds(tree, orders, Axis::kFollowingSibling, v, u);
    case Axis::kFollowing:
      return orders.IsFollowing(u, v);
    case Axis::kPreceding:
      return orders.IsFollowing(v, u);
    case Axis::kFirstChild:
      return tree.first_child(u) == v;
    case Axis::kFirstChildInv:
      return tree.first_child(v) == u;
  }
  TREEQ_CHECK(false);
  return false;
}

namespace {

// Inserts the nodes at pre ranks [begin, end) into `to`: a word fill when
// node ids coincide with pre ranks, a rank->node remap otherwise.
void InsertPreRange(const TreeOrders& orders, int begin, int end,
                    NodeSet* to) {
  if (orders.pre_is_identity) {
    to->InsertRange(begin, end);
    return;
  }
  for (int i = begin; i < end; ++i) to->Insert(orders.node_at_pre[i]);
}

// Marks descendants of `from` nodes. Subtrees are contiguous pre ranges, so
// the image is a union of word-filled ranges; ranges nested inside an
// already-covered subtree are skipped (subtree ranges form a laminar
// family, so after skipping, fills never overlap). Members must be visited
// in increasing pre rank: node-id order when pre_is_identity, otherwise via
// a scratch bitmap over pre ranks (bit enumeration is rank order for free —
// no comparator sort).
void DescendantImage(const TreeOrders& orders, const NodeSet& from,
                     bool include_self, NodeSet* to) {
  int covered = 0;  // pre ranks below this are already marked
  auto visit = [&](int rank, NodeId u) {
    const int end = orders.SubtreeEndPre(u);
    if (end <= covered) return;
    InsertPreRange(orders, rank + (include_self ? 0 : 1), end, to);
    covered = end;
  };
  if (orders.pre_is_identity) {
    from.ForEachMember([&](NodeId u) { visit(u, u); });
  } else if (from.size() * 8 >= orders.num_nodes()) {
    // Dense members: scan pre ranks directly and leap to the end of each
    // inserted subtree range — every rank the loop lands on is outside all
    // ranges inserted so far, so the probe count is n minus the inserted
    // mass, without materializing a rank-space copy of `from`.
    const int n = orders.num_nodes();
    for (int i = 0; i < n;) {
      NodeId v = orders.node_at_pre[i];
      if (from.Contains(v)) {
        InsertPreRange(orders, i + (include_self ? 0 : 1),
                       orders.SubtreeEndPre(v), to);
        i = orders.SubtreeEndPre(v);  // SubtreeEndPre > pre: always advances
      } else {
        ++i;
      }
    }
  } else {
    // Sparse members: remap them into rank space first so the watermark
    // scan touches O(|from| + n/64) words instead of probing every rank.
    NodeSet by_pre(orders.num_nodes());
    from.ForEachMember([&](NodeId u) { by_pre.Insert(orders.pre[u]); });
    by_pre.ForEachMember(
        [&](NodeId rank) { visit(rank, orders.node_at_pre[rank]); });
  }
}

// Marks ancestors of `from` nodes by walking parent chains, stopping at the
// first node already marked (its ancestors are marked too): O(|from| +
// |image|) instead of a full post-order pass.
void AncestorImage(const Tree& tree, const NodeSet& from, bool include_self,
                   NodeSet* to) {
  from.ForEachMember([&](NodeId u) {
    for (NodeId p = tree.parent(u); p != kNullNode && !to->Contains(p);
         p = tree.parent(p)) {
      to->Insert(p);
    }
  });
  if (include_self) to->UnionWith(from);
}

// Marks the forward (or backward) sibling chain of every member, with the
// same early-exit discipline as AncestorImage: a marked sibling implies the
// rest of its chain is marked.
void SiblingChainImage(const Tree& tree, const NodeSet& from, bool forward,
                       bool include_self, NodeSet* to) {
  from.ForEachMember([&](NodeId u) {
    if (forward) {
      for (NodeId s = tree.next_sibling(u);
           s != kNullNode && !to->Contains(s); s = tree.next_sibling(s)) {
        to->Insert(s);
      }
    } else {
      for (NodeId s = tree.prev_sibling(u);
           s != kNullNode && !to->Contains(s); s = tree.prev_sibling(s)) {
        to->Insert(s);
      }
    }
  });
  if (include_self) to->UnionWith(from);
}

// Siblings include the root (a one-element chain); following-sibling of the
// root is empty, as required, because its next_sibling link is null.

}  // namespace

void AxisImage(const Tree& tree, const TreeOrders& orders, Axis axis,
               const NodeSet& from, NodeSet* to) {
  const int n = tree.num_nodes();
  TREEQ_CHECK(from.universe() == n && to->universe() == n);
  to->Clear();
  // Every kernel makes at least one skip-scan pass over `from`'s words.
  TREEQ_OBS_COUNT("axes.words_scanned", from.num_words());
  switch (axis) {
    case Axis::kSelf:
      *to = from;
      return;
    case Axis::kChild:
      from.ForEachMember([&](NodeId u) {
        for (NodeId c = tree.first_child(u); c != kNullNode;
             c = tree.next_sibling(c)) {
          to->Insert(c);
        }
      });
      return;
    case Axis::kParent:
      from.ForEachMember([&](NodeId u) {
        if (tree.parent(u) != kNullNode) to->Insert(tree.parent(u));
      });
      return;
    case Axis::kDescendant:
      DescendantImage(orders, from, /*include_self=*/false, to);
      return;
    case Axis::kDescendantOrSelf:
      DescendantImage(orders, from, /*include_self=*/true, to);
      return;
    case Axis::kAncestor:
      AncestorImage(tree, from, /*include_self=*/false, to);
      return;
    case Axis::kAncestorOrSelf:
      AncestorImage(tree, from, /*include_self=*/true, to);
      return;
    case Axis::kNextSibling:
      from.ForEachMember([&](NodeId u) {
        if (tree.next_sibling(u) != kNullNode) {
          to->Insert(tree.next_sibling(u));
        }
      });
      return;
    case Axis::kPrevSibling:
      from.ForEachMember([&](NodeId u) {
        if (tree.prev_sibling(u) != kNullNode) {
          to->Insert(tree.prev_sibling(u));
        }
      });
      return;
    case Axis::kFollowingSibling:
      SiblingChainImage(tree, from, /*forward=*/true, /*include_self=*/false,
                        to);
      return;
    case Axis::kPrecedingSibling:
      SiblingChainImage(tree, from, /*forward=*/false, /*include_self=*/false,
                        to);
      return;
    case Axis::kFollowingSiblingOrSelf:
      SiblingChainImage(tree, from, /*forward=*/true, /*include_self=*/true,
                        to);
      return;
    case Axis::kPrecedingSiblingOrSelf:
      SiblingChainImage(tree, from, /*forward=*/false, /*include_self=*/true,
                        to);
      return;
    case Axis::kFollowing: {
      if (from.empty()) return;
      int threshold = n;  // pre rank from which nodes are in the image
      if (orders.pre_is_identity) {
        // Members arrive in pre order; once pre[u] >= threshold no later
        // member's subtree can end earlier, so the scan stops at the first
        // few set bits.
        from.ForEachMemberWhile([&](NodeId u) {
          if (u >= threshold) return false;
          threshold = std::min(threshold, orders.SubtreeEndPre(u));
          return true;
        });
      } else {
        from.ForEachMember([&](NodeId u) {
          threshold = std::min(threshold, orders.SubtreeEndPre(u));
        });
      }
      InsertPreRange(orders, threshold, n, to);
      return;
    }
    case Axis::kPreceding: {
      if (from.empty()) return;
      // The image is determined by the member with the largest pre rank m:
      // pre ranks [0, pre[m]) minus the proper ancestors of m.
      NodeId m = kNullNode;
      if (orders.pre_is_identity) {
        m = from.LastMember();  // last set bit = largest pre rank
      } else {
        from.ForEachMember([&](NodeId u) {
          if (m == kNullNode || orders.pre[u] > orders.pre[m]) m = u;
        });
      }
      InsertPreRange(orders, 0, orders.pre[m], to);
      for (NodeId p = tree.parent(m); p != kNullNode; p = tree.parent(p)) {
        to->Erase(p);
      }
      return;
    }
    case Axis::kFirstChild:
      from.ForEachMember([&](NodeId u) {
        if (tree.first_child(u) != kNullNode) {
          to->Insert(tree.first_child(u));
        }
      });
      return;
    case Axis::kFirstChildInv:
      from.ForEachMember([&](NodeId u) {
        if (tree.prev_sibling(u) == kNullNode &&
            tree.parent(u) != kNullNode) {
          to->Insert(tree.parent(u));
        }
      });
      return;
  }
  TREEQ_CHECK(false);
}

void AxisPartners(const Tree& tree, const TreeOrders& orders, Axis axis,
                  NodeId u, const NodeSet& within, std::vector<NodeId>* out) {
  const int n = tree.num_nodes();
  TREEQ_CHECK(within.universe() == n);
  out->clear();
  auto keep = [&](NodeId v) {
    if (v != kNullNode && within.Contains(v)) out->push_back(v);
  };
  // Partners of a pre-rank range; ranks are node ids when pre_is_identity.
  auto scan = [&](int begin, int end) {
    [[maybe_unused]] const int words = within.ForEachMemberInRange(
        begin, end, [&](NodeId v) { out->push_back(v); });
    TREEQ_OBS_COUNT("axes.words_scanned", words);
  };
  switch (axis) {
    case Axis::kSelf:
      keep(u);
      return;
    case Axis::kParent:
      keep(tree.parent(u));
      return;
    case Axis::kNextSibling:
      keep(tree.next_sibling(u));
      return;
    case Axis::kPrevSibling:
      keep(tree.prev_sibling(u));
      return;
    case Axis::kFirstChild:
      keep(tree.first_child(u));
      return;
    case Axis::kFirstChildInv:
      if (tree.prev_sibling(u) == kNullNode) keep(tree.parent(u));
      return;
    // Link walks: the partners come out in tree order, which need not be
    // node-id order, so they are sorted below.
    case Axis::kChild:
      for (NodeId c = tree.first_child(u); c != kNullNode;
           c = tree.next_sibling(c)) {
        keep(c);
      }
      break;
    case Axis::kAncestorOrSelf:
      keep(u);
      [[fallthrough]];
    case Axis::kAncestor:
      for (NodeId p = tree.parent(u); p != kNullNode; p = tree.parent(p)) {
        keep(p);
      }
      break;
    case Axis::kFollowingSiblingOrSelf:
      keep(u);
      [[fallthrough]];
    case Axis::kFollowingSibling:
      for (NodeId s = tree.next_sibling(u); s != kNullNode;
           s = tree.next_sibling(s)) {
        keep(s);
      }
      break;
    case Axis::kPrecedingSiblingOrSelf:
      keep(u);
      [[fallthrough]];
    case Axis::kPrecedingSibling:
      for (NodeId s = tree.prev_sibling(u); s != kNullNode;
           s = tree.prev_sibling(s)) {
        keep(s);
      }
      break;
    case Axis::kDescendant:
    case Axis::kDescendantOrSelf:
    case Axis::kFollowing:
      if (orders.pre_is_identity) {
        if (axis == Axis::kFollowing) {
          scan(orders.SubtreeEndPre(u), n);
        } else {
          scan(orders.pre[u] + (axis == Axis::kDescendant ? 1 : 0),
               orders.SubtreeEndPre(u));
        }
        return;
      }
      [[fallthrough]];
    case Axis::kPreceding: {
      NodeSet image(n);
      AxisImage(tree, orders, axis, NodeSet::Singleton(n, u), &image);
      image.IntersectWith(within);
      *out = image.ToVector();
      return;
    }
  }
  std::sort(out->begin(), out->end());
}

bool AxisImageMemoized(const Tree& tree, const TreeOrders& orders, Axis axis,
                       const NodeSet& from, NodeSet* to, AxisImageMemo* memo) {
  if (memo != nullptr && memo->Lookup(axis, from, to)) return true;
  AxisImage(tree, orders, axis, from, to);
  if (memo != nullptr) memo->Store(axis, from, *to);
  return false;
}

std::vector<std::pair<NodeId, NodeId>> MaterializeAxis(
    const Tree& tree, const TreeOrders& orders, Axis axis) {
  std::vector<std::pair<NodeId, NodeId>> out;
  const int n = tree.num_nodes();
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      if (AxisHolds(tree, orders, axis, u, v)) out.emplace_back(u, v);
    }
  }
  return out;
}

}  // namespace treeq
