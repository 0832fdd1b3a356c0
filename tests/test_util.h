// Shared helpers for the axml test suite.

#ifndef AXML_TESTS_TEST_UTIL_H_
#define AXML_TESTS_TEST_UTIL_H_

#include <cstdlib>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "net/catalog.h"
#include "net/network.h"
#include "xml/tree.h"
#include "xml/wire.h"
#include "xml/tree_equal.h"

namespace axml {
namespace testing {

/// Seed for randomized tests: the AXML_TEST_SEED environment variable
/// when set (CI pins it across a seed matrix so a flake reproduces as
/// `AXML_TEST_SEED=<n> ctest -R <test>`), otherwise `fallback`.
inline uint64_t TestSeed(uint64_t fallback) {
  const char* s = std::getenv("AXML_TEST_SEED");
  if (s == nullptr || *s == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(s, &end, 10);
  return end == s ? fallback : static_cast<uint64_t>(parsed);
}

/// A payload of exactly `n` bytes (n >= 2): a header of class `cls`
/// (data by default) and zero filler, for network tests that send a
/// given byte count.
inline wire::Payload PayloadOfSize(
    size_t n, wire::MessageClass cls = wire::MessageClass::kQuery) {
  AXML_CHECK_GE(n, wire::kHeaderBytes);
  std::string bytes(n, '\0');
  bytes[0] = static_cast<char>(wire::kWireVersion);
  bytes[1] = static_cast<char>(cls);
  return wire::Payload(std::move(bytes));
}

/// Looks `name` up through `cat` from `from` and runs `net`'s event loop
/// until it drains; returns the holders the lookup called back with.
/// Every lookup must call back exactly once.
inline std::vector<PeerId> LookupSync(CatalogBackend& cat, ResourceKind kind,
                                      const std::string& name, PeerId from,
                                      Network& net) {
  std::vector<PeerId> out;
  int calls = 0;
  cat.Lookup(kind, name, from, &net, [&](const std::vector<PeerId>& h) {
    out = h;
    ++calls;
  });
  net.loop()->Run();
  AXML_CHECK_EQ(calls, 1);
  return out;
}

/// Builds a product-catalog document:
///   <catalog> <product><name>item<i></name><price>P</price>
///             <category>C</category><desc>...</desc></product>* </catalog>
/// Prices are uniform in [0, 1000); categories cycle c0..c9. The shape
/// mirrors the data-intensive workloads the paper's applications imply.
inline TreePtr MakeCatalog(size_t n_products, NodeIdGen* gen, Rng* rng,
                           size_t desc_bytes = 32) {
  TreePtr catalog = TreeNode::Element("catalog", gen);
  for (size_t i = 0; i < n_products; ++i) {
    TreePtr prod = TreeNode::Element("product", gen);
    prod->AddChild(MakeTextElement("name", StrCat("item", i), gen));
    prod->AddChild(MakeTextElement(
        "price", std::to_string(rng->Uniform(1000)), gen));
    prod->AddChild(
        MakeTextElement("category", StrCat("c", i % 10), gen));
    if (desc_bytes > 0) {
      prod->AddChild(
          MakeTextElement("desc", rng->Identifier(desc_bytes), gen));
    }
    catalog->AddChild(std::move(prod));
  }
  return catalog;
}

/// A random labeled tree with `n` elements, for fuzz-ish round trips.
inline TreePtr MakeRandomTree(size_t n, NodeIdGen* gen, Rng* rng) {
  static const char* kLabels[] = {"a", "b", "c", "item", "node", "x"};
  std::vector<TreePtr> pool;
  pool.push_back(TreeNode::Element("root", gen));
  for (size_t i = 1; i < n; ++i) {
    TreePtr parent = pool[rng->Index(pool.size())];
    TreePtr child = TreeNode::Element(kLabels[rng->Index(6)], gen);
    if (rng->Bernoulli(0.4)) {
      child->AddChild(TreeNode::Text(rng->Identifier(6)));
    }
    parent->AddChild(child);
    pool.push_back(child);
  }
  return pool[0];
}

/// A pair of trees for cross-checking DigestOf, TreesEqualUnordered
/// and the wire encoding against the CanonicalForm oracle.
struct NearMiss {
  std::string edit;
  TreePtr a;
  TreePtr b;
  /// Whether a and b are unordered-equal, when the edit decides it.
  std::optional<bool> equal;
};

/// Seeded near misses of `t`, one edit each: relabel one node, edit one
/// text, move one child, add a duplicate sibling (and the same duplicate
/// elsewhere), shuffle every child list. `t` is not modified.
inline std::vector<NearMiss> MakeNearMisses(const TreePtr& t, NodeIdGen* gen,
                                            Rng* rng) {
  // Every non-root node of `root` with its parent and child index.
  struct Slot {
    TreeNode* parent;
    size_t index;
  };
  auto slots = [](const TreePtr& root) {
    std::vector<Slot> out;
    std::function<void(TreeNode*)> walk = [&](TreeNode* n) {
      for (size_t i = 0; i < n->child_count(); ++i) {
        out.push_back({n, i});
        walk(n->child(i).get());
      }
    };
    walk(root.get());
    return out;
  };
  auto pick = [rng](const std::vector<Slot>& from, auto keep) {
    std::vector<Slot> ok;
    for (const Slot& s : from) {
      if (keep(*s.parent->child(s.index))) ok.push_back(s);
    }
    return ok.empty() ? std::optional<Slot>() : ok[rng->Index(ok.size())];
  };
  auto is_element = [](const TreeNode& n) { return n.is_element(); };
  auto is_text = [](const TreeNode& n) { return n.is_text(); };
  std::vector<NearMiss> out;

  TreePtr shuffled = t->CloneSameIds();
  for (const Slot& s : slots(shuffled)) {
    TreeNode* p = s.parent;
    TreePtr moved = p->child(s.index);
    p->RemoveChild(s.index);
    p->InsertChild(rng->Index(p->child_count() + 1), moved);
  }
  out.push_back({"shuffle", t, shuffled, true});

  TreePtr relabeled = t->CloneSameIds();
  if (auto s = pick(slots(relabeled), is_element)) {
    const TreePtr& old = s->parent->child(s->index);
    TreePtr renamed = TreeNode::Element(old->label_text() + "~", gen);
    for (const TreePtr& c : old->children()) renamed->AddChild(c);
    s->parent->ReplaceChild(s->index, renamed);
    out.push_back({"relabel", t, relabeled, false});
  }

  TreePtr edited = t->CloneSameIds();
  if (auto s = pick(slots(edited), is_text)) {
    TreeNode* leaf = s->parent->child(s->index).get();
    leaf->set_text(leaf->text() + "!");
    out.push_back({"edit text", t, edited, false});
  }

  TreePtr moved = t->CloneSameIds();
  const std::vector<Slot> all = slots(moved);
  if (auto s = pick(all, [](const TreeNode&) { return true; })) {
    TreePtr child = s->parent->child(s->index);
    // A new parent outside the moved subtree, other than the old one.
    std::vector<TreeNode*> targets;
    if (moved.get() != s->parent) targets.push_back(moved.get());
    for (const Slot& o : all) {
      TreeNode* n = o.parent->child(o.index).get();
      if (n->is_element() && n != s->parent &&
          child->FindNode(n->id()) == nullptr) {
        targets.push_back(n);
      }
    }
    if (!targets.empty()) {
      s->parent->RemoveChild(s->index);
      targets[rng->Index(targets.size())]->AddChild(child);
      out.push_back({"move child", t, moved, std::nullopt});
    }
  }

  TreePtr dup = t->CloneSameIds();
  TreePtr dup_elsewhere = t->CloneSameIds();
  if (auto s = pick(slots(dup), [](const TreeNode&) { return true; })) {
    TreeNode* p = s->parent;
    p->AddChild(p->child(s->index)->Clone(gen));
    // The same duplicate in the other copy, inserted at a random spot.
    TreeNode* q = dup_elsewhere->FindNode(p->id());
    q->InsertChild(rng->Index(q->child_count() + 1),
                   q->child(s->index)->Clone(gen));
    out.push_back({"duplicate sibling", t, dup, false});
    out.push_back({"duplicate elsewhere", dup, dup_elsewhere, true});
  }
  return out;
}

/// Multiset equality of two result streams under unordered tree
/// equality.
inline bool ResultsEqual(const std::vector<TreePtr>& a,
                         const std::vector<TreePtr>& b) {
  if (a.size() != b.size()) return false;
  std::vector<std::string> ca, cb;
  for (const auto& t : a) ca.push_back(CanonicalForm(*t));
  for (const auto& t : b) cb.push_back(CanonicalForm(*t));
  std::sort(ca.begin(), ca.end());
  std::sort(cb.begin(), cb.end());
  return ca == cb;
}

}  // namespace testing
}  // namespace axml

#endif  // AXML_TESTS_TEST_UTIL_H_
