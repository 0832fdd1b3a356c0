#include "xml/sharding.h"

#include <set>
#include <unordered_map>
#include <utility>

#include "common/logging.h"
#include "xml/wire.h"

namespace axml {

namespace {

constexpr const char kManifestLabel[] = "#manifest";
constexpr const char kSubManifestLabel[] = "#submanifest";
constexpr const char kDocLabel[] = "#doc";
constexpr const char kShardRefLabel[] = "#shard";
constexpr const char kShardDataLabel[] = "#shard-data";

/// Content-defined cuts wait until a group holds this fraction of the
/// cap (all-boundary content must not emit one shard per child).
constexpr uint64_t kMinShardDivisor = 4;
/// A child closes its group when `digest.lo % kBoundaryModulus == 0`:
/// past the min clamp, a group holds this many children on average.
constexpr uint64_t kBoundaryModulus = 8;

/// True when the recursive splitter can descend into `node`: an element
/// with >= 2 children, or a single-child element chain that reaches one.
bool Splittable(const TreeNode& node) {
  const TreeNode* cur = &node;
  while (cur->is_element()) {
    if (cur->child_count() >= 2) return true;
    if (cur->child_count() == 0) return false;
    cur = cur->child(0).get();
  }
  return false;  // the chain bottomed out in a text leaf
}

/// Adds the element labels of `m`'s subtree to `out`: the entries it
/// needs in a payload's label table.
void CollectLabels(const MerkleNode& m, std::set<LabelId>* out) {
  if (m.node->is_element()) out->insert(m.node->label());
  for (const MerkleNode& kid : m.kids) CollectLabels(kid, out);
}

/// A label's entry in a wire label table: length varint + text.
uint64_t EntryBytes(LabelId label) {
  return wire::VarintSize(LabelText(label).size()) + LabelText(label).size();
}

/// A shard being filled: its members and its label table.
struct Group {
  std::vector<const MerkleNode*> members;
  std::set<LabelId> labels;   // `#shard-data` and the members' labels
  uint64_t label_bytes = 0;   // the table's entries
  uint64_t member_bytes = 0;  // the members' records

  /// The encoded size of this group's `#shard-data` blob with `child`,
  /// whose subtree holds `child_labels`, added: header, label table
  /// (count varint + entries), the wrapper's record (tag, label index 0,
  /// member-count varint) and the members' records. Exact below 128
  /// labels per shard, as MerkleNode::bytes is.
  uint64_t BytesWith(const MerkleNode& child,
                     const std::set<LabelId>& child_labels) const {
    uint64_t n = labels.size();
    uint64_t table = label_bytes;
    for (LabelId label : child_labels) {
      if (labels.count(label) == 0) {
        ++n;
        table += EntryBytes(label);
      }
    }
    return wire::kHeaderBytes + wire::VarintSize(n) + table + 2 +
           wire::VarintSize(members.size() + 1) + member_bytes + child.bytes;
  }

  void Add(const MerkleNode& child, const std::set<LabelId>& child_labels) {
    members.push_back(&child);
    member_bytes += child.bytes;
    for (LabelId label : child_labels) {
      if (labels.insert(label).second) label_bytes += EntryBytes(label);
    }
  }
};

/// Shared state of one SplitDocument run.
struct Splitter {
  const ShardingConfig& cfg;
  NodeIdGen* gen;
  ShardedDocument* out;

  static Group EmptyGroup() {
    const LabelId wrapper = InternLabel(kShardDataLabel);
    return Group{{}, {wrapper}, EntryBytes(wrapper), 0};
  }

  /// Wraps `group` into a `#shard-data` shard, records it, appends its
  /// `#shard` reference under `manifest_node` and empties `group`. The
  /// id is built from the members' walked digests.
  void EmitGroup(Group& group, TreePtr& manifest_node) {
    if (group.members.empty()) return;
    TreePtr content = TreeNode::Element(kShardDataLabel, gen);
    std::vector<ContentDigest> digests;
    for (const MerkleNode* member : group.members) {
      content->AddChild(member->node->Clone(gen));
      digests.push_back(member->digest);
    }
    DocumentShard shard;
    shard.id = ElementDigest(kShardDataLabel, std::move(digests));
    shard.bytes = wire::EncodedTreeSize(*content);
    shard.content = std::move(content);
    manifest_node->AddChild(
        MakeTextElement(kShardRefLabel, shard.id.ToString(), gen));
    out->shards.push_back(std::move(shard));
    group = EmptyGroup();
  }

  /// Groups `walked`'s children into shards and sub-manifests, appending
  /// manifest entries (in document order) under `manifest_node`.
  void SplitChildren(const MerkleNode& walked, TreePtr& manifest_node) {
    const uint64_t cap = cfg.max_shard_bytes;
    // The walk sorts kids canonically; visit them in document order.
    std::unordered_map<const TreeNode*, const MerkleNode*> walked_kid;
    for (const MerkleNode& kid : walked.kids) walked_kid[kid.node] = &kid;
    Group group = EmptyGroup();
    for (const TreePtr& node : walked.node->children()) {
      const MerkleNode& child = *walked_kid.at(node.get());
      std::set<LabelId> labels;
      CollectLabels(child, &labels);
      uint64_t bytes = group.BytesWith(child, labels);
      // Max clamp, both modes: never let a group overflow the cap.
      if (!group.members.empty() && bytes > cap) {
        EmitGroup(group, manifest_node);
        bytes = group.BytesWith(child, labels);
      }
      if (bytes > cap && Splittable(*node)) {
        // Over the cap on its own: a nested sub-manifest stands in for
        // the child, and its own children group below.
        TreePtr sub = TreeNode::Element(kSubManifestLabel, gen);
        TreePtr holder = TreeNode::Element(kDocLabel, gen);
        holder->AddChild(TreeNode::Element(node->label_text(), gen));
        sub->AddChild(std::move(holder));
        SplitChildren(child, sub);
        manifest_node->AddChild(std::move(sub));
        continue;
      }
      group.Add(child, labels);
      if (bytes > cap) {
        // Indivisible (text leaf or a chain ending in one): it travels
        // alone, over the cap — the one shape the byte budget cannot
        // cut finer.
        ++out->oversized_leaves;
        AXML_LOG(Info) << "sharding: indivisible node of " << bytes
                       << " B exceeds the " << cap
                       << " B cap; shipping as an oversized shard";
        EmitGroup(group, manifest_node);
        continue;
      }
      // Content-defined cut: the boundary is a property of the child's
      // content, so an insertion or deletion upstream re-synchronizes at
      // the next surviving boundary child instead of shifting every
      // later group.
      if (cfg.boundary == ShardBoundary::kContentDefined &&
          bytes >= cap / kMinShardDivisor &&
          child.digest.lo % kBoundaryModulus == 0) {
        EmitGroup(group, manifest_node);
      }
    }
    EmitGroup(group, manifest_node);
  }
};

}  // namespace

std::optional<ShardedDocument> SplitDocument(const TreeNode& root,
                                             const ShardingConfig& cfg,
                                             NodeIdGen* gen) {
  if (!Splittable(root)) return std::nullopt;
  const MerkleNode walked = MerkleTree(root);
  std::set<LabelId> labels;
  CollectLabels(walked, &labels);
  uint64_t doc_bytes = wire::kHeaderBytes +
                       wire::VarintSize(labels.size()) + walked.bytes;
  for (LabelId label : labels) doc_bytes += EntryBytes(label);
  if (doc_bytes <= cfg.max_shard_bytes) return std::nullopt;

  TreePtr manifest = TreeNode::Element(kManifestLabel, gen);
  // `#doc` wraps a childless clone of the root element, preserving its
  // label for assembly (the wrapper keeps a root labeled `#shard` from
  // masquerading as a reference).
  TreePtr doc_holder = TreeNode::Element(kDocLabel, gen);
  doc_holder->AddChild(TreeNode::Element(root.label_text(), gen));
  manifest->AddChild(std::move(doc_holder));
  ShardedDocument out;
  Splitter{cfg, gen, &out}.SplitChildren(walked, manifest);
  out.manifest_bytes = wire::EncodedTreeSize(*manifest);
  out.manifest = std::move(manifest);
  return out;
}

bool IsShardManifest(const TreeNode& node) {
  return node.is_element() && node.label_text() == kManifestLabel;
}

namespace {

void CollectShardIds(const TreeNode& manifest_node,
                     std::vector<std::string>* ids) {
  for (const TreePtr& child : manifest_node.children()) {
    if (!child->is_element()) continue;
    if (child->label_text() == kShardRefLabel) {
      ids->push_back(child->StringValue());
    } else if (child->label_text() == kSubManifestLabel) {
      CollectShardIds(*child, ids);
    }
  }
}

/// Rebuilds the element a (sub-)manifest node describes. Shared by the
/// top-level assembly and the nested recursion.
TreePtr AssembleNode(
    const TreeNode& manifest_node,
    const std::function<TreePtr(const std::string& id_hex)>& shard_lookup,
    NodeIdGen* gen) {
  // Validate the shape first: exactly one #doc holding one childless
  // element; every other child a #shard reference or a nested
  // #submanifest.
  const TreeNode* doc = nullptr;
  for (const TreePtr& child : manifest_node.children()) {
    if (!child->is_element()) return nullptr;
    const std::string& label = child->label_text();
    if (label == kDocLabel) {
      if (doc != nullptr) return nullptr;  // two #doc children
      doc = child.get();
    } else if (label != kShardRefLabel && label != kSubManifestLabel) {
      return nullptr;
    }
  }
  if (doc == nullptr || doc->child_count() != 1) return nullptr;
  TreePtr root = doc->child(0)->Clone(gen);
  for (const TreePtr& child : manifest_node.children()) {
    if (child.get() == doc) continue;
    if (child->label_text() == kSubManifestLabel) {
      TreePtr sub = AssembleNode(*child, shard_lookup, gen);
      if (sub == nullptr) return nullptr;
      root->AddChild(std::move(sub));
      continue;
    }
    TreePtr content = shard_lookup(child->StringValue());
    if (content == nullptr || !content->is_element() ||
        content->label_text() != kShardDataLabel) {
      return nullptr;
    }
    for (const TreePtr& member : content->children()) {
      root->AddChild(member->Clone(gen));
    }
  }
  return root;
}

}  // namespace

std::vector<std::string> ManifestShardIds(const TreeNode& manifest) {
  std::vector<std::string> ids;
  if (!IsShardManifest(manifest)) return ids;
  CollectShardIds(manifest, &ids);
  return ids;
}

std::vector<std::string> DirtiedShardIds(const ShardedDocument& before,
                                         const ShardedDocument& after) {
  std::set<std::string> old_ids;
  for (const DocumentShard& s : before.shards) {
    old_ids.insert(s.id.ToString());
  }
  std::set<std::string> seen;
  std::vector<std::string> dirty;
  for (const DocumentShard& s : after.shards) {
    std::string id = s.id.ToString();
    if (old_ids.count(id) == 0 && seen.insert(id).second) {
      dirty.push_back(std::move(id));
    }
  }
  return dirty;
}

TreePtr AssembleDocument(
    const TreeNode& manifest,
    const std::function<TreePtr(const std::string& id_hex)>& shard_lookup,
    NodeIdGen* gen) {
  if (!IsShardManifest(manifest)) return nullptr;
  return AssembleNode(manifest, shard_lookup, gen);
}

}  // namespace axml
