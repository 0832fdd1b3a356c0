// Subtree sharding: splitting one large document into content-addressed
// shards so partial copies become possible.
//
// A whole-tree copy (the paper's rule (13)) is all-or-nothing: a document
// bigger than a holder's byte budget can never be cached, refreshed or
// placed, however hot its subtrees are. The splitter partitions it:
//
//  - one Merkle walk (digest.h) gives every node its digest and its
//    encoded size; the splitter reads both from it, so a split is one
//    pass over the document plus the clones it ships;
//  - the root's children are grouped, in document order, into shards
//    whose encoded size — header, label table, the `#shard-data`
//    wrapper and the members — stays within
//    ShardingConfig::max_shard_bytes, the same bytes a shard is priced
//    at;
//  - a child bigger than the cap is split *recursively* under a nested
//    sub-manifest node, so no data shard exceeds the cap except a single
//    indivisible node (a text leaf or a childless/one-leaf element),
//    which travels alone and bumps ShardedDocument::oversized_leaves;
//  - each shard's id is the Merkle digest of its `#shard-data` element,
//    built from its members' digests. An unchanged group keeps its id
//    across versions, so a mutation of one subtree re-ships only the
//    shard holding it;
//  - a small *manifest* tree records the root element and the ordered
//    tree of shard ids; it ships, caches and dedups like any content.
//
// Reassembly (AssembleDocument) is exact up to node identifiers: the
// result is unordered-equal (tree_equal.h) to the original.
//
// Boundaries: under kContentDefined (the default) a group closes after a
// child whose digest satisfies `lo % 8 == 0`, once the group holds a
// quarter of the cap (and never past the cap), so an insertion or
// deletion re-synchronizes at the next surviving boundary child and
// dirties O(1) neighboring ids — LBFS-style content-defined chunking
// (Muthitacharoen et al., SOSP 2001) over sibling subtrees. Under
// kGreedy (kept for benches) a size-shifting mutation can move every
// later boundary, degrading toward whole-document re-shipment.

#ifndef AXML_XML_SHARDING_H_
#define AXML_XML_SHARDING_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "xml/digest.h"
#include "xml/tree.h"

namespace axml {

/// How the splitter chooses group boundaries among a node's children.
enum class ShardBoundary {
  /// Close the group when the next child would overflow the cap. Size
  /// shifts cascade: one insertion can dirty every downstream shard id.
  kGreedy,
  /// Close the group after a child whose content digest hits the
  /// boundary modulus (within the min/max clamps). Insertions and
  /// deletions dirty only the neighboring shard ids. The default.
  kContentDefined,
};

/// Knobs for the splitter.
struct ShardingConfig {
  /// Cap on one shard's encoded bytes. Also the sharding threshold: a
  /// document whose encoded size is at most this ships whole. A single
  /// indivisible node bigger than the cap still becomes one (oversized)
  /// shard; splittable oversized children are descended into instead.
  uint64_t max_shard_bytes = 64 * 1024;
  /// Boundary rule for grouping children. kContentDefined keeps shard
  /// ids stable around insertions/deletions.
  ShardBoundary boundary = ShardBoundary::kContentDefined;
};

/// One data shard: a group of sibling subtrees, wrapped for shipping.
struct DocumentShard {
  /// DigestOf(*content) — the shard's stable identity.
  ContentDigest id;
  /// A synthetic `#shard-data` element whose children are the group's
  /// subtrees (clones; the original tree is never aliased).
  TreePtr content;
  /// Encoded wire size of `content` (xml/wire.h) — what shipping this
  /// shard actually costs, and what the cap bounds; identical to
  /// EncodeTree(*content).size().
  uint64_t bytes = 0;
};

/// A split document: the manifest plus its data shards, in manifest
/// (depth-first) order.
struct ShardedDocument {
  /// `#manifest` element: one childless `#doc` clone of the original
  /// root, then — in document order — `#shard` text children (text = id
  /// hex) and `#submanifest` elements for recursively split children.
  /// A `#submanifest` has the same shape (its `#doc` holds the childless
  /// clone of the split child) and may nest further.
  TreePtr manifest;
  uint64_t manifest_bytes = 0;
  /// Every data shard at every nesting depth, in manifest order.
  std::vector<DocumentShard> shards;
  /// Indivisible nodes bigger than the cap that had to travel as their
  /// own oversized shard (also logged at Info by the splitter).
  uint64_t oversized_leaves = 0;
};

/// Splits `root` into a manifest and size-capped data shards, or
/// returns nullopt when it ships whole: when its encoded size is at
/// most the cap, or when it is not splittable — splittable means an
/// element with at least two children at some depth reachable through
/// single-child element chains (the recursive splitter descends such
/// chains, so a document whose size lives in one huge child still
/// shards). Shard contents are clones minted from `gen`; `root` is not
/// modified.
std::optional<ShardedDocument> SplitDocument(const TreeNode& root,
                                             const ShardingConfig& cfg,
                                             NodeIdGen* gen);

/// True when `node` looks like a manifest produced by SplitDocument.
bool IsShardManifest(const TreeNode& node);

/// The data-shard id hex strings a manifest references, nested
/// sub-manifests included, in depth-first manifest order (empty when
/// `manifest` is not a manifest). May contain duplicates when
/// byte-identical groups repeat.
std::vector<std::string> ManifestShardIds(const TreeNode& manifest);

/// The distinct shard ids `after` references that `before` did not —
/// what a delta against a copy of `before` must ship. The boundary
/// rule's quality metric: content-defined boundaries keep this O(1)
/// around an insertion or deletion where greedy cuts cascade.
std::vector<std::string> DirtiedShardIds(const ShardedDocument& before,
                                         const ShardedDocument& after);

/// Rebuilds the document a manifest describes, recursing into nested
/// sub-manifests. `shard_lookup` maps a shard-id hex string to that
/// shard's `#shard-data` content tree (as stored by a cache or carried
/// by a shipment); returning nullptr aborts the assembly. The result is
/// built from clones minted from `gen` — callers may hand it out without
/// aliasing cache blobs. Returns nullptr when `manifest` is malformed or
/// any shard is missing.
TreePtr AssembleDocument(
    const TreeNode& manifest,
    const std::function<TreePtr(const std::string& id_hex)>& shard_lookup,
    NodeIdGen* gen);

}  // namespace axml

#endif  // AXML_XML_SHARDING_H_
