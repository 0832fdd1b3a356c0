// Content digests: one bottom-up Merkle walk over unordered trees (§2.1).
//
// One post-order pass hashes every node — a text leaf from its bytes, an
// element from its label, its child count and its children's digests,
// sorted — so unordered-equal trees digest equal and node identifiers do
// not participate. The same pass yields the canonical child order
// (children sorted by digest; a digest tie is broken structurally, which
// keeps the order total) and each node's encoded size. The wire encoder
// walks that order, so equal trees encode byte-identically;
// TreesEqualUnordered is a digest check plus a structural confirm; the
// splitter (sharding.h) reads every child's digest and size from one
// walk of the document; the blob store and the shard ids are content
// addresses. Not cryptographic: a false match needs both 64-bit lanes
// to collide.

#ifndef AXML_XML_DIGEST_H_
#define AXML_XML_DIGEST_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "xml/tree.h"

namespace axml {

/// 128-bit order-insensitive Merkle digest of one tree.
struct ContentDigest {
  uint64_t hi = 0;
  uint64_t lo = 0;

  bool operator==(const ContentDigest&) const = default;
  bool operator<(const ContentDigest& o) const {
    return hi != o.hi ? hi < o.hi : lo < o.lo;
  }

  /// Lowercase hex, e.g. "3f2a...e1" (for traces and dumps).
  std::string ToString() const;
};

/// One node of the Merkle walk: its digest, its encoded size and its
/// children in canonical order. Borrows `node`; the tree must outlive
/// the walk.
struct MerkleNode {
  const TreeNode* node = nullptr;
  ContentDigest digest;
  /// The node's record as wire::EncodeTree writes it, children
  /// included: a text leaf is tag + length varint + text, an element is
  /// tag + label index + child-count varint + its children's `bytes`.
  /// The label index is counted as one byte, which is exact while the
  /// payload's label table holds fewer than 128 labels. The blob header
  /// and the label table are per payload, so they are not included.
  uint64_t bytes = 0;
  std::vector<MerkleNode> kids;
};

/// The single post-order pass: digests and sizes every node of `root`
/// and sorts each child list canonically (CompareCanonical).
MerkleNode MerkleTree(const TreeNode& root);

/// Total order over walked trees: by digest, and on a digest tie by
/// structure (kind, text or label, child count, then children in
/// canonical order). Returns <0, 0 or >0; 0 iff the trees are
/// unordered-equal.
int CompareCanonical(const MerkleNode& a, const MerkleNode& b);

/// Digest of `node` (the root hash of MerkleTree). Unordered-equal
/// trees digest equal; node identifiers do not participate.
ContentDigest DigestOf(const TreeNode& node);

/// Digest of an element labeled `label` whose children digest to
/// `child_digests`, in any order: DigestOf of that element, without
/// walking the children again.
ContentDigest ElementDigest(std::string_view label,
                            std::vector<ContentDigest> child_digests);

}  // namespace axml

#endif  // AXML_XML_DIGEST_H_
