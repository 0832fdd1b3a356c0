#include "xml/digest.h"

#include <algorithm>
#include <cstdio>

#include "xml/wire.h"

namespace axml {

namespace {

// Domain tags: a text leaf and an element never feed the same word
// stream, whatever their bytes.
constexpr uint64_t kTextDomain = 0x7465787400000001ull;
constexpr uint64_t kElementDomain = 0x656C656D00000002ull;

/// splitmix64's finalizer: a bijective 64-bit avalanche.
uint64_t Mix(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Two independent 64-bit lanes over one word stream.
class Hasher {
 public:
  explicit Hasher(uint64_t domain)
      : hi_(Mix(domain)), lo_(Mix(domain ^ 0xC2B2AE3D27D4EB4Full)) {}

  void Word(uint64_t w) {
    hi_ = Mix(hi_ ^ w);
    lo_ = Mix(lo_ + w * 0x9E3779B97F4A7C15ull);
  }

  /// The bytes as little-endian words (the last one zero-padded), then
  /// the length, so padding never aliases real zero bytes.
  void Bytes(std::string_view s) {
    uint64_t w = 0;
    for (size_t i = 0; i < s.size(); ++i) {
      w |= uint64_t{static_cast<unsigned char>(s[i])} << (8 * (i % 8));
      if (i % 8 == 7) {
        Word(w);
        w = 0;
      }
    }
    if (s.size() % 8 != 0) Word(w);
    Word(s.size());
  }

  void Digest(const ContentDigest& d) {
    Word(d.hi);
    Word(d.lo);
  }

  ContentDigest Finish() const { return {hi_, lo_}; }

 private:
  uint64_t hi_;
  uint64_t lo_;
};

/// An element's hash up to its children: label, then child count. The
/// caller feeds the child digests in ascending order.
Hasher StartElement(std::string_view label, size_t child_count) {
  Hasher h(kElementDomain);
  h.Bytes(label);
  h.Word(child_count);
  return h;
}

int CompareStructure(const MerkleNode& a, const MerkleNode& b) {
  const TreeNode& x = *a.node;
  const TreeNode& y = *b.node;
  if (x.is_text() != y.is_text()) return x.is_text() ? -1 : 1;
  if (x.is_text()) return x.text().compare(y.text());
  if (x.label() != y.label()) return x.label_text().compare(y.label_text());
  if (a.kids.size() != b.kids.size()) {
    return a.kids.size() < b.kids.size() ? -1 : 1;
  }
  for (size_t i = 0; i < a.kids.size(); ++i) {
    if (const int c = CompareCanonical(a.kids[i], b.kids[i]); c != 0) {
      return c;
    }
  }
  return 0;
}

}  // namespace

std::string ContentDigest::ToString() const {
  char buf[34];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return buf;
}

MerkleNode MerkleTree(const TreeNode& root) {
  MerkleNode m;
  m.node = &root;
  // Tag byte, then a text leaf's length-prefixed bytes or an element's
  // label index (one byte) and child count.
  if (root.is_text()) {
    Hasher h(kTextDomain);
    h.Bytes(root.text());
    m.digest = h.Finish();
    m.bytes = 1 + wire::VarintSize(root.text().size()) + root.text().size();
    return m;
  }
  m.bytes = 2 + wire::VarintSize(root.child_count());
  m.kids.reserve(root.child_count());
  for (const TreePtr& child : root.children()) {
    m.kids.push_back(MerkleTree(*child));
    m.bytes += m.kids.back().bytes;
  }
  std::sort(m.kids.begin(), m.kids.end(),
            [](const MerkleNode& a, const MerkleNode& b) {
              return CompareCanonical(a, b) < 0;
            });
  Hasher h = StartElement(root.label_text(), m.kids.size());
  for (const MerkleNode& kid : m.kids) h.Digest(kid.digest);
  m.digest = h.Finish();
  return m;
}

int CompareCanonical(const MerkleNode& a, const MerkleNode& b) {
  if (a.digest != b.digest) return a.digest < b.digest ? -1 : 1;
  return CompareStructure(a, b);
}

ContentDigest DigestOf(const TreeNode& node) {
  return MerkleTree(node).digest;
}

ContentDigest ElementDigest(std::string_view label,
                            std::vector<ContentDigest> child_digests) {
  std::sort(child_digests.begin(), child_digests.end());
  Hasher h = StartElement(label, child_digests.size());
  for (const ContentDigest& d : child_digests) h.Digest(d);
  return h.Finish();
}

}  // namespace axml
