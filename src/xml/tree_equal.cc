#include "xml/tree_equal.h"

#include <algorithm>
#include <vector>

#include "common/str_util.h"
#include "xml/digest.h"

namespace axml {

std::string CanonicalForm(const TreeNode& node) {
  if (node.is_text()) {
    return StrCat("t:", node.text());
  }
  std::vector<std::string> kids;
  kids.reserve(node.child_count());
  for (const auto& c : node.children()) {
    kids.push_back(CanonicalForm(*c));
  }
  std::sort(kids.begin(), kids.end());
  std::string out = StrCat("e:", node.label_text(), "{");
  for (auto& k : kids) {
    out += k;
    out.push_back('|');
  }
  out.push_back('}');
  return out;
}

bool TreesEqualUnordered(const TreeNode& a, const TreeNode& b) {
  if (a.is_text() != b.is_text()) return false;
  if (a.is_text()) return a.text() == b.text();
  if (a.label() != b.label()) return false;
  if (a.child_count() != b.child_count()) return false;
  // CompareCanonical checks the digests first; only equal digests reach
  // the structural confirm.
  return CompareCanonical(MerkleTree(a), MerkleTree(b)) == 0;
}

}  // namespace axml
