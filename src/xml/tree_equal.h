// Unordered tree equality and the canonical-form oracle (§2.1, §2.3).
//
// The paper's document-equivalence ≡ is defined in terms of fixpoints of
// service-call activation [5] and is not computable in general. Deployed
// systems need a decidable, conservative check; we provide *unordered
// structural equality*: two trees are equal iff their labels/text match
// and their child multisets are equal (node identifiers are ignored —
// copies are equal to their originals). This is exactly the equality used
// to compare final system states in the rule-equivalence property tests,
// and the building block the GenericCatalog uses when verifying declared
// equivalence classes.
//
// TreesEqualUnordered runs on the Merkle walk (digest.h): a digest check,
// then a structural confirm. It builds no strings. CanonicalForm is the
// string-building reference oracle it is tested against; outside this
// file only tests, benchmarks and AxmlSystem::StateFingerprint call it
// (scripts/check_source.py, canonical-string).

#ifndef AXML_XML_TREE_EQUAL_H_
#define AXML_XML_TREE_EQUAL_H_

#include <string>

#include "xml/tree.h"

namespace axml {

/// Canonical serialization: children sorted by their own canonical form.
/// Two trees are unordered-equal iff their canonical forms are identical.
/// Costs O(n log n) comparisons over subtree strings — an oracle, not a
/// hot path.
std::string CanonicalForm(const TreeNode& node);

/// Unordered deep equality, ignoring node identifiers and sibling order.
bool TreesEqualUnordered(const TreeNode& a, const TreeNode& b);

}  // namespace axml

#endif  // AXML_XML_TREE_EQUAL_H_
