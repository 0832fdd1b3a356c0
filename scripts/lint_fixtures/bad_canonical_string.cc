// Negative fixture for the canonical-string check: CanonicalForm calls
// outside the oracle's home, plus the nearby shapes that must NOT fire.
// Posed as a src/ file by check_source_test.py; posed as
// src/peer/system.cc, the StateFingerprint call becomes the sanctioned
// one.

#include <string>

namespace axml {

bool StaleCheck(const TreeNode& got, const TreeNode& truth) {
  return CanonicalForm(got) != CanonicalForm(truth);  // MUST be flagged
}

uint64_t Identity(const TreeNode& t) {
  const std::string form =
      CanonicalForm(t);  // MUST be flagged
  return form.size();
}

std::string AxmlSystem::StateFingerprint() const {
  std::string out;
  for (const TreePtr& root : roots_) {
    out += CanonicalForm(*root);  // flagged outside peer/system.cc
  }
  return out;
}

bool SanctionedForms(const TreeNode& a, const TreeNode& b) {
  // Digest and structural equality stay silent; so do comments and
  // strings that merely name it: CanonicalForm(a).
  const char* note = "CanonicalForm(x) is the oracle";
  (void)note;
  // A name that only ends in the word is another function.
  (void)MyCanonicalForm(a);
  // The waiver works on the line or the line above.
  (void)CanonicalForm(a);  // lint: allow-canonical-string
  return DigestOf(a) == DigestOf(b) && TreesEqualUnordered(a, b);
}

}  // namespace axml
