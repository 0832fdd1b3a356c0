// Negative fixture for the size-estimate check: XML-text size
// estimates and clone-shipping under src/ (posed as a file there), plus
// the nearby shapes that must NOT fire.

#include <cstdint>

namespace axml {

void PricedPaths(Tree* tree, Net* net, PeerId from, PeerId to) {
  // Both estimate shapes fire.
  const uint64_t a = tree->SerializedSize();  // MUST be flagged
  const uint64_t b = (*tree).SerializedSize();  // MUST be flagged

  // A clone handed straight to a send fires, whatever the send flavor.
  net->Send(from, to, tree->Clone(gen));  // MUST be flagged
  net->SendReliable(from, to, tree->Clone(gen), deliver);  // MUST be flagged
  net->SendNotify(from, to, t.Clone(gen));  // MUST be flagged

  // The sanctioned forms stay silent: encoded sizes and payloads.
  const uint64_t c = wire::EncodedTreeSize(*tree);
  net->SendReliable(from, to, wire::Payload(wire::EncodeTree(*tree)), fn);

  // A clone that stays in-process is fine (local materialization).
  TreePtr local = tree->Clone(gen);

  // A declaration/definition of a method named SerializedSize is not a
  // call site.
  // size_t SerializedSize() const;

  // The waiver works on the line or the line above.
  const uint64_t d = tree->SerializedSize();  // lint: allow-size-estimate
  // lint: allow-size-estimate — the reason goes here.
  const uint64_t e = tree->SerializedSize();
  (void)a; (void)b; (void)c; (void)d; (void)e;
}

}  // namespace axml
