// Negative fixture for the flat-size check: transfer delays computed
// from flat message sizes under src/ (posed as a file there), plus the
// nearby shapes that must NOT fire.

#include <cstdint>

namespace axml {

constexpr uint64_t kFlatMsgBytes = 64;

void Delays(const Topology& topo, Network* net, PeerId a, PeerId b,
            const wire::Payload& p, uint64_t bytes) {
  // An integer literal or a k...Bytes constant as an argument fires.
  double d = topo.Get(a, b).TransferTime(64);  // MUST be flagged
  d += topo.Get(a, b).TransferTime(kFlatMsgBytes);  // MUST be flagged
  d += net->EstimateTransferTime(a, b, 128u);  // MUST be flagged
  d += net->EstimateTransferTime(  // MUST be flagged
      a, b, kFlatMsgBytes + (bytes - 1) * 16);

  // Sizes of what is carried stay silent, and so do literals nested
  // inside a peer id or a cast.
  d += topo.Get(a, b).TransferTime(p.size());
  d += net->EstimateTransferTime(PeerId(0), b, bytes);
  d += topo.Get(a, b).TransferTime(static_cast<uint64_t>(bytes));

  // A declaration names a parameter, not a size.
  // double TransferTime(uint64_t bytes) const;

  // The waiver works on the line or the line above.
  d += topo.Get(a, b).TransferTime(64);  // lint: allow-flat-size
  // lint: allow-flat-size — the reason goes here.
  d += topo.Get(a, b).TransferTime(64);
  (void)d;
}

}  // namespace axml
