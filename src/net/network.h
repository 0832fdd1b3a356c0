// The simulated transport: delivers opaque payloads between peers with
// latency + bandwidth delays, FIFO per directed link, full accounting.
//
// Substitution note (DESIGN.md): the paper's SOAP/WSDL transport is
// replaced by this simulator. Every send carries an encoded
// wire::Payload (xml/wire.h), data and control alike, and the byte size
// charged for each message is that payload's size. There are two send
// primitives, Send and SendReliable (Send plus the one retry rule), and
// each carries one message one way. An exchange with an answer is two
// messages: the receiver of the request builds the answer from the
// request it decoded and sends it back on the reverse link. Whether a
// message is data or control, and the span it is traced under, follow
// from its message class (wire::TrafficOf).

#ifndef AXML_NET_NETWORK_H_
#define AXML_NET_NETWORK_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "common/ids.h"
#include "common/sequence_checker.h"
#include "common/thread_annotations.h"
#include "net/event_loop.h"
#include "net/net_stats.h"
#include "net/topology.h"
#include "obs/trace.h"
#include "xml/wire.h"

namespace axml {

class FaultInjector;

/// Point-to-point message fabric over an EventLoop. Affine to the
/// loop's driving sequence (SequenceChecker-enforced): the in-flight
/// link bookkeeping and stats are touched from Send paths and from
/// delivery callbacks, which the single-sequence loop serializes.
class Network {
 public:
  /// Called on the destination peer when a message arrives.
  using DeliverFn = std::function<void()>;
  /// Payload-carrying variant: the destination receives the encoded
  /// bytes that were priced — decode happens there, never en route.
  using PayloadDeliverFn = std::function<void(const wire::Payload&)>;

  Network(EventLoop* loop, Topology topology)
      : loop_(loop), topology_(std::move(topology)) {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Sends `payload` from `from` to `to`; `on_deliver` receives it at
  /// the arrival time. The priced size IS `payload.size()`, the only
  /// size a send knows. Messages on the same directed link are
  /// serialized FIFO: a message starts transmitting only after the
  /// previous one finished (propagation overlaps, as on a real pipe).
  /// Every send also tallies the payload's message class (NetStats::
  /// class_messages/bytes).
  void Send(PeerId from, PeerId to, wire::Payload payload,
            PayloadDeliverFn on_deliver);
  /// Like Send, but retransmits deterministically (one RTO, about one
  /// RTT, after the fabric drops it) so the payload eventually lands
  /// under lossy-link or partition-window fault schedules. Each
  /// retransmission is charged to NetStats like a fresh message. Gives
  /// up under the one retry rule (see Retry), and then runs
  /// `on_abandon` (if any) instead of `on_deliver`. On a perfect fabric
  /// this is byte-identical to Send.
  void SendReliable(PeerId from, PeerId to, wire::Payload payload,
                    PayloadDeliverFn on_deliver,
                    DeliverFn on_abandon = nullptr);

  /// Attaches a fault injector that rules on every non-loopback message
  /// (nullptr detaches — the default, a perfect fabric).
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }

  /// Marks a peer crashed (`up` false) or rejoined (`up` true).
  /// Messages from a down peer are dropped at send time; messages *to*
  /// a down peer are dropped on arrival — they were already committed
  /// to the wire when the peer went down.
  void SetPeerUp(PeerId peer, bool up);
  bool IsPeerUp(PeerId peer) const;

  const Topology& topology() const { return topology_; }
  Topology* mutable_topology() { return &topology_; }
  EventLoop* loop() { return loop_; }
  const NetStats& stats() const {
    AXML_DCHECK_CALLED_ON_SEQUENCE(sequence_checker_);
    return stats_;
  }
  NetStats* mutable_stats() {
    AXML_DCHECK_CALLED_ON_SEQUENCE(sequence_checker_);
    return &stats_;
  }

  /// Hooks the causal tracer in (AxmlSystem wires its own): every
  /// message records a "net" span covering its time on the wire, and the
  /// delivery callback runs under the causal id that was current at Send
  /// time — the hop that carries a trace across the network without
  /// touching any message struct. nullptr detaches.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  /// Lower-bound one-way delay for `bytes` on link from->to (ignoring
  /// queueing); used by cost estimates and shipment timeouts.
  double EstimateTransferTime(PeerId from, PeerId to,
                              uint64_t bytes) const {
    return topology_.Get(from, to).TransferTime(bytes);
  }

 private:
  static uint64_t Key(PeerId a, PeerId b) {
    return (static_cast<uint64_t>(a.index()) << 32) | b.index();
  }

  /// Checks the endpoints and tallies `payload`'s message class; returns
  /// the payload shared, to ride in the delivery closures.
  std::shared_ptr<const wire::Payload> Admit(PeerId from, PeerId to,
                                             wire::Payload payload)
      AXML_REQUIRES(sequence_checker_);

  /// Shared FIFO-link scheduling behind Send/SendReliable: charges the
  /// message to NetStats::Record and traces it under its class's span
  /// kind ("msg", "notify" or "control"). Consults the fault injector
  /// and the peer up/down set; a dropped message still occupies the
  /// link (it was transmitted, then lost), is tallied via
  /// NetStats::RecordDrop + a "drop" trace span, and fires `on_drop`
  /// (if any) at what would have been the arrival time.
  void ScheduleDelivery(PeerId from, PeerId to,
                        std::shared_ptr<const wire::Payload> p,
                        PayloadDeliverFn on_deliver,
                        DeliverFn on_drop = nullptr)
      AXML_REQUIRES(sequence_checker_);

  /// One attempt of SendReliable. The one retry rule: a dropped attempt
  /// is sent again one RTO (2 x latency + transmit) later, recharged as
  /// fresh traffic, while both endpoints are up; once either is down
  /// the send stops and `on_abandon` (if any) runs. Retrying into a
  /// crashed peer would keep the event loop alive forever.
  void Retry(PeerId from, PeerId to, std::shared_ptr<const wire::Payload> p,
             PayloadDeliverFn on_deliver, DeliverFn on_abandon)
      AXML_REQUIRES(sequence_checker_);

  SequenceChecker sequence_checker_;
  EventLoop* loop_;
  Topology topology_;
  NetStats stats_ AXML_GUARDED_BY_CONTEXT(sequence_checker_);
  Tracer* tracer_ = nullptr;
  FaultInjector* injector_ = nullptr;
  /// Peers currently crashed (by index); empty on the happy path.
  std::unordered_set<uint32_t> down_peers_
      AXML_GUARDED_BY_CONTEXT(sequence_checker_);
  /// Per directed link: when the link becomes free to start transmitting.
  std::unordered_map<uint64_t, SimTime> link_busy_until_
      AXML_GUARDED_BY_CONTEXT(sequence_checker_);
};

}  // namespace axml

#endif  // AXML_NET_NETWORK_H_
