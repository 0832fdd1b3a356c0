#include "net/network.h"

#include <algorithm>
#include <memory>

#include "common/logging.h"
#include "common/str_util.h"
#include "net/fault_injector.h"

namespace axml {

namespace {
// Floor for retry backoffs: virtual time must advance between attempts
// or a retry loop at a frozen timestamp would never leave a partition
// window (and never terminate).
constexpr SimTime kMinRetryDelay = 1e-6;

/// The trace span of each wire::Traffic kind, in enum order.
constexpr const char* kSpanKinds[] = {"msg", "notify", "control"};

}  // namespace

std::shared_ptr<const wire::Payload> Network::Admit(PeerId from, PeerId to,
                                                    wire::Payload payload) {
  AXML_CHECK(from.is_concrete());
  AXML_CHECK(to.is_concrete());
  stats_.RecordPayload(payload.message_class(), payload.size());
  return std::make_shared<const wire::Payload>(std::move(payload));
}

void Network::Send(PeerId from, PeerId to, wire::Payload payload,
                   PayloadDeliverFn on_deliver) {
  AXML_DCHECK_CALLED_ON_SEQUENCE(sequence_checker_);
  ScheduleDelivery(from, to, Admit(from, to, std::move(payload)),
                   std::move(on_deliver));
}

void Network::SendReliable(PeerId from, PeerId to, wire::Payload payload,
                           PayloadDeliverFn on_deliver,
                           DeliverFn on_abandon) {
  AXML_DCHECK_CALLED_ON_SEQUENCE(sequence_checker_);
  Retry(from, to, Admit(from, to, std::move(payload)), std::move(on_deliver),
        std::move(on_abandon));
}

void Network::ScheduleDelivery(PeerId from, PeerId to,
                               std::shared_ptr<const wire::Payload> p,
                               PayloadDeliverFn on_deliver,
                               DeliverFn on_drop) {
  // The boundary contract: what is priced is what is carried. The byte
  // count handed to the link accounting IS the payload's size; no other
  // size exists on this path. Every attempt is real traffic, charged
  // whether or not it lands.
  const wire::MessageClass cls = p->message_class();
  const uint64_t bytes = p->size();
  stats_.Record(from, to, cls, bytes);
  if (!IsPeerUp(from)) {
    // A crashed peer originates nothing: dropped before reaching the
    // wire (no link occupancy, no trace span).
    stats_.RecordDrop(bytes);
    if (on_drop) loop_->ScheduleAt(loop_->now(), std::move(on_drop));
    return;
  }

  const LinkParams link = topology_.Get(from, to);
  const double transmit =
      static_cast<double>(bytes) / link.bandwidth_bps;

  SimTime& busy_until = link_busy_until_[Key(from, to)];
  const SimTime start = std::max(loop_->now(), busy_until);
  busy_until = start + transmit;
  SimTime arrival = start + (transmit + link.latency_s);

  bool dropped = false;
  if (injector_ != nullptr) {
    const FaultInjector::Verdict verdict = injector_->Judge(from, to, start);
    dropped = verdict.drop;
    arrival += verdict.extra_delay;
  }
  // The wire does not know who crashed: a message racing a crash is
  // committed at send time and evaporates on arrival at a down peer.
  if (dropped || !IsPeerUp(to)) {
    stats_.RecordDrop(bytes);
    if (tracer_ != nullptr && tracer_->enabled()) {
      tracer_->Record("net", "drop", from, bytes, arrival - loop_->now(),
                      StrCat("-> ", to.ToString()));
    }
    if (on_drop) {
      if (tracer_ != nullptr) on_drop = tracer_->Bind(std::move(on_drop));
      loop_->ScheduleAt(arrival, std::move(on_drop));
    }
    return;
  }

  if (tracer_ != nullptr) {
    if (tracer_->enabled()) {
      // The span covers queueing + transmit + propagation, stamped at
      // the sender; it inherits whatever causal id is current.
      tracer_->Record("net",
                      kSpanKinds[static_cast<size_t>(wire::TrafficOf(cls))],
                      from, bytes, arrival - loop_->now(),
                      StrCat("-> ", to.ToString()));
    }
  }
  // The encoded bytes ride in the closure (shared, immutable) and are
  // handed to the receiver at arrival time — the sim's stand-in for the
  // wire. The arrival re-checks liveness: `to` may crash while the
  // message is in flight.
  DeliverFn deliver = [this, to, p = std::move(p), cb = std::move(on_deliver),
                       drop_cb = std::move(on_drop)]() mutable {
    AXML_DCHECK_CALLED_ON_SEQUENCE(sequence_checker_);
    if (!IsPeerUp(to)) {
      stats_.RecordDrop(p->size());
      if (drop_cb) drop_cb();
      return;
    }
    if (cb) cb(*p);
  };
  // Delivery runs under the sender's causal id — the cross-hop link.
  if (tracer_ != nullptr) deliver = tracer_->Bind(std::move(deliver));
  loop_->ScheduleAt(arrival, std::move(deliver));
}

void Network::Retry(PeerId from, PeerId to,
                    std::shared_ptr<const wire::Payload> p,
                    PayloadDeliverFn on_deliver, DeliverFn on_abandon) {
  // The one give-up rule, checked when the drop is noticed and again
  // when the retry would fire: a send with a crashed endpoint stops.
  auto gave_up = [this, from, to](const DeliverFn& abandon) {
    AXML_DCHECK_CALLED_ON_SEQUENCE(sequence_checker_);
    if (IsPeerUp(from) && IsPeerUp(to)) return false;
    if (abandon) abandon();
    return true;
  };
  // The sender notices the missing ack one RTO later and retransmits;
  // each retry advances virtual time, so partition windows are
  // eventually outlived. A drop fires at most once, so its closure
  // hands the callbacks on by move.
  DeliverFn on_drop = [this, from, to, p, gave_up, on_deliver,
                       on_abandon]() mutable {
    AXML_DCHECK_CALLED_ON_SEQUENCE(sequence_checker_);
    if (gave_up(on_abandon)) return;
    const LinkParams link = topology_.Get(from, to);
    const SimTime backoff =
        std::max(2 * link.latency_s +
                     static_cast<double>(p->size()) / link.bandwidth_bps,
                 kMinRetryDelay);
    loop_->ScheduleAfter(
        backoff, [this, from, to, p = std::move(p), gave_up,
                  on_deliver = std::move(on_deliver),
                  on_abandon = std::move(on_abandon)]() mutable {
          AXML_DCHECK_CALLED_ON_SEQUENCE(sequence_checker_);
          if (gave_up(on_abandon)) return;
          Retry(from, to, std::move(p), std::move(on_deliver),
                std::move(on_abandon));
        });
  };
  ScheduleDelivery(from, to, std::move(p), std::move(on_deliver),
                   std::move(on_drop));
}

void Network::SetPeerUp(PeerId peer, bool up) {
  AXML_DCHECK_CALLED_ON_SEQUENCE(sequence_checker_);
  AXML_CHECK(peer.is_concrete());
  if (up) {
    down_peers_.erase(peer.index());
  } else {
    down_peers_.insert(peer.index());
  }
}

bool Network::IsPeerUp(PeerId peer) const {
  AXML_DCHECK_CALLED_ON_SEQUENCE(sequence_checker_);
  return down_peers_.count(peer.index()) == 0;
}

}  // namespace axml
