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

/// Adapts a payload delivery to the DeliverFn plumbing: the encoded
/// bytes ride in the closure (shared, immutable) and are handed to the
/// receiver at arrival time — the sim's stand-in for the wire.
Network::DeliverFn CarryPayload(std::shared_ptr<const wire::Payload> p,
                                Network::PayloadDeliverFn on_deliver) {
  return [p = std::move(p), cb = std::move(on_deliver)]() {
    if (cb) cb(*p);
  };
}
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
  // The boundary contract: what is priced is what is carried. The byte
  // count handed to the link accounting below IS payload.size(); no
  // other size exists on this path.
  auto p = Admit(from, to, std::move(payload));
  const uint64_t bytes = p->size();
  const bool notify = p->message_class() == wire::MessageClass::kNotify;
  stats_.Record(from, to, bytes);
  ScheduleDelivery(from, to, bytes,
                   CarryPayload(std::move(p), std::move(on_deliver)),
                   notify ? "notify" : "msg");
}

void Network::SendReliable(PeerId from, PeerId to, wire::Payload payload,
                           PayloadDeliverFn on_deliver) {
  AXML_DCHECK_CALLED_ON_SEQUENCE(sequence_checker_);
  auto p = Admit(from, to, std::move(payload));
  const uint64_t bytes = p->size();
  Retry(from, to, bytes, /*response_bytes=*/0, /*delay=*/0,
        /*control=*/false, CarryPayload(std::move(p), std::move(on_deliver)),
        /*on_abandon=*/nullptr);
}

void Network::ControlRoundtrip(PeerId from, PeerId to, wire::Payload request,
                               wire::Payload response,
                               PayloadDeliverFn on_done,
                               DeliverFn on_abandon) {
  AXML_DCHECK_CALLED_ON_SEQUENCE(sequence_checker_);
  const uint64_t request_bytes = request.size();
  const uint64_t response_bytes = response.size();
  const bool one_way = response.empty();
  // The exchange takes at least each leg's one-way transfer time, so a
  // control message waits out its latency even when its transmit is
  // negligible.
  const SimTime delay =
      EstimateTransferTime(from, to, request_bytes) +
      (one_way ? 0 : EstimateTransferTime(to, from, response_bytes));
  auto last = Admit(from, to, std::move(request));
  if (!one_way) last = Admit(to, from, std::move(response));
  Retry(from, to, request_bytes + response_bytes, response_bytes, delay,
        /*control=*/true, CarryPayload(std::move(last), std::move(on_done)),
        std::move(on_abandon));
}

void Network::ScheduleDelivery(PeerId from, PeerId to, uint64_t bytes,
                               DeliverFn on_deliver, const char* kind,
                               SimTime min_delay, DeliverFn on_drop) {
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
  SimTime arrival = start + std::max(transmit + link.latency_s, min_delay);

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
      tracer_->Record("net", kind, from, bytes, arrival - loop_->now(),
                      StrCat("-> ", to.ToString()));
    }
    // Delivery runs under the sender's causal id — the cross-hop link.
    on_deliver = tracer_->Bind(std::move(on_deliver));
  }
  // The arrival callback re-checks liveness: `to` may crash while the
  // message is in flight.
  DeliverFn guarded_drop = std::move(on_drop);
  loop_->ScheduleAt(
      arrival, [this, to, bytes, cb = std::move(on_deliver),
                drop_cb = std::move(guarded_drop)]() mutable {
        AXML_DCHECK_CALLED_ON_SEQUENCE(sequence_checker_);
        if (!IsPeerUp(to)) {
          stats_.RecordDrop(bytes);
          if (drop_cb) drop_cb();
          return;
        }
        cb();
      });
}

void Network::Retry(PeerId from, PeerId to, uint64_t bytes,
                    uint64_t response_bytes, SimTime delay, bool control,
                    DeliverFn on_deliver, DeliverFn on_abandon) {
  // Every attempt is real traffic: a data message, or a control
  // exchange's legs, each at its own size.
  if (!control) {
    stats_.Record(from, to, bytes);
  } else {
    stats_.RecordControl(bytes - response_bytes);
    if (response_bytes > 0) stats_.RecordControl(response_bytes);
  }
  // The one give-up rule, checked when the drop is noticed and again
  // when the retry would fire: a send with a crashed endpoint stops.
  auto gave_up = [this, from, to](const DeliverFn& abandon) {
    AXML_DCHECK_CALLED_ON_SEQUENCE(sequence_checker_);
    if (IsPeerUp(from) && IsPeerUp(to)) return false;
    if (abandon) abandon();
    return true;
  };
  // Each retry advances virtual time, so partition windows are
  // eventually outlived. A reliable send retransmits one RTO later (the
  // sender notices the missing ack); a control roundtrip re-asks after
  // its own delay. A drop fires at most once, so its closure hands the
  // callbacks on by move.
  DeliverFn on_drop = [this, from, to, bytes, response_bytes, delay, control,
                       gave_up, on_deliver, on_abandon]() mutable {
    AXML_DCHECK_CALLED_ON_SEQUENCE(sequence_checker_);
    if (gave_up(on_abandon)) return;
    const LinkParams link = topology_.Get(from, to);
    const SimTime backoff = std::max(
        control ? delay
                : 2 * link.latency_s +
                      static_cast<double>(bytes) / link.bandwidth_bps,
        kMinRetryDelay);
    loop_->ScheduleAfter(
        backoff, [this, from, to, bytes, response_bytes, delay, control,
                  gave_up, on_deliver = std::move(on_deliver),
                  on_abandon = std::move(on_abandon)]() mutable {
          AXML_DCHECK_CALLED_ON_SEQUENCE(sequence_checker_);
          if (gave_up(on_abandon)) return;
          Retry(from, to, bytes, response_bytes, delay, control,
                std::move(on_deliver), std::move(on_abandon));
        });
  };
  ScheduleDelivery(from, to, bytes, std::move(on_deliver),
                   control ? "control" : "msg",
                   /*min_delay=*/control ? delay : 0, std::move(on_drop));
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
