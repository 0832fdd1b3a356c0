// Transfer accounting: the quantities the paper's optimizations are
// about. Every benchmark reports these counters for naive vs rewritten
// evaluation strategies. Every message is charged on its link once per
// attempt and under its wire::MessageClass once per send; its class
// alone decides whether it counts as data or control (wire::TrafficOf).

#ifndef AXML_NET_NET_STATS_H_
#define AXML_NET_NET_STATS_H_

#include <cstdint>
#include <string>
#include <unordered_map>

#include "common/ids.h"
#include "common/logging.h"
#include "net/sim_time.h"
#include "obs/metrics.h"
#include "xml/wire.h"

namespace axml {

/// Counters for one directed peer pair.
struct PairStats {
  uint64_t messages = 0;
  uint64_t bytes = 0;
};

/// Global transfer statistics collected by the Network.
class NetStats {
 public:
  /// Charges one attempt of a message on link from -> to. Data feeds
  /// the totals and the remote and per-pair tallies, control only the
  /// control counters; both feed the size histogram.
  void Record(PeerId from, PeerId to, wire::MessageClass cls,
              uint64_t bytes);
  /// Records a message the fabric dropped — fault injection, a crashed
  /// endpoint — after it was charged as sent.
  void RecordDrop(uint64_t bytes);
  /// Tallies one encoded payload against its message class — the
  /// per-class half of the accounting, once per send; the link half is
  /// Record.
  void RecordPayload(wire::MessageClass cls, uint64_t bytes);
  void Reset();

  uint64_t total_messages() const { return total_messages_; }
  uint64_t total_bytes() const { return total_bytes_; }
  uint64_t control_messages() const { return control_messages_; }
  uint64_t control_bytes() const { return control_bytes_; }
  /// Invalidation notifies (the kNotify class), for push-refresh benches.
  uint64_t notify_messages() const {
    return class_messages(wire::MessageClass::kNotify);
  }
  uint64_t notify_bytes() const {
    return class_bytes(wire::MessageClass::kNotify);
  }
  /// Bytes that actually crossed between distinct peers (loopback
  /// excluded).
  uint64_t remote_bytes() const { return remote_bytes_; }
  uint64_t remote_messages() const { return remote_messages_; }
  /// Messages (and their bytes) the fabric dropped — a subset of the
  /// sent totals above; 0 on a perfect fabric.
  uint64_t dropped_messages() const { return dropped_messages_; }
  uint64_t dropped_bytes() const { return dropped_bytes_; }
  /// Encoded messages/bytes by wire message class (kTree, kShipment,
  /// kNotify, ...). Every send carries a payload, so every first
  /// attempt is classed; retransmissions are not.
  uint64_t class_messages(wire::MessageClass cls) const {
    return class_messages_[static_cast<size_t>(cls)];
  }
  uint64_t class_bytes(wire::MessageClass cls) const {
    return class_bytes_[static_cast<size_t>(cls)];
  }

  PairStats Pair(PeerId from, PeerId to) const;

  /// Distribution of per-message sizes (log2 buckets; every Record
  /// feeds it, data and control, each message at its own size).
  const Histogram& message_bytes_histogram() const { return msg_bytes_; }

  /// Emits every counter (and the size histogram) into `sink` under its
  /// accessor's name — the registry retrofit. A test pins that these
  /// exports and the typed accessors never drift.
  void ExportMetrics(MetricSink& sink) const;

  std::string ToString() const;

 private:
  static uint64_t Key(PeerId a, PeerId b) {
    // Both indices must be real peers: kInvalidIndex / kAnyIndex would
    // silently alias distinct bogus pairs onto shared map slots.
    AXML_DCHECK(a.is_concrete()) << "NetStats pair with non-peer "
                                 << a.ToString();
    AXML_DCHECK(b.is_concrete()) << "NetStats pair with non-peer "
                                 << b.ToString();
    return (static_cast<uint64_t>(a.index()) << 32) | b.index();
  }

  uint64_t total_messages_ = 0;
  uint64_t total_bytes_ = 0;
  uint64_t remote_messages_ = 0;
  uint64_t remote_bytes_ = 0;
  uint64_t control_messages_ = 0;
  uint64_t control_bytes_ = 0;
  uint64_t dropped_messages_ = 0;
  uint64_t dropped_bytes_ = 0;
  uint64_t class_messages_[wire::kMessageClassCount] = {};
  uint64_t class_bytes_[wire::kMessageClassCount] = {};
  Histogram msg_bytes_;
  std::unordered_map<uint64_t, PairStats> pairs_;
};

}  // namespace axml

#endif  // AXML_NET_NET_STATS_H_
