#include "net/net_stats.h"

#include "common/str_util.h"

namespace axml {

void NetStats::Record(PeerId from, PeerId to, wire::MessageClass cls,
                      uint64_t bytes) {
  msg_bytes_.Add(bytes);
  if (wire::TrafficOf(cls) == wire::Traffic::kControl) {
    ++control_messages_;
    control_bytes_ += bytes;
    return;
  }
  ++total_messages_;
  total_bytes_ += bytes;
  if (from != to) {
    ++remote_messages_;
    remote_bytes_ += bytes;
  }
  PairStats& p = pairs_[Key(from, to)];
  ++p.messages;
  p.bytes += bytes;
}

void NetStats::RecordPayload(wire::MessageClass cls, uint64_t bytes) {
  ++class_messages_[static_cast<size_t>(cls)];
  class_bytes_[static_cast<size_t>(cls)] += bytes;
}

void NetStats::RecordDrop(uint64_t bytes) {
  ++dropped_messages_;
  dropped_bytes_ += bytes;
}

// Wholesale reassignment so coverage is total by construction: every
// counter, the message-size histogram, *and* the per-pair map go back
// to zero (a member-by-member reset once forgot the pair map; a test
// now pins the full sweep).
void NetStats::Reset() { *this = NetStats(); }

void NetStats::ExportMetrics(MetricSink& sink) const {
  sink.Value("total_messages", total_messages_);
  sink.Value("total_bytes", total_bytes_);
  sink.Value("remote_messages", remote_messages_);
  sink.Value("remote_bytes", remote_bytes_);
  sink.Value("control_messages", control_messages_);
  sink.Value("control_bytes", control_bytes_);
  sink.Value("notify_messages", notify_messages());
  sink.Value("notify_bytes", notify_bytes());
  sink.Value("dropped_messages", dropped_messages_);
  sink.Value("dropped_bytes", dropped_bytes_);
  for (size_t i = 0; i < wire::kMessageClassCount; ++i) {
    const char* name =
        wire::MessageClassName(static_cast<wire::MessageClass>(i));
    sink.Value(StrCat("class_msgs_", name), class_messages_[i]);
    sink.Value(StrCat("class_bytes_", name), class_bytes_[i]);
  }
  sink.Histo("msg_bytes", msg_bytes_);
}

PairStats NetStats::Pair(PeerId from, PeerId to) const {
  auto it = pairs_.find(Key(from, to));
  return it == pairs_.end() ? PairStats{} : it->second;
}

std::string NetStats::ToString() const {
  return StrCat("messages=", total_messages_, " bytes=", total_bytes_,
                " remote_messages=", remote_messages_,
                " remote_bytes=", remote_bytes_,
                " control_messages=", control_messages_,
                " control_bytes=", control_bytes_,
                " notify_messages=", notify_messages(),
                " notify_bytes=", notify_bytes(),
                " dropped_messages=", dropped_messages_,
                " dropped_bytes=", dropped_bytes_);
}

}  // namespace axml
