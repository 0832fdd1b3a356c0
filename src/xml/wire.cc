#include "xml/wire.h"

#include <chrono>
#include <optional>
#include <utility>

#include "common/logging.h"
#include "common/str_util.h"

namespace axml {
namespace wire {

namespace {

/// Decode recursion cap: a hostile buffer can claim nesting deeper than
/// any real document; bail with a Status long before the stack does.
constexpr size_t kMaxDecodeDepth = 4096;

Status Malformed(const char* what) {
  return Status::ParseError(StrCat("wire: malformed buffer (", what, ")"));
}

}  // namespace

const char* MessageClassName(MessageClass c) {
  switch (c) {
    case MessageClass::kTree:
      return "tree";
    case MessageClass::kShipment:
      return "shipment";
    case MessageClass::kNotify:
      return "notify";
    case MessageClass::kLease:
      return "lease";
    case MessageClass::kDigest:
      return "digest";
    case MessageClass::kCatalog:
      return "catalog";
    case MessageClass::kQuery:
      return "query";
  }
  return "unknown";
}

uint64_t TimingNowNs(const WireStats* stats) {
  if (stats == nullptr || !stats->timing_enabled) return 0;
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          // lint: allow-determinism — opt-in latency histograms only.
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void WireStats::RecordEncode(MessageClass c, size_t bytes, uint64_t ns) {
  ++encode_calls;
  encode_bytes += bytes;
  ++class_messages[static_cast<size_t>(c)];
  class_bytes[static_cast<size_t>(c)] += bytes;
  if (timing_enabled) encode_ns.Add(ns);
}

void WireStats::RecordDecode(size_t bytes, uint64_t ns, bool ok) {
  ++decode_calls;
  decode_bytes += bytes;
  if (!ok) ++decode_errors;
  if (timing_enabled) decode_ns.Add(ns);
}

void WireStats::ExportMetrics(MetricSink& sink) const {
  sink.Value("encode_calls", encode_calls);
  sink.Value("encode_bytes", encode_bytes);
  sink.Value("decode_calls", decode_calls);
  sink.Value("decode_bytes", decode_bytes);
  sink.Value("decode_errors", decode_errors);
  for (size_t i = 0; i < kMessageClassCount; ++i) {
    const char* name = MessageClassName(static_cast<MessageClass>(i));
    sink.Value(StrCat("msgs_", name), class_messages[i]);
    sink.Value(StrCat("bytes_", name), class_bytes[i]);
  }
  sink.Histo("encode_ns", encode_ns);
  sink.Histo("decode_ns", decode_ns);
}

MessageClass Payload::message_class() const {
  if (bytes_.size() < kHeaderBytes) return MessageClass::kQuery;
  const uint8_t c = static_cast<uint8_t>(bytes_[1]);
  return c < kMessageClassCount ? static_cast<MessageClass>(c)
                                : MessageClass::kQuery;
}

// --- primitives ---

void AppendVarint(uint64_t v, std::string* out) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

uint64_t VarintSize(uint64_t v) {
  uint64_t n = 1;
  for (; v >= 0x80; v >>= 7) ++n;
  return n;
}

void AppendFixed64(uint64_t v, std::string* out) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void AppendLengthPrefixed(std::string_view s, std::string* out) {
  AppendVarint(s.size(), out);
  out->append(s);
}

bool Reader::ReadVarint(uint64_t* v) {
  uint64_t result = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (pos_ >= buf_.size()) return false;
    const uint8_t byte = static_cast<uint8_t>(buf_[pos_++]);
    result |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      *v = result;
      return true;
    }
  }
  return false;  // > 10 continuation bytes: not a valid varint64
}

bool Reader::ReadFixed64(uint64_t* v) {
  if (remaining() < 8) return false;
  uint64_t result = 0;
  for (int i = 0; i < 8; ++i) {
    result |= static_cast<uint64_t>(static_cast<uint8_t>(buf_[pos_ + i]))
              << (8 * i);
  }
  pos_ += 8;
  *v = result;
  return true;
}

bool Reader::ReadByte(uint8_t* b) {
  if (pos_ >= buf_.size()) return false;
  *b = static_cast<uint8_t>(buf_[pos_++]);
  return true;
}

bool Reader::ReadLengthPrefixed(std::string_view* s) {
  uint64_t len = 0;
  if (!ReadVarint(&len) || len > remaining()) return false;
  *s = buf_.substr(pos_, len);
  pos_ += len;
  return true;
}

namespace {

void AppendHeader(MessageClass c, std::string* out) {
  out->push_back(static_cast<char>(kWireVersion));
  out->push_back(static_cast<char>(c));
}

/// Checks the two header bytes and positions `r` at the body. Without
/// an `expect`ed class any class is accepted (text envelopes).
Status ReadHeader(Reader* r, std::optional<MessageClass> expect) {
  uint8_t version = 0;
  uint8_t cls = 0;
  if (!r->ReadByte(&version) || !r->ReadByte(&cls)) {
    return Malformed("truncated header");
  }
  if (version != kWireVersion) {
    return Status::ParseError(StrCat("wire: version ",
                                     static_cast<int>(version),
                                     ", expected ",
                                     static_cast<int>(kWireVersion)));
  }
  if (cls >= kMessageClassCount) return Malformed("unknown message class");
  if (expect.has_value() && static_cast<MessageClass>(cls) != *expect) {
    return Status::ParseError(
        StrCat("wire: message class ",
               MessageClassName(static_cast<MessageClass>(cls)),
               ", expected ", MessageClassName(*expect)));
  }
  return Status::OK();
}

/// The one encode path: header, then what `body` appends, stamped into
/// `stats`.
template <typename Body>
std::string EncodeMessage(MessageClass cls, WireStats* stats, Body body) {
  const uint64_t t0 = TimingNowNs(stats);
  std::string out;
  AppendHeader(cls, &out);
  body(&out);
  if (stats != nullptr) {
    stats->RecordEncode(cls, out.size(), TimingNowNs(stats) - t0);
  }
  return out;
}

/// EncodeMessage wrapped as a Payload (all but standalone tree blobs).
template <typename Body>
Payload EncodeWire(MessageClass cls, WireStats* stats, Body body) {
  return Payload(EncodeMessage(cls, stats, std::move(body)));
}

/// The one decode path: checks the header (any class when `cls` is
/// empty), lets `body` read the rest into a T, rejects trailing bytes,
/// and stamps `stats`.
template <typename T, typename Body>
Result<T> DecodeMessage(std::string_view bytes,
                        std::optional<MessageClass> cls, WireStats* stats,
                        Body body) {
  const uint64_t t0 = TimingNowNs(stats);
  Reader r(bytes);
  T out;
  Status status = ReadHeader(&r, cls);
  if (status.ok()) status = body(&r, &out);
  if (status.ok() && !r.done()) status = Malformed("trailing bytes");
  if (stats != nullptr) {
    stats->RecordDecode(bytes.size(), TimingNowNs(stats) - t0, status.ok());
  }
  if (!status.ok()) return status;
  return out;
}

// --- tree encoding ---

/// First-use label table over the canonical walk.
void CollectLabels(const MerkleNode& c, std::vector<LabelId>* order,
                   std::vector<uint32_t>* index_of) {
  if (c.node->is_element()) {
    const LabelId label = c.node->label();
    if (label >= index_of->size()) {
      index_of->resize(label + 1, UINT32_MAX);
    }
    if ((*index_of)[label] == UINT32_MAX) {
      (*index_of)[label] = static_cast<uint32_t>(order->size());
      order->push_back(label);
    }
    for (const MerkleNode& k : c.kids) CollectLabels(k, order, index_of);
  }
}

constexpr uint8_t kTagText = 0;
constexpr uint8_t kTagElement = 1;

void EncodeNode(const MerkleNode& c, const std::vector<uint32_t>& index_of,
                std::string* out) {
  if (c.node->is_text()) {
    out->push_back(static_cast<char>(kTagText));
    AppendLengthPrefixed(c.node->text(), out);
    return;
  }
  out->push_back(static_cast<char>(kTagElement));
  AppendVarint(index_of[c.node->label()], out);
  AppendVarint(c.kids.size(), out);
  for (const MerkleNode& k : c.kids) EncodeNode(k, index_of, out);
}

Result<TreePtr> DecodeNode(Reader* r, const std::vector<LabelId>& labels,
                           NodeIdGen* gen, size_t depth) {
  if (depth > kMaxDecodeDepth) return Malformed("nesting too deep");
  uint8_t tag = 0;
  if (!r->ReadByte(&tag)) return Malformed("truncated node tag");
  if (tag == kTagText) {
    std::string_view text;
    if (!r->ReadLengthPrefixed(&text)) return Malformed("truncated text");
    return TreeNode::Text(std::string(text));
  }
  if (tag != kTagElement) return Malformed("unknown node tag");
  uint64_t label_index = 0;
  uint64_t child_count = 0;
  if (!r->ReadVarint(&label_index) || !r->ReadVarint(&child_count)) {
    return Malformed("truncated element");
  }
  if (label_index >= labels.size()) return Malformed("label index");
  // Every child occupies >= 2 bytes; a count beyond that is corrupt.
  if (child_count > r->remaining()) return Malformed("child count");
  TreePtr node = TreeNode::Element(labels[label_index], gen->Next());
  for (uint64_t i = 0; i < child_count; ++i) {
    auto child = DecodeNode(r, labels, gen, depth + 1);
    if (!child.ok()) return child.status();
    node->AddChild(std::move(child).value());
  }
  return node;
}

void EncodeTreeBody(const TreeNode& root, std::string* out) {
  // Canonical child order (digest.h): unordered-equal trees walk — and
  // therefore encode — identically.
  const MerkleNode canon = MerkleTree(root);
  std::vector<LabelId> label_order;
  std::vector<uint32_t> index_of;
  CollectLabels(canon, &label_order, &index_of);
  AppendVarint(label_order.size(), out);
  for (LabelId label : label_order) {
    AppendLengthPrefixed(LabelText(label), out);
  }
  EncodeNode(canon, index_of, out);
}

Result<TreePtr> DecodeTreeBody(Reader* r, NodeIdGen* gen) {
  uint64_t label_count = 0;
  if (!r->ReadVarint(&label_count)) return Malformed("label table");
  if (label_count > r->remaining()) return Malformed("label table size");
  std::vector<LabelId> labels;
  labels.reserve(label_count);
  for (uint64_t i = 0; i < label_count; ++i) {
    std::string_view text;
    if (!r->ReadLengthPrefixed(&text)) return Malformed("label text");
    labels.push_back(InternLabel(text));
  }
  return DecodeNode(r, labels, gen, /*depth=*/0);
}

}  // namespace

std::string EncodeTree(const TreeNode& root, WireStats* stats) {
  return EncodeMessage(MessageClass::kTree, stats, [&](std::string* out) {
    EncodeTreeBody(root, out);
  });
}

uint64_t EncodedTreeSize(const TreeNode& root) {
  return EncodeTree(root).size();
}

Result<TreePtr> DecodeTree(std::string_view blob, NodeIdGen* gen,
                           WireStats* stats) {
  return DecodeMessage<TreePtr>(
      blob, MessageClass::kTree, stats, [gen](Reader* r, TreePtr* out) {
        Result<TreePtr> tree = DecodeTreeBody(r, gen);
        if (tree.ok()) *out = std::move(tree).value();
        return tree.status();
      });
}

// --- protocol messages ---

namespace {

bool ReadVarint32(Reader* r, uint32_t* v) {
  uint64_t wide = 0;
  if (!r->ReadVarint(&wide)) return false;
  *v = static_cast<uint32_t>(wide);
  return true;
}

bool ReadString(Reader* r, std::string* s) {
  std::string_view view;
  if (!r->ReadLengthPrefixed(&view)) return false;
  *s = std::string(view);
  return true;
}

// A catalog entry is one flags byte (bit 0 service, bit 1 add) and the
// name.
void AppendCatalogEntry(const CatalogMessage::Entry& e, std::string* out) {
  out->push_back(static_cast<char>((e.service ? 1 : 0) | (e.add ? 2 : 0)));
  AppendLengthPrefixed(e.name, out);
}

bool ReadCatalogEntry(Reader* r, CatalogMessage::Entry* e) {
  uint8_t flags = 0;
  if (!r->ReadByte(&flags) || flags > 3 || !ReadString(r, &e->name)) {
    return false;
  }
  e->service = (flags & 1) != 0;
  e->add = (flags & 2) != 0;
  return true;
}

}  // namespace

Payload EncodeNotifyBatch(const NotifyBatch& batch, WireStats* stats) {
  return EncodeWire(MessageClass::kNotify, stats, [&](std::string* out) {
    AppendVarint(batch.origin, out);
    AppendVarint(batch.keys.size(), out);
    for (const NotifyBatch::Key& key : batch.keys) {
      AppendLengthPrefixed(key.name, out);
      AppendLengthPrefixed(key.shard, out);
    }
  });
}

Result<NotifyBatch> DecodeNotifyBatch(const Payload& p, WireStats* stats) {
  return DecodeMessage<NotifyBatch>(
      p.bytes(), MessageClass::kNotify, stats,
      [](Reader* r, NotifyBatch* batch) -> Status {
        uint64_t count = 0;
        if (!ReadVarint32(r, &batch->origin) || !r->ReadVarint(&count)) {
          return Malformed("notify header");
        }
        if (count > r->remaining()) return Malformed("notify key count");
        // Entries grow as they are read: a corrupt count cannot make the
        // decoder allocate ahead of the bytes.
        for (uint64_t i = 0; i < count; ++i) {
          NotifyBatch::Key& key = batch->keys.emplace_back();
          if (!ReadString(r, &key.name) || !ReadString(r, &key.shard)) {
            return Malformed("notify key");
          }
        }
        return Status::OK();
      });
}

Payload EncodeLeaseRenewal(const LeaseRenewal& lease, WireStats* stats) {
  return EncodeWire(MessageClass::kLease, stats, [&](std::string* out) {
    AppendVarint(lease.holder, out);
    AppendVarint(lease.origin, out);
    AppendVarint(lease.subscribed_keys, out);
  });
}

Result<LeaseRenewal> DecodeLeaseRenewal(const Payload& p,
                                        WireStats* stats) {
  return DecodeMessage<LeaseRenewal>(
      p.bytes(), MessageClass::kLease, stats,
      [](Reader* r, LeaseRenewal* lease) -> Status {
        if (!ReadVarint32(r, &lease->holder) ||
            !ReadVarint32(r, &lease->origin) ||
            !r->ReadVarint(&lease->subscribed_keys)) {
          return Malformed("lease body");
        }
        return Status::OK();
      });
}

Payload EncodeShipment(const Shipment& s, WireStats* stats) {
  return EncodeWire(MessageClass::kShipment, stats, [&](std::string* out) {
    AppendVarint(s.origin, out);
    AppendLengthPrefixed(s.name, out);
    AppendVarint(s.snapshot_version, out);
    AppendLengthPrefixed(s.manifest, out);
    AppendVarint(s.shards.size(), out);
    for (const Shipment::Shard& shard : s.shards) {
      AppendLengthPrefixed(shard.id, out);
      AppendLengthPrefixed(shard.tree, out);
    }
  });
}

Result<Shipment> DecodeShipment(const Payload& p, WireStats* stats) {
  return DecodeMessage<Shipment>(
      p.bytes(), MessageClass::kShipment, stats,
      [](Reader* r, Shipment* s) -> Status {
        uint64_t shard_count = 0;
        if (!ReadVarint32(r, &s->origin) || !ReadString(r, &s->name) ||
            !r->ReadVarint(&s->snapshot_version) ||
            !ReadString(r, &s->manifest) || !r->ReadVarint(&shard_count)) {
          return Malformed("shipment header");
        }
        if (shard_count > r->remaining()) return Malformed("shard count");
        for (uint64_t i = 0; i < shard_count; ++i) {
          Shipment::Shard& shard = s->shards.emplace_back();
          if (!ReadString(r, &shard.id) || !ReadString(r, &shard.tree)) {
            return Malformed("shipment shard");
          }
        }
        return Status::OK();
      });
}

Payload EncodeDigestExchange(const DigestExchange& d, WireStats* stats) {
  return EncodeWire(MessageClass::kDigest, stats, [&](std::string* out) {
    AppendVarint(d.holder, out);
    AppendVarint(d.origin, out);
    AppendVarint(d.docs.size(), out);
    for (const DigestExchange::Doc& doc : d.docs) {
      AppendLengthPrefixed(doc.name, out);
      AppendVarint(doc.version, out);
      AppendFixed64(doc.manifest.hi, out);
      AppendFixed64(doc.manifest.lo, out);
      AppendVarint(doc.shards.size(), out);
      for (const ContentDigest& shard : doc.shards) {
        AppendFixed64(shard.hi, out);
        AppendFixed64(shard.lo, out);
      }
    }
  });
}

Result<DigestExchange> DecodeDigestExchange(const Payload& p,
                                            WireStats* stats) {
  return DecodeMessage<DigestExchange>(
      p.bytes(), MessageClass::kDigest, stats,
      [](Reader* r, DigestExchange* d) -> Status {
        uint64_t doc_count = 0;
        if (!ReadVarint32(r, &d->holder) || !ReadVarint32(r, &d->origin) ||
            !r->ReadVarint(&doc_count)) {
          return Malformed("digest header");
        }
        if (doc_count > r->remaining()) return Malformed("digest doc count");
        for (uint64_t i = 0; i < doc_count; ++i) {
          DigestExchange::Doc& doc = d->docs.emplace_back();
          uint64_t shard_count = 0;
          if (!ReadString(r, &doc.name) || !r->ReadVarint(&doc.version) ||
              !r->ReadFixed64(&doc.manifest.hi) ||
              !r->ReadFixed64(&doc.manifest.lo) ||
              !r->ReadVarint(&shard_count)) {
            return Malformed("digest doc");
          }
          if (shard_count > r->remaining() / 16) {
            return Malformed("digest shard count");
          }
          for (uint64_t j = 0; j < shard_count; ++j) {
            ContentDigest& shard = doc.shards.emplace_back();
            if (!r->ReadFixed64(&shard.hi) || !r->ReadFixed64(&shard.lo)) {
              return Malformed("digest shard");
            }
          }
        }
        return Status::OK();
      });
}

Payload EncodeCatalog(const CatalogMessage& m, WireStats* stats) {
  return EncodeWire(MessageClass::kCatalog, stats, [&](std::string* out) {
    out->push_back(static_cast<char>(m.op));
    if (m.op == CatalogMessage::Op::kDigest) {
      AppendVarint(m.holder, out);
      AppendVarint(m.deltas.size(), out);
      for (const CatalogMessage::Entry& e : m.deltas) {
        AppendCatalogEntry(e, out);
      }
      return;
    }
    AppendCatalogEntry(m.key, out);
    if (m.op != CatalogMessage::Op::kAnswer) return;
    AppendVarint(m.holders.size(), out);
    for (uint32_t h : m.holders) AppendVarint(h, out);
  });
}

Result<CatalogMessage> DecodeCatalog(const Payload& p, WireStats* stats) {
  return DecodeMessage<CatalogMessage>(
      p.bytes(), MessageClass::kCatalog, stats,
      [](Reader* r, CatalogMessage* m) -> Status {
        uint8_t op = 0;
        if (!r->ReadByte(&op) || op > 2) return Malformed("catalog op");
        m->op = static_cast<CatalogMessage::Op>(op);
        if (m->op == CatalogMessage::Op::kDigest) {
          uint64_t count = 0;
          if (!ReadVarint32(r, &m->holder) || !r->ReadVarint(&count)) {
            return Malformed("catalog digest header");
          }
          // An entry takes at least its flags byte and name length.
          if (count > r->remaining() / 2) return Malformed("delta count");
          for (uint64_t i = 0; i < count; ++i) {
            if (!ReadCatalogEntry(r, &m->deltas.emplace_back())) {
              return Malformed("catalog delta");
            }
          }
          return Status::OK();
        }
        if (!ReadCatalogEntry(r, &m->key)) return Malformed("catalog key");
        if (m->op != CatalogMessage::Op::kAnswer) return Status::OK();
        uint64_t count = 0;
        if (!r->ReadVarint(&count) || count > r->remaining()) {
          return Malformed("catalog holder count");
        }
        for (uint64_t i = 0; i < count; ++i) {
          if (!ReadVarint32(r, &m->holders.emplace_back())) {
            return Malformed("catalog holder");
          }
        }
        return Status::OK();
      });
}

// --- text ---

Payload EncodeText(MessageClass cls, std::string_view text,
                   WireStats* stats) {
  return EncodeWire(cls, stats, [&](std::string* out) {
    AppendLengthPrefixed(text, out);
  });
}

Result<std::string> DecodeText(const Payload& p, WireStats* stats) {
  return DecodeMessage<std::string>(
      p.bytes(), std::nullopt, stats,
      [](Reader* r, std::string* text) -> Status {
        return ReadString(r, text) ? Status::OK() : Malformed("text body");
      });
}

uint64_t EncodedTextSize(std::string_view text) {
  return kHeaderBytes + VarintSize(text.size()) + text.size();
}

}  // namespace wire
}  // namespace axml
