// The binary wire format: what actually crosses a link.
//
// Every message the simulator prices is encoded here first, and the
// priced size IS the encoded size — `Network`'s payload-carrying send
// paths charge `Payload::size()` bytes, so "priced != actual" drift is
// structurally impossible (an `AXML_DCHECK` at each send boundary pins
// the few places where a size is computed before the payload exists,
// e.g. budget admission). The format is deliberately small and
// versioned:
//
//   byte 0   kWireVersion (4)
//   byte 1   MessageClass
//   body     class-specific, varint-framed (see docs/wire-format.md)
//
// Trees encode with a per-blob interned-label table and *canonical
// child order* (children sorted by their Merkle digest, digest.h; a
// digest tie is broken structurally), so unordered-equal trees encode
// byte-identically — the property the content-addressed blob store and
// shard ids already rely on. Decoding mints fresh node ids from the
// receiving peer's NodeIdGen (§3.2: every send copies the instance it
// sends).
//
// Decoders never trust the buffer: every length is bounds-checked,
// recursion depth is capped, and any malformed input returns a
// ParseError Status — truncation or corruption must never crash.

#ifndef AXML_XML_WIRE_H_
#define AXML_XML_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "xml/digest.h"
#include "xml/tree.h"

namespace axml {
namespace wire {

/// Bumped on any incompatible layout change; decoders reject mismatches.
inline constexpr uint8_t kWireVersion = 4;
/// Every message starts with the version byte and the class byte.
inline constexpr uint64_t kHeaderBytes = 2;

/// Second header byte: what kind of message the payload carries. Used
/// for per-class byte accounting (NetStats) and decode dispatch.
enum class MessageClass : uint8_t {
  kTree = 0,      ///< one standalone tree blob (document / shard ship)
  kShipment = 1,  ///< replica shipment: document entry + shards
  kNotify = 2,    ///< invalidation notify batch
  kLease = 3,     ///< subscription lease renewal
  kDigest = 4,    ///< anti-entropy manifest/shard digest exchange
  kCatalog = 5,   ///< catalog lookup, answer or advertisement digest
  kQuery = 6,     ///< query / service-call text
};
inline constexpr size_t kMessageClassCount = 7;

/// Stable lowercase name for metrics and traces ("tree", "notify", ...).
const char* MessageClassName(MessageClass c);

/// How the network tallies and traces a message, by its class: catalog
/// messages and anti-entropy digests are control traffic (NetStats'
/// control counters, "control" spans), invalidation notifies are data
/// traced as "notify", and every other class is data ("msg").
enum class Traffic : uint8_t { kData, kNotify, kControl };
inline Traffic TrafficOf(MessageClass c) {
  if (c == MessageClass::kCatalog || c == MessageClass::kDigest) {
    return Traffic::kControl;
  }
  return c == MessageClass::kNotify ? Traffic::kNotify : Traffic::kData;
}

/// Encode/decode observability. Deterministic counters are always on;
/// the wall-clock latency histograms only fill when `timing_enabled`
/// (bench_wire turns it on) so twin simulations stay byte-identical.
struct WireStats {
  uint64_t encode_calls = 0;
  uint64_t encode_bytes = 0;
  uint64_t decode_calls = 0;
  uint64_t decode_bytes = 0;
  uint64_t decode_errors = 0;
  /// Per-class encoded message/byte counters, indexed by MessageClass.
  uint64_t class_messages[kMessageClassCount] = {};
  uint64_t class_bytes[kMessageClassCount] = {};
  Histogram encode_ns;
  Histogram decode_ns;
  bool timing_enabled = false;

  void RecordEncode(MessageClass c, size_t bytes, uint64_t ns);
  void RecordDecode(size_t bytes, uint64_t ns, bool ok);
  /// Exports under the sink's prefix (mounted at "wire/" by AxmlSystem).
  void ExportMetrics(MetricSink& sink) const;
};

/// Reads the wall clock iff `stats` wants timing; 0 otherwise. The one
/// sanctioned nondeterminism: it only ever feeds the latency histograms.
uint64_t TimingNowNs(const WireStats* stats);

/// An encoded message: header + body, opaque to the transport. The
/// `size()` is the priced wire size — there is no other size.
class Payload {
 public:
  Payload() = default;
  explicit Payload(std::string bytes) : bytes_(std::move(bytes)) {}

  size_t size() const { return bytes_.size(); }
  bool empty() const { return bytes_.empty(); }
  const std::string& bytes() const { return bytes_; }
  /// Class from the header byte; kQuery (free-form) for foreign buffers.
  MessageClass message_class() const;

 private:
  std::string bytes_;
};

// --- varint / fixed primitives (exposed for tests and bench_wire) ---

void AppendVarint(uint64_t v, std::string* out);
/// Bytes AppendVarint writes for `v` (1 below 128).
uint64_t VarintSize(uint64_t v);
void AppendFixed64(uint64_t v, std::string* out);
void AppendLengthPrefixed(std::string_view s, std::string* out);

/// Bounds-checked sequential reader over an encoded buffer.
class Reader {
 public:
  explicit Reader(std::string_view buf) : buf_(buf) {}

  bool ReadVarint(uint64_t* v);
  bool ReadFixed64(uint64_t* v);
  bool ReadByte(uint8_t* b);
  /// Reads a varint length then that many bytes (aliasing the buffer).
  bool ReadLengthPrefixed(std::string_view* s);
  size_t remaining() const { return buf_.size() - pos_; }
  bool done() const { return pos_ == buf_.size(); }

 private:
  std::string_view buf_;
  size_t pos_ = 0;
};

// --- trees ---

/// Encodes one tree as a standalone blob (class kTree): label table +
/// canonically ordered node records. Unordered-equal trees encode
/// byte-identically.
std::string EncodeTree(const TreeNode& root, WireStats* stats = nullptr);

/// The blob size `EncodeTree` would produce — THE wire size of a tree.
/// Every transfer-pricing path reads this (not xml_serializer's size).
uint64_t EncodedTreeSize(const TreeNode& root);

/// Decodes a tree blob, minting fresh node ids from `gen`.
Result<TreePtr> DecodeTree(std::string_view blob, NodeIdGen* gen,
                           WireStats* stats = nullptr);

// --- replica protocol messages ---

/// One invalidation notify batch origin -> holder: the keys whose
/// copies just went stale.
struct NotifyBatch {
  uint32_t origin = 0;
  struct Key {
    std::string name;
    std::string shard;  ///< "" document entry, or a data-shard id
  };
  std::vector<Key> keys;
};

Payload EncodeNotifyBatch(const NotifyBatch& batch,
                          WireStats* stats = nullptr);
Result<NotifyBatch> DecodeNotifyBatch(const Payload& p,
                                      WireStats* stats = nullptr);

/// One lease renewal holder -> origin covering all subscribed keys.
struct LeaseRenewal {
  uint32_t holder = 0;
  uint32_t origin = 0;
  uint64_t subscribed_keys = 0;
};

Payload EncodeLeaseRenewal(const LeaseRenewal& lease,
                           WireStats* stats = nullptr);
Result<LeaseRenewal> DecodeLeaseRenewal(const Payload& p,
                                        WireStats* stats = nullptr);

/// A replica shipment origin -> holder: the holder's document entry
/// (xml/sharding.h's manifest, or the document itself) and the data
/// shards that entry references and the holder lacks. A whole document
/// is a shipment with zero shards. Embedded trees are complete kTree
/// blobs, byte-identical to what the holder's cache will store.
struct Shipment {
  uint32_t origin = 0;
  std::string name;
  uint64_t snapshot_version = 0;
  /// kTree blob of the entry; "" = not shipped, the holder's is fresh.
  std::string manifest;
  struct Shard {
    std::string id;    ///< content-digest hex id
    std::string tree;  ///< kTree blob
  };
  std::vector<Shard> shards;
};

Payload EncodeShipment(const Shipment& s, WireStats* stats = nullptr);
Result<Shipment> DecodeShipment(const Payload& p,
                                WireStats* stats = nullptr);

/// Anti-entropy digest exchange holder <-> origin: per document, the
/// manifest version + digest and each resident shard digest, compared
/// shard-by-shard at the other end.
struct DigestExchange {
  uint32_t holder = 0;
  uint32_t origin = 0;
  struct Doc {
    std::string name;
    uint64_t version = 0;
    ContentDigest manifest;
    std::vector<ContentDigest> shards;
  };
  std::vector<Doc> docs;
};

Payload EncodeDigestExchange(const DigestExchange& d,
                             WireStats* stats = nullptr);
Result<DigestExchange> DecodeDigestExchange(const Payload& p,
                                            WireStats* stats = nullptr);

/// One catalog message (net/catalog.h): a lookup of `key`, the answer
/// (`key` plus the `holders` the serving node indexes under it), or one
/// `holder`'s advertisement digest of `deltas` for a responsible node.
struct CatalogMessage {
  enum class Op : uint8_t { kLookup = 0, kAnswer = 1, kDigest = 2 };
  /// A document or service name; in a digest, added or withdrawn.
  struct Entry {
    bool service = false;
    std::string name;
    bool add = true;
  };
  Op op = Op::kLookup;
  Entry key;                      ///< kLookup, kAnswer
  std::vector<uint32_t> holders;  ///< kAnswer
  uint32_t holder = 0;            ///< kDigest
  std::vector<Entry> deltas;      ///< kDigest
};

Payload EncodeCatalog(const CatalogMessage& m, WireStats* stats = nullptr);
Result<CatalogMessage> DecodeCatalog(const Payload& p,
                                     WireStats* stats = nullptr);

/// Free-form text message (query / service-call text) under `cls`
/// (kQuery for AQL text).
Payload EncodeText(MessageClass cls, std::string_view text,
                   WireStats* stats = nullptr);
Result<std::string> DecodeText(const Payload& p,
                               WireStats* stats = nullptr);
/// The wire size `EncodeText` would produce, for cost estimation.
uint64_t EncodedTextSize(std::string_view text);

}  // namespace wire
}  // namespace axml

#endif  // AXML_XML_WIRE_H_
