// Resource-discovery catalog backends.
//
// §2 of the paper: "We make no assumption about the structure of the peer
// network, e.g. whether a DHT-style index is present or not. We will
// discuss the impact of various network structures further on." The
// catalog is where that impact shows: resolving `d@any` (def. 9) needs to
// discover which peers hold members of the equivalence class. The
// CatalogBackend interface makes the structure pluggable; three
// implementations exist, one per network structure:
//
//  - CentralCatalog:  one index server, a request and an answer per lookup.
//  - ChordDhtCatalog: a Chord ring routed hop by hop, with batched
//                     advertisement digests to the responsible node.
//  - FloodCatalog:    Gnutella-style flooding with a TTL.
//
// Every catalog message is an encoded wire::CatalogMessage (xml/wire.h)
// sent one way with Network::SendReliable, so it is priced at its
// encoded size, traced and fault-injectable like every other message: a
// lookup request carries the key, an answer the key and the holders the
// serving node indexes, a digest one holder's advertisement deltas. The
// serving node builds its answer from the request it decoded, when the
// request lands, and sends it back on its own link; the requester's
// holders are the ones in the answer it decoded. Lookup answers
// asynchronously, exactly once; CatalogStats counts messages and bytes,
// node_load the per-serving-node load behind bench_fleet's hot-node
// share, and the event loop's clock a lookup's delay.

#ifndef AXML_NET_CATALOG_H_
#define AXML_NET_CATALOG_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "xml/wire.h"

namespace axml {

/// What kind of resource a catalog entry names.
enum class ResourceKind { kDocument, kService };

/// Aggregate traffic counters one catalog backend has generated, at
/// each sent message's encoded size (retransmissions are not counted).
/// `advertise_noops` counts Register calls for already-advertised
/// entries — the re-advertisements the delta protocol makes free.
struct CatalogStats {
  uint64_t lookups = 0;
  uint64_t lookup_messages = 0;
  uint64_t lookup_bytes = 0;
  uint64_t advertise_messages = 0;
  uint64_t advertise_bytes = 0;
  uint64_t advertise_deltas = 0;
  uint64_t advertise_noops = 0;

  void ExportMetrics(MetricSink& sink) const;
};

/// Interface shared by all catalog backends. The base class owns the
/// authoritative name -> holders index (synchronously consistent, as in
/// the seed); backends differ in how lookups and advertisement deltas
/// are *routed* and therefore what they cost.
class CatalogBackend {
 public:
  /// Receives the peers that advertise the resource (may be empty).
  using LookupCallback = std::function<void(const std::vector<PeerId>&)>;

  virtual ~CatalogBackend() = default;

  /// Short stable identifier ("central", "chord-dht", ...) for benches
  /// and reports.
  virtual const char* backend_name() const = 0;

  /// Advertises that `holder` provides `name`. Only an *effective* delta
  /// (the entry was not already advertised) reaches the backend's
  /// routing hook; a repeat Register is a counted no-op.
  virtual void Register(ResourceKind kind, const std::string& name,
                        PeerId holder);
  virtual void Unregister(ResourceKind kind, const std::string& name,
                          PeerId holder);

  /// True when `holder` currently advertises `name`. Free (no
  /// traffic): used by tests and the replica layer to check registration
  /// state without a lookup.
  bool IsAdvertised(ResourceKind kind, const std::string& name,
                    PeerId holder) const;
  /// Number of peers advertising `name` (free, like IsAdvertised).
  size_t HolderCount(ResourceKind kind, const std::string& name) const;

  /// Resolves `name` from peer `from`: sends the lookup's messages on
  /// `net` and invokes `cb` exactly once — with the holders of the
  /// answers that reached `from` once the lookup's exchanges complete,
  /// or with no holders when a crashed peer ends the lookup early.
  virtual void Lookup(ResourceKind kind, const std::string& name,
                      PeerId from, Network* net, LookupCallback cb) = 0;

  /// Number of peers this catalog assumes in the system (for the DHT
  /// ring and the flood fallback); set by AxmlSystem.
  void set_peer_count(uint32_t n) {
    if (n == peer_count_) return;
    peer_count_ = n;
    OnPeerCountChanged();
  }

  /// Wires the system's Network in so backends can send advertisement
  /// digests. Left null (the default, and the standalone usage),
  /// registration stays free as in the seed.
  void AttachNetwork(Network* net) { net_ = net; }

  /// Marks `peer` crashed (`live` false) or rejoined (`live` true).
  /// AxmlSystem::CrashPeer / RejoinPeer call this right after flipping
  /// the Network's liveness gate. Routed backends (Chord) steer lookups
  /// and digests around down peers; the others ignore it.
  virtual void SetPeerLive(PeerId /*peer*/, bool /*live*/) {}

  /// Opens / closes an advertisement batch window. While a window is
  /// open, effective deltas coalesce per (holder, responsible node) and
  /// flush as one digest message each on the final EndAdvertiseBatch —
  /// how a bulk install (fleet bring-up, placement round) pays O(delta)
  /// instead of O(calls). Windows nest; backends without routed
  /// advertisements treat both as no-ops.
  void BeginAdvertiseBatch() { ++advertise_batch_depth_; }
  void EndAdvertiseBatch();

  // --- observability ---

  const CatalogStats& stats() const { return stats_; }
  /// Catalog messages *handled* by each peer (routing hops received,
  /// lookups served, digests applied). Requesters receiving their own
  /// response are not load. Empty for backends that do not attribute
  /// load to nodes (flooding).
  const std::map<uint32_t, uint64_t>& node_load() const {
    return node_load_;
  }
  /// Largest single-node share of all handled catalog messages, in
  /// [0, 1]; 0 when no messages were handled. Central pins this near 1
  /// at its server, a balanced DHT drives it toward 1/P.
  double MaxNodeLoadShare() const;
  /// Stats counters plus node_load_max / node_load_total.
  void ExportMetrics(MetricSink& sink) const;
  void ResetStats();

 protected:
  /// Invoked once for every effective advertisement delta (add or
  /// remove). Backends route / price it; the default is free.
  virtual void OnAdvertiseDelta(ResourceKind kind, const std::string& name,
                                PeerId holder, bool add);
  /// Invoked when the last advertisement batch window closes.
  virtual void FlushAdvertiseBatch() {}
  /// Invoked when set_peer_count changes the value.
  virtual void OnPeerCountChanged() {}

  void RecordAdvertise(uint64_t messages, uint64_t bytes, uint64_t deltas) {
    stats_.advertise_messages += messages;
    stats_.advertise_bytes += bytes;
    stats_.advertise_deltas += deltas;
  }
  void AddNodeLoad(PeerId node) { ++node_load_[node.index()]; }
  bool in_advertise_batch() const { return advertise_batch_depth_ > 0; }

  static wire::Payload EncodeLookup(ResourceKind kind,
                                    const std::string& name);
  /// The answer a node serving `request` sends back: the request's key
  /// plus every holder the index lists under it, or only `node` itself
  /// when a node answers for itself (flooding).
  wire::Payload AnswerTo(const wire::Payload& request,
                         std::optional<PeerId> node = std::nullopt) const;
  static std::vector<PeerId> HoldersIn(const wire::Payload& answer);
  /// Sends one lookup message (a request, a routing hop or an answer)
  /// with Network::SendReliable, counted in lookup_messages/bytes.
  void SendLookup(Network* net, PeerId from, PeerId to, wire::Payload message,
                  Network::PayloadDeliverFn on_arrival,
                  Network::DeliverFn on_abandon);
  /// Sends `answer` to the requester and calls `cb` exactly once: with
  /// the holders of the answer that arrived, or with none when it is
  /// abandoned (an endpoint crashed).
  void Answer(Network* net, PeerId from, PeerId to, wire::Payload answer,
              LookupCallback cb);

  const std::vector<PeerId>* Holders(ResourceKind kind,
                                     const std::string& name) const;
  static std::string MapKey(ResourceKind kind, const std::string& name) {
    return (kind == ResourceKind::kDocument ? "d:" : "s:") + name;
  }

  uint32_t peer_count_ = 0;
  Network* net_ = nullptr;
  CatalogStats stats_;

 private:
  std::map<std::string, std::vector<PeerId>> entries_;
  std::map<uint32_t, uint64_t> node_load_;
  uint32_t advertise_batch_depth_ = 0;
};

/// The seed's name for the interface; all existing call sites use it.
using Catalog = CatalogBackend;

/// Single well-known index server. Advertisements stay free ("charged
/// lazily on lookup", as in the seed); the server answers each lookup
/// as its request lands, and counts it as load.
class CentralCatalog : public CatalogBackend {
 public:
  explicit CentralCatalog(PeerId server) : server_(server) {}

  const char* backend_name() const override { return "central"; }
  void Lookup(ResourceKind kind, const std::string& name, PeerId from,
              Network* net, LookupCallback cb) override;

 private:
  PeerId server_;
};

/// A real Chord-style DHT over the peer ids: each peer owns the arc of a
/// 64-bit hash ring ending at its point; entry `name` lives at the
/// successor of hash(name). Lookups route greedily through finger
/// intervals (successor of cur + 2^j), giving O(log P) hops, each hop a
/// one-way message on the actual cur->next link. Each next hop is
/// picked from the node the lookup is on, when it sends that hop.
/// Advertisement deltas route as digest messages holder -> responsible
/// node (holders cache their responsible-node addresses, the standard
/// one-hop put) and coalesce under Begin/EndAdvertiseBatch.
///
/// The ring is rebuilt lazily when peer_count changes, so fleet bring-up
/// (P AddPeer calls) does not pay P ring builds. Liveness-aware routing
/// (SetPeerLive): a crashed peer stays a ring member, but successor
/// resolution walks past it — its arc is absorbed by the next live peer,
/// the lazy form of Chord's successor-list repair — and finger targets
/// resolve through the same filter, so every hop of every route lands on
/// a live node. A hop abandoned because its next node crashed in flight
/// is routed again from the last live hop, as Chord does, not retried
/// into the dead one. Rejoin restores the peer's arc on the next
/// resolution; no explicit finger tables exist to fix up.
class ChordDhtCatalog : public CatalogBackend {
 public:
  const char* backend_name() const override { return "chord-dht"; }
  void Lookup(ResourceKind kind, const std::string& name, PeerId from,
              Network* net, LookupCallback cb) override;
  void SetPeerLive(PeerId peer, bool live) override;

 protected:
  void OnAdvertiseDelta(ResourceKind kind, const std::string& name,
                        PeerId holder, bool add) override;
  void FlushAdvertiseBatch() override;
  void OnPeerCountChanged() override { ring_dirty_ = true; }

 private:
  void EnsureRing() const;
  /// Ring position of peer `index` (a splitmix64 point, deterministic).
  static uint64_t PeerPoint(uint32_t index);
  /// True unless the peer is marked down via SetPeerLive.
  bool IsLive(uint32_t index) const { return down_.count(index) == 0; }
  /// The first *live* peer at or clockwise of `point` (a crashed
  /// successor is skipped — its arc falls to the next live peer).
  uint32_t SuccessorOf(uint64_t point) const;
  /// Next routing hop from `cur` toward `responsible`.
  uint32_t NextHop(uint32_t cur, uint32_t responsible) const;
  /// One lookup in flight, carrying its request (encoded once).
  struct Walk {
    wire::Payload request;
    uint64_t target = 0;
    PeerId from;
    Network* net = nullptr;
    LookupCallback cb;
  };
  /// Advances `walk`, now at `cur`: answers the requester when `cur` is
  /// responsible, otherwise sends the next hop.
  void Step(const std::shared_ptr<Walk>& walk, PeerId cur);
  /// One digest message holder -> responsible carrying `deltas`.
  void SendDigest(uint32_t holder, uint32_t responsible,
                  std::vector<wire::CatalogMessage::Entry> deltas);

  /// (point, peer index), sorted by point; rebuilt lazily.
  mutable std::vector<std::pair<uint64_t, uint32_t>> ring_;
  mutable bool ring_dirty_ = true;
  /// Peers currently crashed (by index); routing skips them.
  std::set<uint32_t> down_;
  /// Deltas pending in the open batch window, coalesced per
  /// (holder, responsible) pair.
  std::map<std::pair<uint32_t, uint32_t>,
           std::vector<wire::CatalogMessage::Entry>>
      pending_digests_;
};

/// Unstructured flooding over the topology's neighbor graph (with no
/// graph, the requester broadcasts to every peer in one hop). A node
/// forwards its first copy of the request on each of its edges while
/// its depth is below the TTL; a holder answers the requester directly.
/// The lookup calls back once every message of the flood has landed or
/// been abandoned.
class FloodCatalog : public CatalogBackend {
 public:
  explicit FloodCatalog(uint32_t ttl = 7) : ttl_(ttl) {}

  const char* backend_name() const override { return "flood"; }
  void Lookup(ResourceKind kind, const std::string& name, PeerId from,
              Network* net, LookupCallback cb) override;

 private:
  /// One lookup in flight.
  struct Flood {
    wire::Payload request;
    PeerId from;
    Network* net = nullptr;
    std::unordered_set<PeerId> reached;  ///< later copies not forwarded
    std::vector<PeerId> holders;         ///< from the answers so far
    uint64_t in_flight = 0;              ///< messages not landed yet
    LookupCallback cb;
  };
  /// The request reached `node`, `depth` hops from the requester.
  void Reach(const std::shared_ptr<Flood>& flood, PeerId node,
             uint32_t depth);
  /// One message of the flood; `on_arrival` runs when it lands.
  void Forward(const std::shared_ptr<Flood>& flood, PeerId from, PeerId to,
               wire::Payload payload, Network::PayloadDeliverFn on_arrival);
  /// Calls back once nothing of the flood is in flight.
  void Settle(const std::shared_ptr<Flood>& flood);
  std::vector<PeerId> Neighbors(const Topology& topo, PeerId node,
                                PeerId from) const;

  uint32_t ttl_;
};

}  // namespace axml

#endif  // AXML_NET_CATALOG_H_
