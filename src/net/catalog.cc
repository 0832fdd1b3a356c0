#include "net/catalog.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>

#include "common/logging.h"

namespace axml {

namespace {

// Deterministic 64-bit mixer (splitmix64): ring points must not depend
// on process state, so equal seeds give equal rings.
uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// FNV-1a over the key string, finished through the mixer so nearby names
// spread over the ring.
uint64_t HashKey(const std::string& s) {
  uint64_t h = 0xCBF29CE484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001B3ULL;
  }
  return Mix64(h);
}

// Clockwise ring distance from `a` to `b` (unsigned wraparound).
uint64_t RingDist(uint64_t a, uint64_t b) { return b - a; }

// Decodes a catalog message this module encoded.
wire::CatalogMessage DecodeOwn(const wire::Payload& p) {
  Result<wire::CatalogMessage> m = wire::DecodeCatalog(p);
  AXML_CHECK(m.ok()) << m.status().ToString();
  return std::move(*m);
}

}  // namespace

void CatalogStats::ExportMetrics(MetricSink& sink) const {
  sink.Value("lookups", lookups);
  sink.Value("lookup_messages", lookup_messages);
  sink.Value("lookup_bytes", lookup_bytes);
  sink.Value("advertise_messages", advertise_messages);
  sink.Value("advertise_bytes", advertise_bytes);
  sink.Value("advertise_deltas", advertise_deltas);
  sink.Value("advertise_noops", advertise_noops);
}

void CatalogBackend::Register(ResourceKind kind, const std::string& name,
                              PeerId holder) {
  auto& v = entries_[MapKey(kind, name)];
  if (std::find(v.begin(), v.end(), holder) != v.end()) {
    // Already advertised: the delta protocol makes this free.
    ++stats_.advertise_noops;
    return;
  }
  v.push_back(holder);
  OnAdvertiseDelta(kind, name, holder, /*add=*/true);
}

void CatalogBackend::Unregister(ResourceKind kind, const std::string& name,
                                PeerId holder) {
  auto it = entries_.find(MapKey(kind, name));
  if (it == entries_.end()) {
    ++stats_.advertise_noops;
    return;
  }
  auto& v = it->second;
  auto pos = std::remove(v.begin(), v.end(), holder);
  if (pos == v.end()) {
    ++stats_.advertise_noops;
    return;
  }
  v.erase(pos, v.end());
  if (v.empty()) entries_.erase(it);
  OnAdvertiseDelta(kind, name, holder, /*add=*/false);
}

void CatalogBackend::OnAdvertiseDelta(ResourceKind, const std::string&,
                                      PeerId, bool) {
  // Default: the delta happened but cost nothing on the wire (the seed's
  // "registration is charged lazily on lookup" model).
  RecordAdvertise(0, 0, 1);
}

void CatalogBackend::EndAdvertiseBatch() {
  if (advertise_batch_depth_ == 0) return;
  if (--advertise_batch_depth_ == 0) FlushAdvertiseBatch();
}

const std::vector<PeerId>* CatalogBackend::Holders(
    ResourceKind kind, const std::string& name) const {
  auto it = entries_.find(MapKey(kind, name));
  return it == entries_.end() ? nullptr : &it->second;
}

bool CatalogBackend::IsAdvertised(ResourceKind kind, const std::string& name,
                                  PeerId holder) const {
  const std::vector<PeerId>* h = Holders(kind, name);
  return h != nullptr && std::find(h->begin(), h->end(), holder) != h->end();
}

size_t CatalogBackend::HolderCount(ResourceKind kind,
                                   const std::string& name) const {
  const std::vector<PeerId>* h = Holders(kind, name);
  return h == nullptr ? 0 : h->size();
}

double CatalogBackend::MaxNodeLoadShare() const {
  uint64_t total = 0;
  uint64_t max = 0;
  for (const auto& [node, n] : node_load_) {
    (void)node;
    total += n;
    max = std::max(max, n);
  }
  return total == 0 ? 0.0
                    : static_cast<double>(max) / static_cast<double>(total);
}

void CatalogBackend::ExportMetrics(MetricSink& sink) const {
  stats_.ExportMetrics(sink);
  uint64_t total = 0;
  uint64_t max = 0;
  for (const auto& [node, n] : node_load_) {
    (void)node;
    total += n;
    max = std::max(max, n);
  }
  sink.Value("node_load_total", total);
  sink.Value("node_load_max", max);
}

void CatalogBackend::ResetStats() {
  stats_ = CatalogStats{};
  node_load_.clear();
}

wire::Payload CatalogBackend::EncodeLookup(ResourceKind kind,
                                           const std::string& name) {
  wire::CatalogMessage m;
  m.key = {kind == ResourceKind::kService, name};
  return wire::EncodeCatalog(m);
}

wire::Payload CatalogBackend::AnswerTo(const wire::Payload& request,
                                       std::optional<PeerId> node) const {
  wire::CatalogMessage m = DecodeOwn(request);
  m.op = wire::CatalogMessage::Op::kAnswer;
  const ResourceKind kind =
      m.key.service ? ResourceKind::kService : ResourceKind::kDocument;
  if (const auto* h = Holders(kind, m.key.name)) {
    for (PeerId p : *h) {
      if (!node.has_value() || p == *node) m.holders.push_back(p.index());
    }
  }
  return wire::EncodeCatalog(m);
}

std::vector<PeerId> CatalogBackend::HoldersIn(const wire::Payload& answer) {
  const wire::CatalogMessage m = DecodeOwn(answer);
  AXML_DCHECK(m.op == wire::CatalogMessage::Op::kAnswer);
  return std::vector<PeerId>(m.holders.begin(), m.holders.end());
}

void CatalogBackend::SendLookup(Network* net, PeerId from, PeerId to,
                                wire::Payload message,
                                Network::PayloadDeliverFn on_arrival,
                                Network::DeliverFn on_abandon) {
  ++stats_.lookup_messages;
  stats_.lookup_bytes += message.size();
  net->SendReliable(from, to, std::move(message), std::move(on_arrival),
                    std::move(on_abandon));
}

void CatalogBackend::Answer(Network* net, PeerId from, PeerId to,
                            wire::Payload answer, LookupCallback cb) {
  // Exactly one of the two closures runs; they share the callback.
  auto done = std::make_shared<LookupCallback>(std::move(cb));
  SendLookup(
      net, from, to, std::move(answer),
      [done](const wire::Payload& arrived) { (*done)(HoldersIn(arrived)); },
      [done] { (*done)({}); });
}

// --- CentralCatalog ---

void CentralCatalog::Lookup(ResourceKind kind, const std::string& name,
                            PeerId from, Network* net, LookupCallback cb) {
  ++stats_.lookups;
  // The request travels the requester->server link, so it queues behind
  // (and is judged with) that link's data traffic; the server answers
  // from its index as the request lands, on the server->requester link.
  // A down server answers nothing: the lookup ends with no holders.
  auto done = std::make_shared<LookupCallback>(std::move(cb));
  SendLookup(
      net, from, server_, EncodeLookup(kind, name),
      [this, net, from, done](const wire::Payload& request) {
        // The server handles the request; the requester receiving its
        // own answer is not load.
        AddNodeLoad(server_);
        Answer(net, server_, from, AnswerTo(request), std::move(*done));
      },
      [done] { (*done)({}); });
}

// --- ChordDhtCatalog ---

uint64_t ChordDhtCatalog::PeerPoint(uint32_t index) {
  return Mix64(static_cast<uint64_t>(index) + 1);
}

void ChordDhtCatalog::EnsureRing() const {
  if (!ring_dirty_) return;
  ring_.clear();
  ring_.reserve(peer_count_);
  for (uint32_t i = 0; i < peer_count_; ++i) {
    ring_.emplace_back(PeerPoint(i), i);
  }
  std::sort(ring_.begin(), ring_.end());
  ring_dirty_ = false;
}

uint32_t ChordDhtCatalog::SuccessorOf(uint64_t point) const {
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), point,
      [](const std::pair<uint64_t, uint32_t>& e, uint64_t p) {
        return e.first < p;
      });
  if (it == ring_.end()) it = ring_.begin();
  // Successor-list repair, lazily: a crashed successor is skipped and
  // its arc falls to the next live peer, so digests and lookups keep
  // landing on reachable nodes through churn. When every peer is down
  // (quiesced test teardown) the nominal successor is returned — the
  // network gate stops the traffic anyway.
  auto probe = it;
  for (size_t n = 0; n < ring_.size(); ++n) {
    if (IsLive(probe->second)) return probe->second;
    ++probe;
    if (probe == ring_.end()) probe = ring_.begin();
  }
  return it->second;
}

void ChordDhtCatalog::SetPeerLive(PeerId peer, bool live) {
  if (!peer.is_concrete()) return;
  // The ring itself is membership, not liveness: the peer keeps its
  // point (and reclaims its arc on rejoin); routing filters through
  // down_ at resolution time, so no finger state needs rebuilding.
  if (live) {
    down_.erase(peer.index());
  } else {
    down_.insert(peer.index());
  }
}

uint32_t ChordDhtCatalog::NextHop(uint32_t cur, uint32_t responsible) const {
  const uint64_t cur_pt = PeerPoint(cur);
  const uint64_t span = RingDist(cur_pt, PeerPoint(responsible));
  // Greedy finger routing: the farthest known node that does not
  // overshoot the responsible node. Finger j of `cur` is the successor
  // of cur + 2^j; scanning j downward finds the longest admissible jump.
  for (int j = 63; j >= 0; --j) {
    const uint32_t f = SuccessorOf(cur_pt + (uint64_t{1} << j));
    const uint64_t d = RingDist(cur_pt, PeerPoint(f));
    if (d != 0 && d <= span) return f;
  }
  return responsible;
}

void ChordDhtCatalog::Lookup(ResourceKind kind, const std::string& name,
                             PeerId from, Network* net, LookupCallback cb) {
  ++stats_.lookups;
  Step(std::make_shared<Walk>(Walk{EncodeLookup(kind, name),
                                   HashKey(MapKey(kind, name)), from, net,
                                   std::move(cb)}),
       from);
}

void ChordDhtCatalog::Step(const std::shared_ptr<Walk>& walk, PeerId cur) {
  EnsureRing();
  Network* net = walk->net;
  // The responsible node is resolved afresh at every hop, so a crash
  // mid-route moves the destination to the next live successor.
  const uint32_t responsible =
      ring_.empty() ? cur.index() : SuccessorOf(walk->target);
  if (cur.index() == responsible) {
    // The responsible node answers the requester directly from its index
    // (over loopback when the requester owns the entry's arc).
    Answer(net, cur, walk->from, AnswerTo(walk->request),
           std::move(walk->cb));
    return;
  }
  // Requesters outside the ring (tests with ad-hoc ids) enter through
  // the responsible node directly.
  const bool in_ring = cur.is_concrete() && cur.index() < peer_count_;
  const PeerId next(in_ring ? NextHop(cur.index(), responsible)
                            : responsible);
  // Each hop carries the request on the actual cur->next link, so it is
  // priced against that link's traffic, traced, and subject to fault
  // injection; the receiving node's load counter moves when the hop is
  // delivered.
  SendLookup(
      net, cur, next, walk->request,
      [this, walk, next](const wire::Payload&) {
        AddNodeLoad(next);
        Step(walk, next);
      },
      [this, walk, cur, next] {
        // The hop was abandoned because an endpoint crashed. From a live
        // node whose next hop is now known down, route again: the pick
        // skips the crashed peer. Otherwise the lookup is stranded and
        // ends with no holders.
        if (walk->net->IsPeerUp(cur) && !IsLive(next.index())) {
          Step(walk, cur);
          return;
        }
        walk->cb({});
      });
}

void ChordDhtCatalog::OnAdvertiseDelta(ResourceKind kind,
                                       const std::string& name, PeerId holder,
                                       bool add) {
  if (net_ == nullptr || !holder.is_concrete()) {
    // Standalone (no network attached): free, like the seed.
    RecordAdvertise(0, 0, 1);
    return;
  }
  EnsureRing();
  if (ring_.empty()) {
    RecordAdvertise(0, 0, 1);
    return;
  }
  const uint32_t responsible = SuccessorOf(HashKey(MapKey(kind, name)));
  wire::CatalogMessage::Entry delta{kind == ResourceKind::kService, name,
                                    add};
  if (in_advertise_batch()) {
    pending_digests_[{holder.index(), responsible}].push_back(
        std::move(delta));
    return;
  }
  SendDigest(holder.index(), responsible, {std::move(delta)});
}

void ChordDhtCatalog::FlushAdvertiseBatch() {
  if (net_ == nullptr) {
    pending_digests_.clear();
    return;
  }
  for (auto& [pair, deltas] : pending_digests_) {
    SendDigest(pair.first, pair.second, std::move(deltas));
  }
  pending_digests_.clear();
}

void ChordDhtCatalog::SendDigest(
    uint32_t holder, uint32_t responsible,
    std::vector<wire::CatalogMessage::Entry> deltas) {
  if (holder == responsible) {
    // The holder owns the entry's arc: a local index write.
    RecordAdvertise(0, 0, deltas.size());
    return;
  }
  const wire::CatalogMessage m{wire::CatalogMessage::Op::kDigest, {}, {},
                                holder, std::move(deltas)};
  wire::Payload digest = wire::EncodeCatalog(m);
  RecordAdvertise(1, digest.size(), m.deltas.size());
  AddNodeLoad(PeerId(responsible));
  net_->SendReliable(PeerId(holder), PeerId(responsible), std::move(digest),
                     nullptr);
}

// --- FloodCatalog ---

void FloodCatalog::Lookup(ResourceKind kind, const std::string& name,
                          PeerId from, Network* net, LookupCallback cb) {
  // Flood load diffuses over every visited peer; it is not attributed
  // to node_load (the hot-node comparison is central vs DHT).
  ++stats_.lookups;
  auto flood = std::make_shared<Flood>(
      Flood{EncodeLookup(kind, name), from, net, {from}, {}, 0, std::move(cb)});
  Reach(flood, from, 0);
  // A flood that sent nothing still calls back from the loop.
  if (flood->in_flight == 0) {
    net->loop()->Post([this, flood] { Settle(flood); });
  }
}

void FloodCatalog::Reach(const std::shared_ptr<Flood>& flood, PeerId node,
                         uint32_t depth) {
  // The node answers for itself when its own index entry matches the
  // request: straight back to the requester, or into the result when it
  // is the requester.
  wire::Payload answer = AnswerTo(flood->request, node);
  std::vector<PeerId> own = HoldersIn(answer);
  if (node == flood->from) {
    flood->holders.insert(flood->holders.end(), own.begin(), own.end());
  } else if (!own.empty()) {
    Forward(flood, node, flood->from, std::move(answer),
            [flood](const wire::Payload& arrived) {
              for (PeerId h : HoldersIn(arrived)) flood->holders.push_back(h);
            });
  }
  if (depth >= ttl_) return;
  for (PeerId nb : Neighbors(flood->net->topology(), node, flood->from)) {
    // The request travels every edge; only a node's first copy of it is
    // forwarded further.
    Forward(flood, node, nb, flood->request,
            [this, flood, nb, depth](const wire::Payload&) {
              if (flood->reached.insert(nb).second) {
                Reach(flood, nb, depth + 1);
              }
            });
  }
}

void FloodCatalog::Forward(const std::shared_ptr<Flood>& flood, PeerId from,
                           PeerId to, wire::Payload payload,
                           Network::PayloadDeliverFn on_arrival) {
  ++flood->in_flight;
  auto landed = [this, flood] {
    --flood->in_flight;
    Settle(flood);
  };
  SendLookup(flood->net, from, to, std::move(payload),
             [landed, on_arrival = std::move(on_arrival)](
                 const wire::Payload& p) {
               on_arrival(p);
               landed();
             },
             landed);
}

void FloodCatalog::Settle(const std::shared_ptr<Flood>& flood) {
  if (flood->in_flight > 0 || !flood->cb) return;
  std::exchange(flood->cb, nullptr)(flood->holders);
}

std::vector<PeerId> FloodCatalog::Neighbors(const Topology& topo,
                                            PeerId node, PeerId from) const {
  if (topo.has_neighbor_graph()) return topo.Neighbors(node);
  // No declared graph: the requester broadcasts to everyone in one hop.
  std::vector<PeerId> all;
  for (uint32_t i = 0; node == from && i < peer_count_; ++i) {
    if (PeerId(i) != from) all.emplace_back(i);
  }
  return all;
}

}  // namespace axml
