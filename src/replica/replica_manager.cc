#include "replica/replica_manager.h"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "common/logging.h"
#include "common/str_util.h"
#include "net/catalog.h"
#include "opt/cost_model.h"
#include "peer/peer.h"
#include "peer/system.h"
#include "xml/wire.h"

namespace axml {

namespace {

/// Data shards are immutable (their key *is* their content digest), so
/// they are stored and looked up at this sentinel version — Version()
/// is always >= 1, so no document version can ever brand them stale.
constexpr uint64_t kImmutableVersion = 0;

/// Cap on the eager-refresh catch-up chain: a shipment landing on a
/// moved origin version launches at most this many total attempts
/// before the holder falls back to lazy pulls. Under sustained
/// mutation (every mutation overtaking the shipment in flight) an
/// unbounded chain would ship forever without ever landing fresh.
constexpr int kMaxCatchupAttempts = 3;

/// Bounded shipment retry (set_shipment_retry): attempts per shipment,
/// and the backoff added per attempt to a shipment's timeout.
constexpr int kShipMaxAttempts = 3;
constexpr SimTime kShipBackoffBaseS = 0.25;

ReplicaKey ShardDataKey(PeerId origin, const DocName& name,
                        const ContentDigest& id) {
  return ReplicaKey{origin, name, id.ToString()};
}

/// The cache keys a digest entry names: the document entry when it
/// carries one (a nonzero digest), then its data shards.
std::vector<ReplicaKey> DigestKeys(PeerId origin,
                                   const wire::DigestExchange::Doc& d) {
  std::vector<ReplicaKey> keys;
  if (d.manifest != ContentDigest{}) keys.push_back(ReplicaKey{origin, d.name});
  for (const ContentDigest& shard : d.shards) {
    keys.push_back(ShardDataKey(origin, d.name, shard));
  }
  return keys;
}

/// The system's wire encode/decode accounting, nullptr for unbound
/// managers (headless unit tests).
wire::WireStats* WireStatsOf(AxmlSystem* sys) {
  return sys == nullptr ? nullptr : &sys->wire_stats();
}

/// A complete fresh copy of one document resident in a holder's cache,
/// seen without side effects: the fresh document entry and every data
/// shard it references.
struct ResidentCopy {
  const TransferCache::Entry* entry = nullptr;
  /// (id, entry) per reference of `entry`, in manifest order; empty for
  /// an entry that references no shard.
  std::vector<std::pair<std::string, const TransferCache::Entry*>> shards;
  /// Content bytes: the entry's when it references no shard, else the
  /// sum over `shards`.
  uint64_t bytes = 0;
};

/// Fills `copy` when `cache` holds a complete copy of document `doc`
/// at version `current`: the entry is at that version and every id it
/// references is resident. The one completeness rule that reads,
/// pricing, installs, fan-out and reconciliation share.
bool FindResidentCopy(const TransferCache& cache, const ReplicaKey& doc,
                      uint64_t current, ResidentCopy* copy) {
  const TransferCache::Entry* e = cache.Peek(doc);
  if (e == nullptr || e->origin_version != current) return false;
  ResidentCopy found;
  found.entry = e;
  for (std::string& id : ManifestShardIds(*e->tree)) {
    const TransferCache::Entry* s =
        cache.Peek(ReplicaKey{doc.origin, doc.name, id});
    if (s == nullptr) return false;
    found.bytes += s->bytes;
    found.shards.emplace_back(std::move(id), s);
  }
  if (found.shards.empty()) found.bytes = e->bytes;
  *copy = std::move(found);
  return true;
}

/// A private instance of the document `entry` stands for, minted by
/// `gen` and never a cache blob: the entry cloned when it references no
/// shard, else the document assembled from `parts` (id -> shard blob).
TreePtr Materialize(const TreeNode& entry,
                    const std::map<std::string, TreePtr>& parts,
                    NodeIdGen* gen) {
  if (!IsShardManifest(entry)) return entry.Clone(gen);
  return AssembleDocument(
      entry,
      [&parts](const std::string& id) -> TreePtr {
        auto it = parts.find(id);
        return it == parts.end() ? nullptr : it->second;
      },
      gen);
}

TreePtr Materialize(const ResidentCopy& copy, NodeIdGen* gen) {
  std::map<std::string, TreePtr> parts;
  for (const auto& [id, e] : copy.shards) parts.emplace(id, e->tree);
  return Materialize(*copy.entry->tree, parts, gen);
}

}  // namespace

std::string ShardStats::ToString() const {
  return StrCat("sharded_reads=", sharded_reads,
                " sharded_shipments=", sharded_shipments,
                " manifests_shipped=", manifests_shipped,
                " shards_shipped=", shards_shipped,
                " shard_bytes_shipped=", shard_bytes_shipped,
                " shards_reused=", shards_reused,
                " shard_bytes_saved=", shard_bytes_saved,
                " full_hits=", full_hits, " partial_hits=", partial_hits);
}

void ShardStats::ExportMetrics(MetricSink& sink) const {
  sink.Value("sharded_reads", sharded_reads);
  sink.Value("sharded_shipments", sharded_shipments);
  sink.Value("manifests_shipped", manifests_shipped);
  sink.Value("shards_shipped", shards_shipped);
  sink.Value("shard_bytes_shipped", shard_bytes_shipped);
  sink.Value("shards_reused", shards_reused);
  sink.Value("shard_bytes_saved", shard_bytes_saved);
  sink.Value("full_hits", full_hits);
  sink.Value("partial_hits", partial_hits);
}

uint64_t ReplicaManager::Version(PeerId owner, const DocName& name) const {
  auto it = versions_.find(ReplicaKey{owner, name});
  return it == versions_.end() ? 1 : it->second;
}

void ReplicaManager::NoteMutation(PeerId owner, const DocName& name) {
  AXML_DCHECK_CALLED_ON_SEQUENCE(sequence_checker_);
#ifndef AXML_DISABLE_DCHECKS
  // Same-key cycle detection (the header's reentrancy contract):
  // distinct keys legally nest — a drop's RemoveDocument fires the
  // mutation listener, which re-enters here for the *holder's* name —
  // but re-entering for the same (owner, name) means the fan-out looped
  // back into its own mid-mutation version/subscription state.
  AXML_CHECK(active_mutations_.insert(ReplicaKey{owner, name}).second)
      << "NoteMutation re-entered for " << ReplicaKey{owner, name}.ToString()
      << " while its own fan-out is running (same-key mutation cycle)";
  struct ActiveEraser {
    std::set<ReplicaKey>* active;
    ReplicaKey key;
    ~ActiveEraser() { active->erase(key); }
  } active_eraser{&active_mutations_, ReplicaKey{owner, name}};
#endif
  // One mutation = one causal chain: every notify, shipment and landing
  // the fan-out below triggers — synchronously or across simulated
  // network hops — inherits this id (unless the mutation is itself part
  // of a chain already, e.g. a landed copy installing).
  Tracer* tr = trace();
  Tracer::Scope trace_scope(tr, tr != nullptr ? tr->CurrentOrNew() : 0);
  if (tr != nullptr && tr->enabled()) {
    tr->Record("replica", "mutation", owner, 0, 0,
               ReplicaKey{owner, name}.ToString());
  }

  // A never-mutated document is at version 1 (the header's contract), so
  // the first mutation must land on 2 — default-constructing the slot at
  // 0 and incrementing would leave it indistinguishable from fresh.
  ++versions_.try_emplace(ReplicaKey{owner, name}, 1).first->second;

  // Push to copy holders first: under kDrop/kEagerRefresh every
  // subscriber's copy and advertisements are retracted before this call
  // returns — no stale advertisement survives into the window between
  // this mutation and the next read.
  if (refresh_policy_ != RefreshPolicy::kLazy && sys_ != nullptr) {
    PushInvalidate(ReplicaKey{owner, name});
  }

  // A durable write onto a document slot we were using for a cached copy
  // (e.g. send(d@p, ...) landing on the copy's name) promotes the slot:
  // the copy ceases to exist, the document stays. The mutated tree may
  // alias cache blobs (content addressing shares them), so every entry of
  // this peer's cache holding that blob is dropped.
  auto it = installed_.find({owner, name});
  if (it == installed_.end()) return;
  const PeerId origin = it->second;
  installed_.erase(it);
  auto cache_it = caches_.find(owner);
  if (TransferCache* cache = cache_it == caches_.end()
                                 ? nullptr
                                 : cache_it->second.get()) {
    const TransferCache::Entry* e = cache->Peek(ReplicaKey{origin, name});
    const std::optional<ContentDigest> digest =
        e == nullptr ? std::nullopt : std::optional(e->digest);
    // The entry and the data shards it referenced no longer describe
    // anything.
    for (const ReplicaKey& k : cache->KeysForDoc(origin, name)) {
      cache->Erase(k, /*invalidation=*/true);
    }
    if (digest.has_value()) {
      for (const ReplicaKey& alias : cache->KeysWithDigest(*digest)) {
        cache->Erase(alias, /*invalidation=*/true);
      }
    }
  }
  // A durable put keeps the catalog entry (the peer genuinely holds a
  // document of this name now); a removal must retract it — the listener
  // fires for both, so check which one happened. Membership in the
  // origin's classes goes either way: the write may have broken
  // equivalence.
  if (sys_ != nullptr) {
    const Peer* holder = sys_->peer(owner);
    const bool still_exists = holder != nullptr && holder->HasDocument(name);
    if (!still_exists && sys_->catalog() != nullptr) {
      sys_->catalog()->Unregister(ResourceKind::kDocument, name, owner);
    }
    // Explicit snapshot: DocumentClassesOf returns its vector by value,
    // but RemoveDocumentMember rewrites the registry's reverse index
    // underneath us — never iterate the registry's own storage here.
    const std::vector<std::string> classes =
        sys_->generics().DocumentClassesOf(ClassMember{name, owner});
    for (const std::string& cls : classes) {
      sys_->generics().RemoveDocumentMember(cls, ClassMember{name, owner});
    }
  }
}

TransferCache* ReplicaManager::CacheFor(PeerId peer) {
  AXML_DCHECK_CALLED_ON_SEQUENCE(sequence_checker_);
  auto it = caches_.find(peer);
  if (it != caches_.end()) return it->second.get();
  auto cache = std::make_unique<TransferCache>(default_budget_,
                                               default_eviction_policy_);
  cache->set_evict_listener(
      [this, peer](const ReplicaKey& key,
                   const TransferCache::Entry& entry) {
        if (Tracer* tr = trace(); tr != nullptr && tr->enabled()) {
          tr->Record("replica", "evict", peer, entry.bytes, 0,
                     key.ToString());
        }
        // Subscriptions mirror residency exactly: each departing entry
        // — document entry or data shard — ends its own subscription,
        // so mutation fan-out targets precisely what the holder still
        // has. The installed document is retracted on
        // losing *any* piece (installed ⇔ fully resident in cache).
        subscriptions_.Unsubscribe(key, peer);
        RetractAdvertisements(peer, key);
      });
  if (sys_ != nullptr) {
    // The cost-aware policy prices victims by what re-pulling them over
    // the holder<-origin link would cost (CostModel::RefetchCost): a
    // copy of a distant origin survives bursts of cheap nearby traffic.
    cache->set_refetch_cost(
        [this, peer](const ReplicaKey& key, uint64_t bytes) {
          return CostModel(sys_).RefetchCost(peer, key.origin, bytes);
        });
  }
  return caches_.emplace(peer, std::move(cache)).first->second.get();
}

void ReplicaManager::set_default_eviction_policy(EvictionPolicy p) {
  default_eviction_policy_ = p;
  for (auto& [peer, cache] : caches_) cache->set_eviction_policy(p);
}

const TransferCache* ReplicaManager::FindCache(PeerId peer) const {
  auto it = caches_.find(peer);
  return it == caches_.end() ? nullptr : it->second.get();
}

bool ReplicaManager::InsertCopy(PeerId reader, PeerId origin,
                                const DocName& name, const LandedCopy& landed,
                                uint64_t snapshot_version) {
  AXML_DCHECK_CALLED_ON_SEQUENCE(sequence_checker_);
  if (sys_ == nullptr || reader == origin || !origin.is_concrete() ||
      sys_->peer(reader) == nullptr) {
    return false;
  }
  if (landed.tree == nullptr) return false;
  if (snapshot_version != Version(origin, name)) {
    return false;  // the origin moved on while the copy was on the wire
  }

  TransferCache* cache = CacheFor(reader);
  // The origin now owes this reader a push on every mutation of each
  // cached key (cache-only copies included: they serve reads too and
  // must not go stale silently). Put retracts an older copy of the same
  // key first (evict listener), so the install below sees a clean slot;
  // re-Putting an identical fresh entry would churn the listener
  // (retract + re-advertise) for nothing, so it is skipped.
  const ReplicaKey key{origin, name};
  const TransferCache::Entry* resident = cache->Peek(key);
  const ContentDigest digest = DigestOf(*landed.tree);
  if ((resident == nullptr || resident->origin_version != snapshot_version ||
       !(resident->digest == digest)) &&
      !cache->Put(key, landed.tree, digest, snapshot_version,
                  landed.encoded)) {
    return false;  // the entry alone is over budget: nothing to anchor on
  }
  // Each data shard that survives its Put subscribes under its exact
  // key (a later Put may evict it again — the evict listener
  // unsubscribes then), so mutation fan-out can skip this holder while
  // its pieces stay referenced. Budget refusals are fine — the copy
  // stays partial and later reads fetch the gap again.
  for (const DocumentShard& s : landed.shards) {
    const ReplicaKey skey = ShardDataKey(origin, name, s.id);
    if (cache->Put(skey, s.content, s.id, kImmutableVersion) &&
        cache->Peek(skey) != nullptr) {
      subscriptions_.Subscribe(skey, reader);
    }
  }
  // The shard Puts may have evicted the entry right back out; the
  // surviving shards stay resident (and subscribed) for future deltas.
  if (cache->Peek(key) == nullptr) return false;
  subscriptions_.Subscribe(key, reader);
  // Only a complete copy is installed; a partial one serves delta reads
  // but must never be read by name.
  InstallAndAdvertise(reader, origin, name, snapshot_version);
  return true;
}

void ReplicaManager::InstallAndAdvertise(PeerId reader, PeerId origin,
                                         const DocName& name,
                                         uint64_t version) {
  // The slot is taken by the reader's own document or by a copy from
  // another origin (the cache still serves repeated reads either way).
  // It is checked first: a copy built for a taken slot would only be
  // discarded.
  Peer* holder = sys_->peer(reader);
  if (holder == nullptr || installed_.count({reader, name}) > 0 ||
      holder->HasDocument(name)) {
    return;
  }
  ResidentCopy copy;
  if (!FindResidentCopy(*CacheFor(reader), ReplicaKey{origin, name}, version,
                        &copy)) {
    return;
  }
  // The installed document is a private instance: local reads hand
  // trees out unshared-with-the-cache, so no consumer can mutate the
  // content-addressed blob behind its digest.
  TreePtr tree = Materialize(copy, holder->gen());
  if (tree == nullptr) return;
  if (Tracer* tr = trace(); tr != nullptr && tr->enabled()) {
    tr->Record("replica", "install", reader, 0, 0,
               ReplicaKey{origin, name}.ToString());
  }
  holder->PutDocument(name, std::move(tree));
  installed_[{reader, name}] = origin;
  if (sys_->catalog() != nullptr) {
    sys_->catalog()->Register(ResourceKind::kDocument, name, reader);
  }
  for (const std::string& cls :
       sys_->generics().DocumentClassesOf(ClassMember{name, origin})) {
    sys_->generics().AddDocumentMember(cls, ClassMember{name, reader});
  }
}

TreePtr ReplicaManager::ReadFresh(PeerId reader, PeerId origin,
                                  const DocName& name, CopyLayout* layout) {
  AXML_DCHECK_CALLED_ON_SEQUENCE(sequence_checker_);
  if (sys_ == nullptr || reader == origin || !origin.is_concrete() ||
      sys_->peer(reader) == nullptr) {
    return nullptr;
  }
  // A miss from a peer that never cached anything must not allocate a
  // TransferCache (plus evict listener) for it — readers that never
  // insert would each leak an empty cache. The miss is tallied
  // manager-side so TotalStats stays truthful.
  auto it = caches_.find(reader);
  if (it == caches_.end()) {
    ++uncached_misses_;
    return nullptr;
  }
  TransferCache* cache = it->second.get();
  NodeIdGen* gen = sys_->peer(reader)->gen();
  const uint64_t current = Version(origin, name);
  const ReplicaKey key{origin, name};
  // A stale entry is dropped by this Get (with its advertisements, via
  // the evict listener) and the read falls through to the wire.
  if (cache->Get(key, current) == nullptr) return nullptr;
  // Completeness is probed without side effects first: an incomplete
  // copy must not charge recency/hit credit for shards this read cannot
  // use yet (the delta fetch that follows will claim them).
  ResidentCopy copy;
  if (!FindResidentCopy(*cache, key, current, &copy)) return nullptr;
  if (copy.shards.empty()) {
    if (layout != nullptr) *layout = CopyLayout::kWhole;
    // The private instance is a decode of the resident wire bytes — the
    // same operation the transfer this hit replaces would have run.
    Result<TreePtr> decoded =
        wire::DecodeTree(*cache->PeekEncoded(key), gen, WireStatsOf(sys_));
    AXML_DCHECK(decoded.ok());
    return decoded.ok() ? std::move(decoded).value()
                        : copy.entry->tree->Clone(gen);
  }
  for (const auto& [id, e] : copy.shards) {
    cache->Get(ReplicaKey{origin, name, id}, kImmutableVersion);
  }
  TreePtr assembled = Materialize(copy, gen);
  if (assembled == nullptr) return nullptr;
  ++shard_stats_.full_hits;
  if (layout != nullptr) *layout = CopyLayout::kSharded;
  return assembled;
}

bool ReplicaManager::HasFresh(PeerId reader, PeerId origin,
                              const DocName& name) const {
  return FreshCopyBytes(reader, origin, name) > 0;
}

uint64_t ReplicaManager::FreshCopyBytes(PeerId reader, PeerId origin,
                                        const DocName& name) const {
  const TransferCache* cache = FindCache(reader);
  ResidentCopy copy;
  return cache != nullptr &&
                 FindResidentCopy(*cache, ReplicaKey{origin, name},
                                  Version(origin, name), &copy)
             ? copy.bytes
             : 0;
}

bool ReplicaManager::IsCachedCopy(PeerId peer, const DocName& name) const {
  return installed_.count({peer, name}) > 0;
}

PeerId ReplicaManager::InstalledOrigin(PeerId peer,
                                       const DocName& name) const {
  auto it = installed_.find({peer, name});
  return it == installed_.end() ? PeerId::Invalid() : it->second;
}

bool ReplicaManager::HasFreshInstalled(PeerId reader, PeerId origin,
                                       const DocName& name) const {
  auto it = installed_.find({reader, name});
  return it != installed_.end() && it->second == origin &&
         HasFresh(reader, origin, name);
}

bool ReplicaManager::ValidateMember(const std::string& /*class_name*/,
                                    const ClassMember& member) {
  AXML_DCHECK_CALLED_ON_SEQUENCE(sequence_checker_);
  auto it = installed_.find({member.peer, member.name});
  if (it == installed_.end()) return true;  // durable member
  const PeerId origin = it->second;
  if (HasFresh(member.peer, origin, member.name)) return true;
  DropCopy(member.peer, origin, member.name);
  return false;
}

bool ReplicaManager::DropCopy(PeerId reader, PeerId origin,
                              const DocName& name) {
  AXML_DCHECK_CALLED_ON_SEQUENCE(sequence_checker_);
  auto it = caches_.find(reader);
  if (it == caches_.end()) return false;
  // The entry carries the copy's identity; data shards are immutable
  // content and stay (reused by the next delta, garbage-collected by
  // eviction or orphan cleanup).
  return it->second->Erase(ReplicaKey{origin, name}, /*invalidation=*/true);
}

void ReplicaManager::DropAllCopies() {
  AXML_DCHECK_CALLED_ON_SEQUENCE(sequence_checker_);
  for (auto& [peer, cache] : caches_) cache->Clear();
  // Cancel in-flight refresh shipments: their landing callbacks see the
  // erased flight token and discard the payload, so a reset cannot be
  // undone by a late arrival.
  for (const auto& [flight, generation] : refresh_inflight_) {
    subscriptions_.Unsubscribe(/*key=*/flight.second,
                               /*holder=*/flight.first);
  }
  refresh_inflight_.clear();
}

TransferCacheStats ReplicaManager::TotalStats() const {
  TransferCacheStats total;
  total.misses = uncached_misses_;
  for (const auto& [peer, cache] : caches_) {
    const TransferCacheStats& s = cache->stats();
    total.hits += s.hits;
    total.misses += s.misses;
    total.inserts += s.inserts;
    total.evictions += s.evictions;
    total.invalidations += s.invalidations;
    total.bytes_evicted += s.bytes_evicted;
    for (size_t i = 0; i < kEvictionPolicyCount; ++i) {
      total.victims_by_policy[i] += s.victims_by_policy[i];
    }
    total.bytes_saved += s.bytes_saved;
    total.bytes_deduped += s.bytes_deduped;
  }
  return total;
}

Tracer* ReplicaManager::trace() const {
  return sys_ == nullptr ? nullptr : &sys_->tracer();
}

void ReplicaManager::ExportMetrics(MetricSink& sink) const {
  {
    MetricSink s = sink.Scoped("replica/subscription");
    subscription_stats_.ExportMetrics(s);
  }
  {
    MetricSink s = sink.Scoped("replica/shard");
    shard_stats_.ExportMetrics(s);
  }
  {
    MetricSink s = sink.Scoped("replica/placement");
    placement_stats_.ExportMetrics(s);
  }
  {
    // The same sum TotalStats() returns — the drift test compares the
    // two field by field.
    MetricSink s = sink.Scoped("replica/cache");
    TotalStats().ExportMetrics(s);
  }
  sink.Value("replica/subscriptions/active",
             subscriptions_.subscription_count());
  for (const auto& [peer, cache] : caches_) {
    MetricSink s =
        sink.Scoped(StrCat("peer/", peer.index(), "/replica/cache"));
    cache->stats().ExportMetrics(s);
    s.Value("resident_bytes", cache->resident_bytes());
    s.Value("entry_count", cache->entry_count());
  }
}

void ReplicaManager::ResetStats() {
  AXML_DCHECK_CALLED_ON_SEQUENCE(sequence_checker_);
  for (auto& [peer, cache] : caches_) cache->ResetStats();
  subscription_stats_ = SubscriptionStats{};
  placement_stats_ = PlacementStats{};
  shard_stats_ = ShardStats{};
  uncached_misses_ = 0;
  refresh_spent_.clear();
  placement_spent_.clear();
}

bool ReplicaManager::IsRefreshInFlight(PeerId reader, PeerId origin,
                                       const DocName& name) const {
  return refresh_inflight_.count({reader, ReplicaKey{origin, name}}) > 0;
}

bool ReplicaManager::ExpectedFresh(PeerId reader, PeerId origin,
                                   const DocName& name) const {
  return HasFresh(reader, origin, name) ||
         IsRefreshInFlight(reader, origin, name);
}

void ReplicaManager::RetractAdvertisements(PeerId reader,
                                           const ReplicaKey& key) {
  auto it = installed_.find({reader, key.name});
  if (it == installed_.end() || it->second != key.origin) {
    return;  // cache-only copy, nothing advertised
  }
  installed_.erase(it);
  if (sys_ == nullptr) return;
  if (Peer* holder = sys_->peer(reader)) {
    (void)holder->RemoveDocument(key.name);
  }
  if (sys_->catalog() != nullptr) {
    sys_->catalog()->Unregister(ResourceKind::kDocument, key.name, reader);
  }
  // Explicit snapshot, as in NoteMutation: RemoveDocumentMember rewrites
  // the registry's reverse index this list came from.
  const std::vector<std::string> classes =
      sys_->generics().DocumentClassesOf(ClassMember{key.name, reader});
  for (const std::string& cls : classes) {
    sys_->generics().RemoveDocumentMember(cls,
                                          ClassMember{key.name, reader});
  }
}

void ReplicaManager::PushInvalidate(const ReplicaKey& key) {
  // Snapshot of this document's subscription keys (the drop loop below
  // unsubscribes mid-flight). No subscribers: nothing to push — and no
  // reason to split the new version.
  const std::vector<ReplicaKey> sub_keys =
      subscriptions_.KeysForDoc(key.origin, key.name);
  if (sub_keys.empty()) return;
  // Shard ids the *new* version still references; resident data shards
  // outside this set are dirty — no future manifest will name them.
  std::set<std::string> live;
  if (sharding_enabled_) {
    if (const ShardedDocument* sd = OriginShards(key.origin, key.name)) {
      for (const DocumentShard& s : sd->shards) {
        live.insert(s.id.ToString());
      }
    }
  }
  // Classify subscribed holders. A holder is dirty — and must be
  // pushed — when its copy's *content by name* changed or it holds
  // pieces the new version abandoned:
  //  - a document-key subscriber holding no entry (a refresh is
  //    pending) or a complete copy — which may be installed, advertised
  //    and readable by name;
  //  - a data shard outside the new live set.
  // Everything else — partial holders whose every resident shard is
  // still referenced — is clean: the entry's version check catches the
  // staleness on the next lookup, and nothing they advertise (an
  // incomplete copy is never installed) can serve a stale read
  // meanwhile.
  std::vector<PeerId> dirty;  // notification order: first subscription wins
  std::set<PeerId> dirty_set;
  std::set<PeerId> doc_wide;  // dirty through the document key
  std::set<PeerId> subscribed;
  for (const ReplicaKey& sk : sub_keys) {
    for (PeerId holder : subscriptions_.HoldersOf(sk)) {
      subscribed.insert(holder);
      bool holder_dirty = false;
      if (sk.is_doc()) {
        const TransferCache* cache = FindCache(holder);
        const TransferCache::Entry* e =
            cache == nullptr ? nullptr : cache->Peek(sk);
        ResidentCopy copy;
        holder_dirty =
            e == nullptr ||
            FindResidentCopy(*cache, sk, e->origin_version, &copy);
      } else {
        holder_dirty = live.count(sk.shard) == 0;
      }
      if (!holder_dirty) continue;
      if (dirty_set.insert(holder).second) dirty.push_back(holder);
      if (sk.is_doc()) doc_wide.insert(holder);
    }
  }
  subscription_stats_.clean_skips += subscribed.size() - dirty_set.size();
  for (PeerId holder : dirty) {
    // A crashed holder's cache is unreachable — nothing to drop, nobody
    // to notify. Its entries rot until rejoin-time reconciliation (and
    // its subscriptions until the lease expires); it is not advertised
    // meanwhile (OnPeerCrash retracted), so no read can route to it.
    if (!sys_->network().IsPeerUp(holder)) {
      ++subscription_stats_.down_skips;
      continue;
    }
    ++subscription_stats_.notifies;
    if (doc_wide.count(holder) > 0) {
      ++subscription_stats_.doc_notifies;
    } else {
      ++subscription_stats_.shard_notifies;
    }
    if (Tracer* tr = trace(); tr != nullptr && tr->enabled()) {
      // Size 0: under batching the wire size exists only at send time.
      tr->Record("replica", "notify", holder, 0, 0, key.ToString());
    }
    // The notification is wire traffic on the origin->holder link;
    // NetStats tallies it apart from data transfers. Inside a
    // NotifyBatch window, events to the same (origin, holder) pair share
    // one message.
    QueueNotify(key, holder);
    // Coherence is synchronous: copy and advertisements are gone before
    // the mutating call returns — no lookup can ever see them stale.
    if (DropCopy(holder, key.origin, key.name)) {
      ++subscription_stats_.drops;
    }
    // Dirty data shards go too; live residents stay and seed the next
    // delta. (The scan also covers copies stranded by disabling
    // sharding: live is empty then, so every shard is dirty.)
    auto cit = caches_.find(holder);
    if (cit != caches_.end()) {
      for (const ReplicaKey& k :
           cit->second->KeysForDoc(key.origin, key.name)) {
        if (k.is_shard_data() && live.count(k.shard) == 0) {
          cit->second->Erase(k, /*invalidation=*/true);
        }
      }
    }
    if (refresh_policy_ == RefreshPolicy::kEagerRefresh &&
        StartRefresh(holder, key, /*attempt=*/0)) {
      // The holder stays subscribed (doc-level flight interest) while
      // its copy re-materializes, so a mutation overtaking the shipment
      // is pushed (and coalesced) too.
      subscriptions_.Subscribe(key, holder);
    }
  }
}

void ReplicaManager::QueueNotify(const ReplicaKey& key, PeerId holder) {
  if (notify_batch_depth_ > 0) {
    std::vector<ReplicaKey>& queued =
        pending_notifies_[{key.origin, holder}];
    if (!queued.empty()) ++subscription_stats_.batched;
    queued.push_back(key);
    return;
  }
  if (sys_ != nullptr) {
    SendNotifyMessage(key.origin, holder, {key});
  }
}

void ReplicaManager::SendNotifyMessage(
    PeerId origin, PeerId holder, const std::vector<ReplicaKey>& keys) {
  wire::NotifyBatch batch;
  batch.origin = origin.index();
  batch.keys.reserve(keys.size());
  for (const ReplicaKey& k : keys) {
    batch.keys.push_back({k.name, k.shard});
  }
  // The arrival hook is the asynchronous half of invalidation: a no-op
  // on the perfect fabric (the drop already happened, synchronously), a
  // repair when faults let stale state survive. The priced size is the
  // encoded batch's — one key or fifty, the bytes are what they are.
  sys_->network().Send(
      origin, holder, wire::EncodeNotifyBatch(batch, WireStatsOf(sys_)),
      [this, origin, holder](const wire::Payload& p) {
        // The carried keys are advisory — the repair rescans the whole
        // cache — but a payload that does not parse is a bug, not a
        // tolerable fault.
        Result<wire::NotifyBatch> got =
            wire::DecodeNotifyBatch(p, WireStatsOf(sys_));
        AXML_DCHECK(got.ok());
        OnNotifyDelivered(origin, holder);
      });
}

void ReplicaManager::BeginNotifyBatch() { ++notify_batch_depth_; }

void ReplicaManager::EndNotifyBatch() {
  AXML_CHECK(notify_batch_depth_ > 0);
  if (--notify_batch_depth_ > 0) return;
  for (const auto& [pair, queued] : pending_notifies_) {
    if (sys_ != nullptr && !queued.empty()) {
      SendNotifyMessage(pair.first, pair.second, queued);
    }
  }
  pending_notifies_.clear();
}

void ReplicaManager::set_sharding_config(ShardingConfig cfg) {
  shard_config_ = cfg;
  // Memoized splits were cut under the old knobs; recut on next use.
  origin_shards_.clear();
}

const ShardedDocument* ReplicaManager::OriginShards(
    PeerId origin, const DocName& name) const {
  if (!sharding_enabled_ || sys_ == nullptr || !origin.is_concrete()) {
    return nullptr;
  }
  const ReplicaKey key{origin, name};
  const uint64_t version = Version(origin, name);
  auto it = origin_shards_.find(key);
  if (it == origin_shards_.end() || it->second.version != version) {
    Peer* host = sys_->peer(origin);
    TreePtr root = host == nullptr ? nullptr : host->GetDocument(name);
    if (root == nullptr) {
      origin_shards_.erase(key);
      return nullptr;
    }
    OriginShardState state;
    state.version = version;
    // Service calls are excluded as on every caching path: a shard blob
    // would freeze their activation state.
    if (!root->ContainsServiceCall()) {
      state.sharded = SplitDocument(*root, shard_config_, host->gen());
    }
    it = origin_shards_.insert_or_assign(key, std::move(state)).first;
  }
  return it->second.sharded ? &*it->second.sharded : nullptr;
}

double ReplicaManager::ReadTransferBytes(PeerId reader, PeerId origin,
                                         const DocName& name,
                                         double whole_bytes) const {
  if (ExpectedFresh(reader, origin, name)) return 0;
  const ShardedDocument* sd = OriginShards(origin, name);
  if (sd == nullptr || reader == origin) return whole_bytes;
  // Partial copies pay only for what is missing: the stale entry plus
  // the non-resident data shards. A peer holding most of a document's
  // shards reads it almost for free, so the optimizer prefers routing
  // the read there over a cold peer.
  const TransferCache* cache = FindCache(reader);
  uint64_t delta = 0;
  const TransferCache::Entry* e =
      cache == nullptr ? nullptr : cache->Peek(ReplicaKey{origin, name});
  if (e == nullptr || e->origin_version != Version(origin, name)) {
    delta += sd->manifest_bytes;
  }
  std::set<std::string> seen;
  for (const DocumentShard& s : sd->shards) {
    if (!seen.insert(s.id.ToString()).second) continue;  // ships once
    if (cache == nullptr ||
        cache->Peek(ShardDataKey(origin, name, s.id)) == nullptr) {
      delta += s.bytes;
    }
  }
  return std::min(static_cast<double>(delta), whole_bytes);
}

TreePtr ReplicaManager::EncodeShardDelta(const ShardedDocument& sd,
                                         const ReplicaKey& doc,
                                         TransferCache* cache,
                                         std::map<std::string, TreePtr>* parts,
                                         wire::Shipment* ship,
                                         ShardStats* tally) {
  // No clone crosses the process: the shards are *encoded* into the
  // delta, and the receiving peer decodes what the wire delivered.
  std::set<std::string> seen;
  for (const DocumentShard& s : sd.shards) {
    const std::string id = s.id.ToString();
    // A duplicated id (two byte-identical groups) ships — and is
    // charged — once; the manifest references it twice and assembly
    // reuses it.
    if (!seen.insert(id).second) continue;
    const ReplicaKey key = ShardDataKey(doc.origin, doc.name, s.id);
    bool resident = false;
    if (parts != nullptr) {
      if (TreePtr t = cache->Get(key, kImmutableVersion)) {
        (*parts)[id] = std::move(t);
        resident = true;
      }
    } else {
      resident = cache != nullptr && cache->Peek(key) != nullptr;
    }
    if (resident) {
      ++tally->shards_reused;
      tally->shard_bytes_saved += s.bytes;
      continue;
    }
    wire::Shipment::Shard shipped;
    shipped.id = id;
    shipped.tree = wire::EncodeTree(*s.content, WireStatsOf(sys_));
    ++tally->shards_shipped;
    tally->shard_bytes_shipped += shipped.tree.size();
    ship->shards.push_back(std::move(shipped));
  }
  const TransferCache::Entry* e =
      cache == nullptr ? nullptr : cache->Peek(doc);
  if (e != nullptr && e->origin_version == ship->snapshot_version) {
    return e->tree;
  }
  ship->manifest = wire::EncodeTree(*sd.manifest, WireStatsOf(sys_));
  ++tally->manifests_shipped;
  return nullptr;
}

bool ReplicaManager::DecodeLanded(const wire::Payload& p, PeerId holder,
                                  const TreePtr& resident_entry,
                                  LandedCopy* landed,
                                  uint64_t* snapshot_version) {
  Peer* dest = sys_->peer(holder);
  if (dest == nullptr) return false;
  // The receiving peer mints its own node ids from the received bytes —
  // the simulated form of deserialization at the destination.
  auto decode = [this, dest](const std::string& bytes, TreePtr* out) {
    Result<TreePtr> t = wire::DecodeTree(bytes, dest->gen(), WireStatsOf(sys_));
    AXML_DCHECK(t.ok());
    if (!t.ok()) return false;
    *out = std::move(t).value();
    return true;
  };
  if (p.message_class() == wire::MessageClass::kTree) {
    landed->encoded = p.bytes();
    return decode(landed->encoded, &landed->tree);
  }
  Result<wire::Shipment> got = wire::DecodeShipment(p, WireStatsOf(sys_));
  AXML_DCHECK(got.ok());
  if (!got.ok()) return false;
  wire::Shipment arrived = std::move(got).value();
  *snapshot_version = arrived.snapshot_version;
  landed->tree = resident_entry;
  if (!arrived.manifest.empty()) {
    landed->encoded = std::move(arrived.manifest);
    if (!decode(landed->encoded, &landed->tree)) return false;
  }
  for (const wire::Shipment::Shard& s : arrived.shards) {
    DocumentShard shard;
    if (!decode(s.tree, &shard.content)) return false;
    // Encode/decode preserves canonical form, so the recomputed digest
    // equals the id the sender addressed the shard by.
    shard.id = DigestOf(*shard.content);
    shard.bytes = s.tree.size();
    landed->shards.push_back(std::move(shard));
  }
  return landed->tree != nullptr;
}

bool ReplicaManager::Fetch(PeerId reader, PeerId origin, const DocName& name,
                           std::function<void(TreePtr)> deliver,
                           CopyLayout* layout) {
  AXML_DCHECK_CALLED_ON_SEQUENCE(sequence_checker_);
  if (sys_ == nullptr || reader == origin || sys_->peer(reader) == nullptr) {
    return false;
  }
  const Peer* host = sys_->peer(origin);
  TreePtr root = host == nullptr ? nullptr : host->GetDocument(name);
  if (root == nullptr || root->ContainsServiceCall()) return false;
  const ReplicaKey doc{origin, name};

  // One landing: cache what arrived (a stale snapshot is refused
  // there, but the read still gets it — a read observes the version it
  // was issued against), then hand the reader a private instance.
  // Reliable: the read path runs the loop to quiescence, and a silently
  // lost transfer would hang the read.
  auto send = [this, reader, doc](
                  wire::Payload payload, uint64_t snap_version,
                  TreePtr resident_entry,
                  std::map<std::string, TreePtr> parts,
                  std::function<void(TreePtr)> done) {
    sys_->network().SendReliable(
        doc.origin, reader, std::move(payload),
        [this, reader, doc, snap_version,
         resident_entry = std::move(resident_entry),
         parts = std::move(parts),
         done = std::move(done)](const wire::Payload& p) mutable {
          LandedCopy landed;
          uint64_t snapshot = snap_version;
          if (!DecodeLanded(p, reader, resident_entry, &landed,
                            &snapshot)) {
            done(nullptr);
            return;
          }
          const bool cached =
              InsertCopy(reader, doc.origin, doc.name, landed, snapshot);
          if (!cached && !IsShardManifest(*landed.tree)) {
            // Nothing else holds the decoded tree: hand it out as is.
            done(std::move(landed.tree));
            return;
          }
          // A cached tree is the cache blob now: never hand it out.
          for (DocumentShard& s : landed.shards) {
            parts[s.id.ToString()] = std::move(s.content);
          }
          done(Materialize(*landed.tree, parts, sys_->peer(reader)->gen()));
        });
  };

  // A read-path fetch roots its own causal chain (unless the read is
  // already inside one); the sends carry the id to the landing.
  Tracer* tr = trace();
  Tracer::Scope trace_scope(tr, tr->CurrentOrNew());
  const ShardedDocument* sd = OriginShards(origin, name);
  if (layout != nullptr) {
    *layout = sd != nullptr ? CopyLayout::kSharded : CopyLayout::kWhole;
  }
  if (sd == nullptr) {
    // A document the origin does not split is encoded, version-stamped
    // and sent as a bare kTree on the loop's next turn at this instant,
    // like every plain transfer.
    sys_->loop().Post(tr->Bind([this, doc, root, send,
                                deliver = std::move(deliver)]() mutable {
      send(wire::Payload(wire::EncodeTree(*root, WireStatsOf(sys_))),
           Version(doc.origin, doc.name), nullptr, {}, std::move(deliver));
    }));
    return true;
  }
  // A delta: the stale manifest and the shards this reader lacks cross
  // the wire; resident shards serve locally — the partial-copy payoff.
  wire::Shipment ship;
  ship.origin = origin.index();
  ship.name = name;
  ship.snapshot_version = Version(origin, name);
  std::map<std::string, TreePtr> parts;
  const uint64_t reused_before = shard_stats_.shards_reused;
  TreePtr resident_entry = EncodeShardDelta(
      *sd, doc, CacheFor(reader), &parts, &ship, &shard_stats_);
  ++shard_stats_.sharded_reads;
  if (shard_stats_.shards_reused > reused_before) ++shard_stats_.partial_hits;
  wire::Payload payload = wire::EncodeShipment(ship, WireStatsOf(sys_));
  if (tr->enabled()) {
    tr->Record("replica", "delta_fetch", reader, payload.size(), 0,
               doc.ToString());
  }
  send(std::move(payload), ship.snapshot_version,
       std::move(resident_entry), std::move(parts), std::move(deliver));
  return true;
}

size_t ReplicaManager::RunPlacement() {
  AXML_DCHECK_CALLED_ON_SEQUENCE(sequence_checker_);
  if (sys_ == nullptr || !placement_.config().enabled) return 0;
  size_t started = 0;
  for (const PlacementDecision& decision :
       placement_.Plan(sys_->generics(), *this)) {
    if (StartPlacementShipment(decision)) ++started;
  }
  return started;
}

void ReplicaManager::set_placement_tick_interval(SimTime interval_s) {
  AXML_CHECK(sys_ != nullptr);
  if (placement_tick_id_ != 0) {
    sys_->loop().RemovePeriodic(placement_tick_id_);
    placement_tick_id_ = 0;
  }
  placement_tick_interval_ = interval_s;
  if (interval_s > 0) {
    placement_tick_id_ =
        sys_->loop().AddPeriodic(interval_s, [this] { RunPlacement(); });
  }
}

void ReplicaManager::OnPickDemand(const std::string& /*class_name*/,
                                  PeerId /*from*/, uint64_t demand) {
  AXML_DCHECK_CALLED_ON_SEQUENCE(sequence_checker_);
  if (placement_demand_watermark_ == 0 || sys_ == nullptr) return;
  if (demand < placement_demand_watermark_) return;
  if (placement_round_pending_) return;
  // Post instead of running inline: the crossing pick is still inside
  // PickDocument, and a placement round mutates the very class it was
  // picking from. The round runs at the same virtual instant, between
  // the current event and the next.
  placement_round_pending_ = true;
  sys_->loop().Post([this] {
    placement_round_pending_ = false;
    RunPlacement();
  });
}

bool ReplicaManager::LaunchShipment(
    PeerId holder, const ReplicaKey& key,
    const std::function<bool(uint64_t bytes)>& admit,
    std::function<void(const LandedCopy& landed, uint64_t snap_version,
                       uint64_t bytes)>
        on_land,
    int attempt) {
  AXML_CHECK(refresh_inflight_.count({holder, key}) == 0);
  const Peer* origin = sys_->peer(key.origin);
  Peer* dest = sys_->peer(holder);
  if (origin == nullptr || dest == nullptr) return false;
  // A shipment toward (or from) a crashed peer would only evaporate on
  // the wire; rejoin-time reconciliation re-materializes copies instead.
  if (!sys_->network().IsPeerUp(holder) ||
      !sys_->network().IsPeerUp(key.origin)) {
    return false;
  }
  TreePtr root = origin->GetDocument(key.name);
  // A removed document has nothing to ship; a tree still carrying
  // service calls is excluded, as on the read path (Fetch) — a
  // copy would freeze its activation state.
  if (root == nullptr || root->ContainsServiceCall()) return false;

  // Snapshot now: the shipped content is the version at send time; a
  // mid-flight mutation must not brand it fresh (the insert compares).
  const uint64_t snap_version = Version(key.origin, key.name);

  // Encode the shipment straight from the origin's trees — no clone
  // crosses the process; the bytes ARE the shipment, and the priced
  // size is their count, envelope included.
  wire::Shipment ship;
  ship.origin = key.origin.index();
  ship.name = key.name;
  ship.snapshot_version = snap_version;
  ShardStats tally;
  TreePtr resident_entry;
  const ShardedDocument* sd = OriginShards(key.origin, key.name);
  if (sd != nullptr) {
    // A sharded delta against whatever the holder has resident — a
    // placement round may be completing a partial copy.
    auto cit = caches_.find(holder);
    resident_entry = EncodeShardDelta(
        *sd, key, cit == caches_.end() ? nullptr : cit->second.get(),
        /*parts=*/nullptr, &ship, &tally);
  } else {
    // A document the origin does not split is its own entry, with zero
    // shards.
    ship.manifest = wire::EncodeTree(*root, WireStatsOf(sys_));
  }
  wire::Payload payload = wire::EncodeShipment(ship, WireStatsOf(sys_));
  const uint64_t bytes = payload.size();
  if (!admit(bytes)) return false;
  if (Tracer* tr = trace(); tr != nullptr && tr->enabled()) {
    tr->Record("replica", "shipment", holder, bytes, 0, key.ToString());
  }
  if (sd != nullptr) {
    ++shard_stats_.sharded_shipments;
    shard_stats_.manifests_shipped += tally.manifests_shipped;
    shard_stats_.shards_shipped += tally.shards_shipped;
    shard_stats_.shard_bytes_shipped += tally.shard_bytes_shipped;
    shard_stats_.shards_reused += tally.shards_reused;
    shard_stats_.shard_bytes_saved += tally.shard_bytes_saved;
  }
  const uint64_t generation = ++refresh_generation_;
  refresh_inflight_[{holder, key}] = generation;
  // Copies for the retry timeout below, taken before on_land moves into
  // the delivery callback.
  auto on_land_retry = ship_retry_ ? on_land : nullptr;
  sys_->network().Send(
      key.origin, holder, std::move(payload),
      [this, holder, key, resident_entry, generation,
       on_land = std::move(on_land)](const wire::Payload& p) {
        auto it = refresh_inflight_.find({holder, key});
        if (it == refresh_inflight_.end() || it->second != generation) {
          // Canceled (DropAllCopies) while on the wire — and possibly
          // superseded by a newer shipment for the same pair, whose
          // token must stay untouched.
          return;
        }
        refresh_inflight_.erase(it);
        LandedCopy landed;
        uint64_t landed_version = 0;
        if (!DecodeLanded(p, holder, resident_entry, &landed,
                          &landed_version)) {
          return;
        }
        on_land(landed, landed_version, p.size());
      });
  if (ship_retry_) {
    // Bounded retry-with-backoff: if the landing has not cleared the
    // flight token by the timeout, the shipment was dropped (injector or
    // crash). Relaunch the same admit/on_land pair — re-admitted; the
    // retransmission is real wire traffic — until the attempt cap, then
    // drop the holder back to lazy pulls. A landing that merely arrived
    // late (delay spike) erased the token already, so the timeout
    // no-ops; a delayed payload arriving after a relaunch sees the new
    // generation and is discarded.
    const SimTime timeout =
        3 * sys_->network().EstimateTransferTime(key.origin, holder, bytes) +
        kShipBackoffBaseS * (attempt + 1);
    sys_->loop().ScheduleAfter(
        timeout, [this, holder, key, generation, attempt, admit,
                  on_land = std::move(on_land_retry)] {
          auto it = refresh_inflight_.find({holder, key});
          if (it == refresh_inflight_.end() || it->second != generation) {
            return;  // landed, canceled, or superseded — nothing to do
          }
          refresh_inflight_.erase(it);
          ++subscription_stats_.ship_timeouts;
          if (Tracer* tr = trace(); tr != nullptr && tr->enabled()) {
            tr->Record("replica", "ship_timeout", holder, 0, 0,
                       key.ToString());
          }
          if (attempt + 1 < kShipMaxAttempts &&
              sys_->network().IsPeerUp(holder) &&
              sys_->network().IsPeerUp(key.origin)) {
            ++subscription_stats_.ship_retries;
            if (LaunchShipment(holder, key, admit, on_land, attempt + 1)) {
              return;
            }
          }
          ++subscription_stats_.dropped_to_lazy;
          subscriptions_.Unsubscribe(key, holder);
        });
  }
  return true;
}

bool ReplicaManager::StartPlacementShipment(
    const PlacementDecision& decision) {
  const PeerId holder = decision.holder;
  const ReplicaKey& key = decision.key;
  if (refresh_inflight_.count({holder, key}) > 0) {
    // An eager refresh or an earlier placement round is already shipping
    // this very copy; one shipment per pair on the wire, whoever asked.
    ++placement_stats_.coalesced;
    return false;
  }
  const bool launched = LaunchShipment(
      holder, key,
      /*admit=*/
      [this, holder](uint64_t bytes) {
        // A copy the holder's cache cannot even admit would land only
        // to be refused — charge nothing and skip.
        const TransferCache* cache = FindCache(holder);
        if (bytes >
            (cache != nullptr ? cache->byte_budget() : default_budget_)) {
          ++placement_stats_.budget_denied;
          return false;
        }
        uint64_t& spent = placement_spent_[holder];
        const uint64_t budget = placement_.config().byte_budget_per_holder;
        if (spent > budget || bytes > budget - spent) {
          ++placement_stats_.budget_denied;
          return false;
        }
        spent += bytes;
        ++placement_stats_.shipments;
        placement_stats_.shipped_bytes += bytes;
        return true;
      },
      /*on_land=*/
      [this, holder, key, decision](const LandedCopy& landed,
                                    uint64_t snap_version,
                                    uint64_t /*bytes*/) {
        if (InsertCopy(holder, key.origin, key.name, landed, snap_version)) {
          ++placement_stats_.landed;
        } else {
          // The origin moved on while this was on the wire, or the
          // holder's cache refused the copy. Placement does not chase —
          // but the picks that earned this seed were real demand, and
          // the launch drained them. Credit half back so the next round
          // can re-decide: halving makes a permanently failing seed
          // decay to nothing instead of replaying forever.
          ++placement_stats_.wasted;
          sys_->generics().AddDocumentPickDemand(decision.class_name, holder,
                                                 decision.demand / 2);
        }
      });
  // Either way the decision consumed the demand that earned it: a seed
  // that launched must be re-earned by fresh picks after a later
  // eviction, and a terminal deny (budget exhausted, document removed,
  // service calls frozen) must not replay — and re-count — every round
  // from the same stale burst. Only coalescing (above) keeps demand: the
  // in-flight shipment may still miss and the next round re-decides.
  sys_->generics().DrainDocumentPickDemand(decision.class_name, holder);
  return launched;
}

bool ReplicaManager::StartRefresh(PeerId holder, const ReplicaKey& key,
                                  int attempt) {
  if (refresh_inflight_.count({holder, key}) > 0) {
    // A shipment is already on the wire; its landing check catches the
    // newer version with one catch-up pull.
    ++subscription_stats_.coalesced;
    return true;
  }
  const bool launched = LaunchShipment(
      holder, key,
      /*admit=*/
      [this, holder, attempt](uint64_t bytes) {
        uint64_t& spent = refresh_spent_[holder];
        if (spent > refresh_budget_bytes_ ||
            bytes > refresh_budget_bytes_ - spent) {
          ++subscription_stats_.budget_denied;
          return false;
        }
        spent += bytes;
        if (attempt > 0) ++subscription_stats_.retries;
        return true;
      },
      /*on_land=*/
      [this, holder, key, attempt](const LandedCopy& landed,
                                   uint64_t snap_version, uint64_t bytes) {
        if (InsertCopy(holder, key.origin, key.name, landed, snap_version)) {
          // The insert subscribed the holder under every key it cached,
          // the document entry's included: that subscription now backs
          // the flight interest.
          ++subscription_stats_.refreshes;
          subscription_stats_.refresh_bytes += bytes;
        } else if (Version(key.origin, key.name) != snap_version) {
          // The origin moved on while this was on the wire: a catch-up
          // shipment brings the holder current — but the chain is
          // capped. Under sustained mutation (every landing overtaken
          // mid-flight) an unbounded chain ships forever without ever
          // landing fresh; past the cap the holder falls back to lazy
          // pulls, like a budget denial.
          if (attempt + 1 >= kMaxCatchupAttempts) {
            ++subscription_stats_.catchup_exhausted;
            subscriptions_.Unsubscribe(key, holder);
          } else if (!StartRefresh(holder, key, attempt + 1)) {
            subscriptions_.Unsubscribe(key, holder);
          }
        } else {
          // Landed at the right version but would not cache (over the
          // holder's cache budget): stop pushing to this holder.
          subscriptions_.Unsubscribe(key, holder);
        }
      });
  return launched;
}

// --- Fault tolerance: leases, anti-entropy, churn ---

void ReplicaManager::ConfigureLeases(SimTime renew_interval_s,
                                     SimTime ttl_s) {
  AXML_DCHECK_CALLED_ON_SEQUENCE(sequence_checker_);
  AXML_CHECK(sys_ != nullptr);
  if (lease_tick_id_ != 0) {
    sys_->loop().RemovePeriodic(lease_tick_id_);
    lease_tick_id_ = 0;
  }
  lease_ttl_ = ttl_s;
  lease_deadlines_.clear();
  if (renew_interval_s > 0 && ttl_s > 0) {
    lease_tick_id_ =
        sys_->loop().AddPeriodic(renew_interval_s, [this] { LeaseTick(); });
  }
}

void ReplicaManager::set_anti_entropy_interval(SimTime interval_s) {
  AXML_DCHECK_CALLED_ON_SEQUENCE(sequence_checker_);
  AXML_CHECK(sys_ != nullptr);
  if (anti_entropy_tick_id_ != 0) {
    sys_->loop().RemovePeriodic(anti_entropy_tick_id_);
    anti_entropy_tick_id_ = 0;
  }
  if (interval_s > 0) {
    anti_entropy_tick_id_ = sys_->loop().AddPeriodic(
        interval_s, [this] { RunAntiEntropySweep(); });
  }
}

void ReplicaManager::LeaseTick() {
  AXML_DCHECK_CALLED_ON_SEQUENCE(sequence_checker_);
  const SimTime now = sys_->loop().now();
  // Live (origin, holder) pairs and their subscribed-key counts,
  // straight from the subscription table (std::map: deterministic
  // order). The count rides in the renewal body.
  std::map<std::pair<PeerId, PeerId>, uint64_t> live;
  for (const auto& [key, holders] : subscriptions_.entries()) {
    for (PeerId h : holders) ++live[{key.origin, h}];
  }
  // Deadlines for vanished pairs go; new pairs are granted a full TTL
  // on first sight (before the expiry scan — a fresh grant never
  // expires on the tick that created it).
  for (auto it = lease_deadlines_.begin(); it != lease_deadlines_.end();) {
    if (live.count(it->first) == 0) {
      it = lease_deadlines_.erase(it);
    } else {
      ++it;
    }
  }
  for (const auto& [pair, keys] : live) {
    lease_deadlines_.try_emplace(pair, now + lease_ttl_);
  }
  // Expiry: the origin forgets a silent holder. An *up* holder also
  // self-invalidates its lapsed entries — the lease contract says a
  // holder that could not renew stops serving, and its own clock tells
  // it so; we model that holder-side drop synchronously. A crashed
  // holder's cache is unreachable and is left for rejoin-time
  // reconciliation.
  for (auto it = lease_deadlines_.begin(); it != lease_deadlines_.end();) {
    if (now < it->second) {
      ++it;
      continue;
    }
    const PeerId origin = it->first.first;
    const PeerId holder = it->first.second;
    std::vector<ReplicaKey> keys;
    for (const auto& [key, holders] : subscriptions_.entries()) {
      if (key.origin != origin) continue;
      if (std::find(holders.begin(), holders.end(), holder) !=
          holders.end()) {
        keys.push_back(key);
      }
    }
    const bool up = sys_->network().IsPeerUp(holder);
    auto cit = caches_.find(holder);
    for (const ReplicaKey& k : keys) {
      if (up && cit != caches_.end()) {
        // Evict listener unsubscribes + retracts advertisements.
        cit->second->Erase(k, /*invalidation=*/true);
      }
      // Flight-interest keys (and a crashed holder's entries) have no
      // cache entry to fire the listener; unsubscribe is idempotent.
      subscriptions_.Unsubscribe(k, holder);
    }
    ++subscription_stats_.lease_expiries;
    if (Tracer* tr = trace(); tr != nullptr && tr->enabled()) {
      tr->Record("replica", "lease_expire", holder, 0, 0,
                 StrCat("origin ", origin.ToString()));
    }
    it = lease_deadlines_.erase(it);
  }
  // Renewals: every up holder re-registers at every origin it is
  // subscribed to, one lossy message per (origin, holder) pair. The
  // arrival re-arms the deadline and re-subscribes whatever fresh
  // entries the holder still has resident — repairing an expiry that
  // fired while renewals were being lost.
  for (const auto& [pair, keys] : live) {
    const PeerId origin = pair.first;
    const PeerId holder = pair.second;
    if (lease_deadlines_.count(pair) == 0) continue;  // just expired
    if (!sys_->network().IsPeerUp(holder) ||
        !sys_->network().IsPeerUp(origin)) {
      continue;
    }
    wire::LeaseRenewal lease;
    lease.holder = holder.index();
    lease.origin = origin.index();
    lease.subscribed_keys = keys;
    sys_->network().Send(
        holder, origin, wire::EncodeLeaseRenewal(lease, WireStatsOf(sys_)),
        [this, origin, holder](const wire::Payload& p) {
          Result<wire::LeaseRenewal> got =
              wire::DecodeLeaseRenewal(p, WireStatsOf(sys_));
          AXML_DCHECK(got.ok());
          ++subscription_stats_.lease_renewals;
          lease_deadlines_[{origin, holder}] =
              sys_->loop().now() + lease_ttl_;
          const TransferCache* cache = FindCache(holder);
          if (cache == nullptr) return;
          for (const ReplicaKey& k : cache->Keys()) {
            // A stale document entry stays unsubscribed: it is about to
            // be reconciled away, and would re-invite pushes for content
            // the holder no longer serves.
            if (k.origin != origin || subscriptions_.IsSubscribed(k, holder) ||
                (k.is_doc() &&
                 cache->Peek(k)->origin_version != Version(origin, k.name))) {
              continue;
            }
            subscriptions_.Subscribe(k, holder);
            ++subscription_stats_.sweep_resubscribes;
          }
        });
  }
}

size_t ReplicaManager::RunAntiEntropySweep() {
  AXML_DCHECK_CALLED_ON_SEQUENCE(sequence_checker_);
  if (sys_ == nullptr) return 0;
  size_t exchanges = 0;
  for (const auto& [holder, cache] : caches_) {
    if (!sys_->network().IsPeerUp(holder)) continue;
    exchanges += ReconcileHolder(holder);
  }
  return exchanges;
}

size_t ReplicaManager::ReconcileHolder(PeerId holder) {
  AXML_DCHECK_CALLED_ON_SEQUENCE(sequence_checker_);
  if (sys_ == nullptr) return 0;
  auto cit = caches_.find(holder);
  if (cit == caches_.end()) return 0;
  // One digest per origin. Keys iterate in (origin, name, shard) order,
  // a document's entry before its data shards.
  std::map<PeerId, wire::DigestExchange> digests;
  for (const ReplicaKey& k : cit->second->Keys()) {
    const TransferCache::Entry* e = cit->second->Peek(k);
    wire::DigestExchange& ex = digests[k.origin];
    ex.holder = holder.index();
    ex.origin = k.origin.index();
    if (ex.docs.empty() || ex.docs.back().name != k.name) {
      ex.docs.emplace_back().name = k.name;
    }
    wire::DigestExchange::Doc& d = ex.docs.back();
    if (k.is_shard_data()) {
      d.shards.push_back(e->digest);
    } else {
      d.version = e->origin_version;
      d.manifest = e->digest;
    }
  }
  size_t exchanges = 0;
  for (auto& [origin, ex] : digests) {
    if (!sys_->network().IsPeerUp(origin)) continue;
    auto sent = std::make_shared<const wire::DigestExchange>(std::move(ex));
    sys_->network().SendReliable(
        holder, origin, wire::EncodeDigestExchange(*sent, WireStatsOf(sys_)),
        [this, holder, origin, sent](const wire::Payload& request) {
          sys_->network().SendReliable(
              origin, holder, DigestAnswer(request),
              [this, holder, sent](const wire::Payload& answer) {
                RepairFromAnswer(holder, *sent, answer);
              });
        });
    ++exchanges;
  }
  return exchanges;
}

wire::Payload ReplicaManager::DigestAnswer(
    const wire::Payload& request) const {
  Result<wire::DigestExchange> got =
      wire::DecodeDigestExchange(request, WireStatsOf(sys_));
  AXML_CHECK(got.ok()) << got.status().ToString();
  const PeerId origin(got->origin);
  wire::DigestExchange answer{got->holder, got->origin, {}};
  for (wire::DigestExchange::Doc& d : got->docs) {
    wire::DigestExchange::Doc differs;
    // A stale entry is named at the version and digest it was sent at.
    if (d.manifest != ContentDigest{} && d.version != Version(origin, d.name)) {
      differs.version = d.version;
      differs.manifest = d.manifest;
    }
    // An orphaned shard is one the current split no longer references.
    std::set<ContentDigest> live;
    if (const ShardedDocument* sd =
            d.shards.empty() ? nullptr : OriginShards(origin, d.name)) {
      for (const DocumentShard& s : sd->shards) live.insert(s.id);
    }
    for (const ContentDigest& shard : d.shards) {
      if (live.count(shard) == 0) differs.shards.push_back(shard);
    }
    if (differs.manifest != ContentDigest{} || !differs.shards.empty()) {
      differs.name = std::move(d.name);
      answer.docs.push_back(std::move(differs));
    }
  }
  return wire::EncodeDigestExchange(answer, WireStatsOf(sys_));
}

void ReplicaManager::RepairFromAnswer(PeerId holder,
                                      const wire::DigestExchange& sent,
                                      const wire::Payload& answer) {
  AXML_DCHECK_CALLED_ON_SEQUENCE(sequence_checker_);
  Result<wire::DigestExchange> got =
      wire::DecodeDigestExchange(answer, WireStatsOf(sys_));
  AXML_CHECK(got.ok()) << got.status().ToString();
  TransferCache* cache = caches_.at(holder).get();  // never erased
  const PeerId origin(got->origin);
  // Whether `k` still holds what the digest sent: a document entry its
  // version and digest, a (content-addressed) data shard its presence.
  auto holds = [cache](const ReplicaKey& k,
                       const wire::DigestExchange::Doc& d) {
    const TransferCache::Entry* e = cache->Peek(k);
    return e != nullptr &&
           (k.is_shard_data() ||
            (e->origin_version == d.version && e->digest == d.manifest));
  };
  // Drop exactly the named entries unchanged since the digest left.
  // Erase fires the evict listener, which may drop further keys, so each
  // one is looked up again.
  std::set<ReplicaKey> named;
  for (const wire::DigestExchange::Doc& d : got->docs) {
    bool dropped_doc = false;
    for (const ReplicaKey& k : DigestKeys(origin, d)) {
      named.insert(k);
      if (!holds(k, d)) continue;
      const uint64_t bytes = cache->Peek(k)->bytes;
      cache->Erase(k, /*invalidation=*/true);
      ++subscription_stats_.sweep_repairs;
      dropped_doc = dropped_doc || k.is_doc();
      if (Tracer* tr = trace(); tr != nullptr && tr->enabled()) {
        tr->Record("replica", "repair", holder, bytes, 0, k.ToString());
      }
    }
    // A dropped stale copy re-materializes eagerly under kEagerRefresh,
    // exactly as a mutation-time drop would have.
    const ReplicaKey doc{origin, d.name};
    if (dropped_doc && refresh_policy_ == RefreshPolicy::kEagerRefresh &&
        StartRefresh(holder, doc, /*attempt=*/0)) {
      subscriptions_.Subscribe(doc, holder);
    }
  }
  // Every other entry sent that still holds what was sent is confirmed:
  // a lapsed subscription is repaired, and a complete copy whose name
  // slot is free is re-installed and re-advertised (a rejoining durable
  // cache kept the content but lost its installation).
  for (const wire::DigestExchange::Doc& d : sent.docs) {
    for (const ReplicaKey& k : DigestKeys(origin, d)) {
      if (named.count(k) > 0 || !holds(k, d)) continue;
      if (!subscriptions_.IsSubscribed(k, holder)) {
        subscriptions_.Subscribe(k, holder);
        ++subscription_stats_.sweep_resubscribes;
      }
      if (k.is_doc()) InstallAndAdvertise(holder, origin, d.name, d.version);
    }
  }
}

void ReplicaManager::OnPeerCrash(PeerId peer, CrashMode mode) {
  AXML_DCHECK_CALLED_ON_SEQUENCE(sequence_checker_);
  AXML_CHECK(sys_ != nullptr);
  if (Tracer* tr = trace(); tr != nullptr && tr->enabled()) {
    tr->Record("replica", "crash", peer, 0, 0,
               mode == CrashMode::kLoseCache ? "lose_cache"
                                             : "durable_cache");
  }
  // In-flight shipments toward the crashed holder will never land (the
  // payload evaporates on arrival at a down peer); cancel their tokens
  // so a post-rejoin relaunch starts clean, and end the flight
  // interest.
  for (auto it = refresh_inflight_.begin();
       it != refresh_inflight_.end();) {
    if (it->first.first == peer) {
      subscriptions_.Unsubscribe(it->first.second, peer);
      it = refresh_inflight_.erase(it);
    } else {
      ++it;
    }
  }
  if (mode == CrashMode::kLoseCache) {
    // The cache dies with the process; evict listeners retract every
    // entry's advertisements and subscriptions.
    if (auto cit = caches_.find(peer); cit != caches_.end()) {
      cit->second->Clear();
    }
  }
  // Durable mode keeps the cache, but a down peer must never be
  // routable: every installed copy's advertisements go now. Collect
  // first — RetractAdvertisements mutates installed_. Origin-side
  // subscriptions survive (the origin has not heard of the crash);
  // PushInvalidate skips the down holder and leases or rejoin clean up.
  std::vector<ReplicaKey> installed;
  for (const auto& [slot, origin] : installed_) {
    if (slot.first == peer) {
      installed.push_back(ReplicaKey{origin, slot.second});
    }
  }
  for (const ReplicaKey& k : installed) {
    RetractAdvertisements(peer, k);
  }
}

void ReplicaManager::OnPeerRejoin(PeerId peer) {
  AXML_DCHECK_CALLED_ON_SEQUENCE(sequence_checker_);
  AXML_CHECK(sys_ != nullptr);
  if (Tracer* tr = trace(); tr != nullptr && tr->enabled()) {
    tr->Record("replica", "rejoin", peer, 0, 0, "");
  }
  // Reconcile the surviving cache against every origin: stale entries
  // drop and fresh complete copies re-install and re-advertise as each
  // origin's answer lands, so nothing the peer crashed with is
  // advertised before its origin has confirmed it.
  ReconcileHolder(peer);
}

void ReplicaManager::OnNotifyDelivered(PeerId origin, PeerId holder) {
  AXML_DCHECK_CALLED_ON_SEQUENCE(sequence_checker_);
  auto cit = caches_.find(holder);
  if (cit == caches_.end()) return;  // late notify, holder has nothing
  TransferCache* cache = cit->second.get();
  // Collect first: Erase fires the evict listener, which mutates the
  // cache's key set.
  std::vector<ReplicaKey> stale;
  for (const ReplicaKey& k : cache->Keys()) {
    if (k.origin != origin || k.is_shard_data()) continue;
    const TransferCache::Entry* e = cache->Peek(k);
    if (e != nullptr && e->origin_version != Version(origin, k.name)) {
      stale.push_back(k);
    }
  }
  for (const ReplicaKey& k : stale) {
    cache->Erase(k, /*invalidation=*/true);
    ++subscription_stats_.notify_repairs;
    if (Tracer* tr = trace(); tr != nullptr && tr->enabled()) {
      tr->Record("replica", "notify_repair", holder, 0, 0, k.ToString());
    }
  }
}

}  // namespace axml
