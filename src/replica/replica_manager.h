// Replica placement and versioned invalidation.
//
// The paper's rule (13) materializes a transferred tree as a local copy;
// its generic documents (def. 9) read "any" member of an equivalence
// class. Both presuppose a runtime notion of *replicas*: who holds a
// copy, how fresh it is, and when reading a copy beats a transfer. The
// ReplicaManager is that layer:
//
//  - every (owner peer, doc name) carries a version, bumped whenever the
//    owner mutates the document (Peer's mutation listener);
//  - each peer owns a TransferCache of materialized remote copies tagged
//    with the origin version at copy time;
//  - a fresh copy is installed as a local document and *advertised*: the
//    discovery catalog lists the caching peer as a holder, and the copy
//    joins every generic class the origin belongs to — so d@any
//    resolution routes to the nearest fresh copy;
//  - every successful cache insert *subscribes* the holder at the origin
//    under the inserted entry's exact key — document entry or data shard
//    (SubscriptionTable); a mutation at the origin pushes to every
//    *dirty* holder immediately, where a partial copy is dirty only if
//    it holds a data shard the new version no longer references (clean
//    partial holders are skipped: shard-granular fan-out) — under
//    RefreshPolicy::kDrop the holder's copy and all its advertisements
//    are retracted at mutation time (never a stale advertisement between
//    a write and the next read); under kEagerRefresh the origin additionally ships the new
//    version through the transfer path, re-materializing the copy
//    without a read asking for it (per-holder byte budget, in-flight
//    coalescing of back-to-back mutations);
//  - under RefreshPolicy::kLazy (the PR 1 baseline) a stale copy is
//    instead dropped on its next lookup: evicted from the cache, removed
//    as a local document, Catalog::Unregister'ed, and withdrawn from its
//    generic classes;
//  - a holder keeps *one entry per document* (ReplicaKey{origin, name})
//    plus the immutable content-addressed data shards that entry
//    references. The entry is the document itself, which references no
//    shard, or — for a document the origin splits (xml/sharding.h,
//    OriginShards, enabled via set_sharding_enabled) — its versioned
//    manifest. Reads, eager refresh and placement ship the entry unless
//    the holder's is fresh, plus only the shards the holder lacks (a
//    "delta"): a mutation of one subtree re-ships one dirty shard
//    instead of the whole document, and a byte budget smaller than the
//    document can still hold a useful partial copy. Completeness,
//    materialization, insert, drop, dirtiness and repair read the
//    entry's references (ManifestShardIds); none asks how the copy is
//    laid out, so the evaluator and the cost model never name a shard.
//
// Cached copies are soft state: AxmlSystem::StateFingerprint skips them,
// so Σ-equivalence (the rule-equivalence property) is judged on durable
// documents only.
//
// Threading / reentrancy contract (machine-checked; docs/architecture.md
// is the canonical statement): the manager runs on its System's one
// sequence, enforced by an embedded SequenceChecker — cross-thread use
// aborts. Mutation fan-out is synchronous — NoteMutation drops
// subscribed copies before it returns — and *legally* nests across
// distinct documents: a drop fires RemoveDocument, whose mutation
// listener re-enters NoteMutation for the holder's own name. What must
// never happen is re-entering NoteMutation for the *same* (owner, name)
// while its fan-out is still running (the version table and subscription
// state for that key are mid-mutation), so NoteMutation keeps a per-key
// active set and aborts on a same-key cycle (death-tested). The caches'
// evict listeners call back into the manager (advertisement retraction,
// unsubscription) but never back into the cache that fired them — the
// cache's own ReentrancyGuard enforces that side.

#ifndef AXML_REPLICA_REPLICA_MANAGER_H_
#define AXML_REPLICA_REPLICA_MANAGER_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/sequence_checker.h"
#include "net/sim_time.h"
#include "peer/generic.h"
#include "replica/eviction_policy.h"
#include "replica/placement.h"
#include "replica/subscription.h"
#include "replica/transfer_cache.h"
#include "xml/sharding.h"
#include "xml/tree.h"
#include "xml/wire.h"

namespace axml {

class AxmlSystem;
class Tracer;
namespace wire {
class Payload;
struct Shipment;
}  // namespace wire

/// What a simulated peer crash does to the peer's replica cache.
enum class CrashMode {
  /// The cache dies with the process: every entry is wiped (evict
  /// listeners retract advertisements and subscriptions as usual).
  kLoseCache,
  /// The cache survives on disk. Its entries may rot while the peer is
  /// down — rejoin reconciles them against every origin before anything
  /// is re-advertised.
  kDurableCache,
};

/// Counters for the sharded-replication paths (bench_sharding reports
/// these; cumulative since the last ResetStats).
struct ShardStats {
  uint64_t sharded_reads = 0;      ///< read-path delta fetches issued
  uint64_t sharded_shipments = 0;  ///< refresh/placement delta shipments
  uint64_t manifests_shipped = 0;  ///< manifests that crossed the wire
  uint64_t shards_shipped = 0;     ///< data shards that crossed the wire
  uint64_t shard_bytes_shipped = 0;
  /// Resident shards a delta did not have to re-ship, and their bytes —
  /// the wire traffic partial copies avoided.
  uint64_t shards_reused = 0;
  uint64_t shard_bytes_saved = 0;
  uint64_t full_hits = 0;     ///< reads assembled entirely from residents
  uint64_t partial_hits = 0;  ///< delta reads that reused >= 1 shard

  std::string ToString() const;

  /// Registry retrofit: every field above under its own name.
  void ExportMetrics(MetricSink& sink) const;
};

/// How a copy is stored at its holder: an entry that references no
/// shard, or a manifest entry plus data shards (xml/sharding.h). Only
/// the replica layer decides it; callers see it just to file read
/// counters.
enum class CopyLayout { kWhole, kSharded };

/// Owns every peer's transfer cache and the document version table.
class ReplicaManager {
 public:
  ReplicaManager() = default;
  ReplicaManager(const ReplicaManager&) = delete;
  ReplicaManager& operator=(const ReplicaManager&) = delete;

  /// Ties the manager to its system (called by AxmlSystem's constructor;
  /// the manager touches peers, the catalog and the generic registry when
  /// advertising or retracting copies).
  void Bind(AxmlSystem* sys) { sys_ = sys; }

  // --- Document versions ---

  /// Current version of `name` on `owner`. Always >= 1: exactly 1 for a
  /// name this manager never saw a mutation for, and incremented on
  /// every mutation-listener event — the installing write included, so
  /// an installed document sits at 2 and no mutation history can ever
  /// collide with the never-seen default. (The seed returned 0 for
  /// never-seen names while documenting 1, which made the first-ever
  /// listener event land on 1 — indistinguishable from never-seen.)
  uint64_t Version(PeerId owner, const DocName& name) const;

  /// Records a mutation of `name` on `owner` (wired to Peer's mutation
  /// listener: PutDocument, AppendUnderNode, RemoveDocument). Copies made
  /// at earlier versions become stale; under the push policies (kDrop,
  /// kEagerRefresh) every subscribed holder is notified here — its copy
  /// and advertisements are gone before this call returns — while kLazy
  /// leaves them to be dropped on their next lookup.
  void NoteMutation(PeerId owner, const DocName& name);

  // --- Push-based refresh ---

  /// What a mutation does to subscribed copy holders. Default: kDrop —
  /// immediate coherence; kLazy restores the drop-on-lookup baseline.
  void set_refresh_policy(RefreshPolicy p) { refresh_policy_ = p; }
  RefreshPolicy refresh_policy() const { return refresh_policy_; }

  /// Cap on the wire bytes eager refresh may spend per holder (lifetime
  /// of the manager, reset by ResetStats). Exhausted holders fall back
  /// to drop. Default: unlimited.
  void set_refresh_budget_bytes(uint64_t bytes) {
    refresh_budget_bytes_ = bytes;
  }

  const SubscriptionStats& subscription_stats() const {
    return subscription_stats_;
  }
  const SubscriptionTable& subscriptions() const { return subscriptions_; }

  // --- Fault tolerance (leases, retry, anti-entropy, churn) ---
  //
  // Everything in this block is off by default and, when off, leaves a
  // run byte-identical to a manager without it — the soak harness pins
  // that. The perfect-fabric coherence story never needed it: copy
  // drops are synchronous with the mutation, so no read can see stale
  // content. Under injected faults and peer churn the *origin-side*
  // state (subscriptions, in-flight shipments) and a crashed holder's
  // durable cache can diverge; leases, bounded shipment retry and the
  // anti-entropy sweep bound how long that divergence lives.

  /// Leased subscriptions: every `renew_interval_s` of virtual time each
  /// up holder re-registers its interest at every origin it holds copies
  /// of (one encoded LeaseRenewal message per (holder, origin) pair,
  /// priced at its wire size, lossy);
  /// an origin that heard nothing from a holder for `ttl_s` expires the
  /// lease — the holder's subscriptions are forgotten, and an *up*
  /// holder also drops its lapsed entries (the lease contract: a holder
  /// that cannot renew stops serving; a crashed holder's cache is left
  /// for rejoin-time reconciliation). Runs off EventLoop::AddPeriodic,
  /// so an idle loop still quiesces. 0/0 (the default) disables leases
  /// and clears all deadlines. Requires a bound system.
  void ConfigureLeases(SimTime renew_interval_s, SimTime ttl_s);

  /// Bounded retry-with-backoff for refresh/placement shipments: when
  /// on, every launched shipment arms a timeout of 3 x the estimated
  /// transfer time + 0.25 s x attempt number; a shipment whose landing
  /// never fired (dropped by the fault injector or a crashed endpoint)
  /// is relaunched up to 3 total attempts, then the holder falls back
  /// to lazy pulls (SubscriptionStats::dropped_to_lazy). Default: off —
  /// a dropped shipment would just never land.
  void set_shipment_retry(bool enabled) { ship_retry_ = enabled; }

  /// Periodic anti-entropy: every `interval_s` of virtual time, every up
  /// holder starts a digest exchange with its origins (ReconcileHolder).
  /// 0 (the default) disables the tick; RunAntiEntropySweep stays
  /// callable manually. Requires a bound system.
  void set_anti_entropy_interval(SimTime interval_s);

  /// ReconcileHolder for every up holder. Returns the exchanges sent;
  /// repairs happen as answers land (SubscriptionStats::sweep_repairs).
  size_t RunAntiEntropySweep();

  /// Reconciles one holder's cache against its origins, shard-
  /// granularly: the holder sends each up origin a DigestExchange of its
  /// resident entries (loopback when it is its own origin); the origin,
  /// as it lands, answers with only the stale document entries and
  /// orphaned data shards (DigestAnswer); the holder, as the answer
  /// lands, drops exactly those, re-subscribes and re-installs what was
  /// confirmed, and under kEagerRefresh re-ships dropped copies
  /// (RepairFromAnswer). An abandoned exchange repairs nothing. Returns
  /// the number of exchanges sent.
  size_t ReconcileHolder(PeerId holder);

  /// Peer-churn hooks (AxmlSystem::CrashPeer/RejoinPeer call these after
  /// flipping the Network's liveness bit). Crash cancels in-flight
  /// shipments toward the peer, retracts every advertisement of its
  /// installed copies (a down peer must never be routable), and under
  /// kLoseCache wipes its transfer cache. Origin-side subscriptions of a
  /// durable-cache peer survive — leases or rejoin clean them up.
  void OnPeerCrash(PeerId peer, CrashMode mode);
  /// Rejoin starts reconciling the surviving cache (ReconcileHolder);
  /// a copy is re-installed and re-advertised only once its origin's
  /// answer confirms it — a rejoining peer can never serve the stale
  /// state it crashed with.
  void OnPeerRejoin(PeerId peer);

  /// Arrival hook of an invalidation notification (wired as the notify
  /// Send's delivery callback): drops whatever stale document entries of
  /// `origin` the holder still has. On a perfect fabric this is always
  /// a no-op — PushInvalidate dropped them synchronously at
  /// mutation time — and a notification arriving late (holder already
  /// dropped the doc, or crashed and rejoined at a newer version) is
  /// tolerated the same way: a no-op, never an abort.
  void OnNotifyDelivered(PeerId origin, PeerId holder);

  // --- Notification batching ---

  /// Opens / closes a batching window (nestable) for push notifications:
  /// while a window is open, invalidation events to the same (origin,
  /// holder) pair coalesce into one encoded NotifyBatch payload carrying
  /// all their keys, sent when the outermost window closes. Copy drops
  /// stay synchronous — only the wire message is deferred. Wrap these
  /// around an event-loop turn that mutates many documents; see the
  /// NotifyBatch RAII helper.
  void BeginNotifyBatch();
  void EndNotifyBatch();

  // --- Document sharding (xml/sharding.h) ---

  /// Turns splitting on or off: the switch decides only whether
  /// OriginShards splits. When on, documents that SplitDocument splits
  /// (encoded size above the sharding config's max_shard_bytes, >= 2
  /// children at some depth, no embedded service calls) ship as a
  /// manifest entry + data shards; everything else ships as an entry
  /// that references no shard. Off by default.
  void set_sharding_enabled(bool on) { sharding_enabled_ = on; }

  /// Splitter knobs. Takes effect on the next version of each document
  /// (the per-origin split is cached per document version).
  void set_sharding_config(ShardingConfig cfg);

  /// The current sharded form of origin's `name`, decided and split once
  /// per document version and cached; a repeat call is a memo lookup.
  /// nullptr when sharding is disabled, the document is absent or too
  /// small, or it embeds service calls (their activation state must not
  /// be frozen into shard blobs). Logically const: the memoized split and
  /// the origin's NodeIdGen do mutate.
  const ShardedDocument* OriginShards(PeerId origin,
                                      const DocName& name) const;

  const ShardStats& shard_stats() const { return shard_stats_; }

  /// True when an eager-refresh shipment of origin's `name` toward
  /// `reader` is on the wire.
  bool IsRefreshInFlight(PeerId reader, PeerId origin,
                         const DocName& name) const;

  /// Cost-model probe: true when `reader` holds a fresh copy *or* one is
  /// being re-materialized right now (eager refresh in flight). Under
  /// kEagerRefresh a mutation therefore does not decay the fresh-copy
  /// assumption plans are priced on.
  bool ExpectedFresh(PeerId reader, PeerId origin,
                     const DocName& name) const;

  /// Cost-model probe: the wire bytes a read of origin's `name` by
  /// `reader` would move right now, for a document whose whole transfer
  /// moves `whole_bytes`. 0 when ExpectedFresh holds. For a sharded
  /// document, the stale-or-absent manifest plus every non-resident
  /// data shard, clamped to `whole_bytes`: shard wrappers make a cold
  /// delta exceed the whole document, but a partial copy must never
  /// price above the transfer it replaces. Otherwise `whole_bytes`.
  double ReadTransferBytes(PeerId reader, PeerId origin, const DocName& name,
                           double whole_bytes) const;

  // --- Per-peer caches ---

  /// The transfer cache of `peer`, created on first use with the default
  /// byte budget.
  TransferCache* CacheFor(PeerId peer);
  /// nullptr when `peer` never cached anything.
  const TransferCache* FindCache(PeerId peer) const;

  /// Budget applied to caches created after this call.
  void set_default_byte_budget(uint64_t bytes) { default_budget_ = bytes; }

  /// Victim-selection policy for the transfer caches. Applies to caches
  /// created later *and* switches every existing cache (recency and
  /// frequency bookkeeping restarts — benches flip policies between
  /// runs). Every cache also gets CostModel::RefetchCost wired in as its
  /// refetch-cost estimate, so kCostAware prices victims off the real
  /// topology.
  void set_default_eviction_policy(EvictionPolicy p);
  EvictionPolicy default_eviction_policy() const {
    return default_eviction_policy_;
  }

  // --- Proactive placement ---

  /// Placement policy and its config (disabled until someone enables it
  /// via placement().set_config).
  PlacementPolicy& placement() { return placement_; }
  const PlacementPolicy& placement() const { return placement_; }
  const PlacementStats& placement_stats() const { return placement_stats_; }

  /// One placement round: plans shipments from the GenericCatalog's pick
  /// demand (PlacementPolicy::Plan) and starts them through the shared
  /// shipment path — coalesced with in-flight refresh/placement
  /// shipments, denied by the per-holder placement byte budget, cached +
  /// installed + advertised when they land. Returns shipments started;
  /// the caller drives the event loop to land them.
  size_t RunPlacement();

  /// Periodic placement: when `interval_s` > 0, RunPlacement fires
  /// automatically every `interval_s` seconds of virtual time
  /// (EventLoop::AddPeriodic — the tick piggybacks on event activity,
  /// so an idle loop still quiesces and manual rounds stay possible).
  /// 0 cancels the tick. Default: off. Requires a bound system.
  void set_placement_tick_interval(SimTime interval_s);

  /// Demand-watermark placement: when `picks` > 0, a (class, caller)
  /// demand counter reaching `picks` posts one RunPlacement to the
  /// event loop — between ticks, at the current virtual instant —
  /// instead of waiting for the next periodic round. Crossings that
  /// arrive while a round is already pending coalesce into it. 0
  /// disables the trigger. Default: off.
  void set_placement_demand_watermark(uint64_t picks) {
    placement_demand_watermark_ = picks;
  }

  /// The GenericCatalog demand-listener hook (AxmlSystem wires it up):
  /// schedules the watermark-triggered round.
  void OnPickDemand(const std::string& class_name, PeerId from,
                    uint64_t demand);

  // --- Copies ---

  /// Copy content as it landed at a holder: the document entry (the
  /// document itself, or its manifest), the bytes that carried it, and
  /// the data shards that arrived with it. (Default member initializers
  /// let callers name only the fields they fill.)
  struct LandedCopy {
    TreePtr tree = nullptr;
    /// The bytes that crossed the wire for `tree`; the cache stores them
    /// verbatim. Empty: the cache encodes `tree` itself.
    std::string encoded = {};
    std::vector<DocumentShard> shards = {};
  };

  /// Records that `landed` — a copy of origin's `name` — materialized at
  /// `reader`: caches it (the document entry plus each shipped shard),
  /// subscribes the holder under every cached key, and —
  /// when the copy is complete and the reader holds no unrelated
  /// document of that name — installs it as a local document and
  /// advertises it (catalog + generic classes of the origin).
  /// `snapshot_version` is the origin's version *when the content was
  /// copied for shipping* — passing the landing-time version would brand
  /// content cloned before a mid-flight mutation as fresh. Returns false
  /// without caching when the snapshot is already stale or the cache
  /// refused the entry; shards the budget refuses leave a partial copy
  /// that later reads complete.
  bool InsertCopy(PeerId reader, PeerId origin, const DocName& name,
                  const LandedCopy& landed, uint64_t snapshot_version);

  /// A private instance of the fresh copy of origin's `name` held by
  /// `reader`, or nullptr. An entry that references no shard is decoded
  /// from its resident wire bytes; a complete manifest entry is
  /// assembled from the resident shards. A stale entry is dropped
  /// (cache, local document, catalog, generic classes) before
  /// returning the miss. Counts hit/miss stats. Never
  /// allocates a cache: a reader that never cached anything gets a
  /// plain miss (counted manager-side, see TotalStats). `layout`, when
  /// non-null, receives the layout that served the hit.
  TreePtr ReadFresh(PeerId reader, PeerId origin, const DocName& name,
                    CopyLayout* layout = nullptr);

  /// Starts the transfer a read miss needs and makes its result a copy:
  /// a document the origin does not split ships as one kTree payload; a
  /// split one ships only the stale manifest and the data shards
  /// `reader` lacks, while
  /// resident shards serve locally (each a cache hit). The landing
  /// caches what arrived, installs and advertises it (InsertCopy), and
  /// hands `deliver` a private instance of the document read (nullptr
  /// only if the reader vanished or the payload did not parse). Returns
  /// false without sending when the origin's document is absent or
  /// carries service calls — neither is a copy. `layout`, when non-null,
  /// receives the layout that was shipped.
  bool Fetch(PeerId reader, PeerId origin, const DocName& name,
             std::function<void(TreePtr)> deliver,
             CopyLayout* layout = nullptr);

  /// True when `reader` holds a fresh copy of origin's `name`: its
  /// document entry is at the current version and every data shard the
  /// entry references is resident. No side effects and no stats — the
  /// cost model probes with this.
  bool HasFresh(PeerId reader, PeerId origin, const DocName& name) const;

  /// Encoded content bytes of the fresh copy: the entry's, or the sum of
  /// its data shards' when it references any. 0 when absent or
  /// incomplete.
  uint64_t FreshCopyBytes(PeerId reader, PeerId origin,
                          const DocName& name) const;

  /// True when document `name` on `peer` is soft replica state (skipped
  /// by StateFingerprint).
  bool IsCachedCopy(PeerId peer, const DocName& name) const;

  /// The origin whose copy is installed as `peer`'s local document
  /// `name`, or PeerId::Invalid() when that slot holds no copy. Only the
  /// installed copy carries advertisements — a cache-only copy (slot
  /// taken by an unrelated document or another origin's copy) serves
  /// repeated reads but is never advertised; tests mirror-check
  /// advertisements against this.
  PeerId InstalledOrigin(PeerId peer, const DocName& name) const;

  /// True when `reader` holds a fresh copy of origin's `name` that is
  /// also *installed* as reader's local document of that name. Only then
  /// may a rewrite substitute Doc(name, reader) for Doc(name, origin) —
  /// a cache-only copy (local name taken by an unrelated document or a
  /// copy from another origin) must not be read by name.
  bool HasFreshInstalled(PeerId reader, PeerId origin,
                         const DocName& name) const;

  /// Generic-pick validation hook: a member that is a cached copy must be
  /// fresh to stay in its class; a stale one is dropped (with all its
  /// advertisements) and the call returns false. Durable members always
  /// validate.
  bool ValidateMember(const std::string& class_name,
                      const ClassMember& member);

  /// Drops one copy (fresh or stale) with its advertisements; returns
  /// true when it existed.
  bool DropCopy(PeerId reader, PeerId origin, const DocName& name);
  /// Drops every cached copy on every peer (benches reset between runs).
  void DropAllCopies();

  /// Sum of every peer's cache counters.
  TransferCacheStats TotalStats() const;
  void ResetStats();

  /// Mounts the whole replica layer into `sink`: subscription counters
  /// under "replica/subscription/...", shard counters under
  /// "replica/shard/...", placement under "replica/placement/...", the
  /// summed cache counters (TotalStats) under "replica/cache/...", and
  /// each peer's own cache under "peer/<index>/replica/cache/...".
  /// AxmlSystem registers this at the registry root.
  void ExportMetrics(MetricSink& sink) const;

 private:
  /// Memoized origin-side split, or the answer "ships whole" (nullopt):
  /// recomputed when the document's version moves past `version`.
  struct OriginShardState {
    uint64_t version = 0;
    std::optional<ShardedDocument> sharded;
  };

  /// Retracts the local document + catalog + generic-class advertisements
  /// of the copy `key` held at `reader`. Invoked by the caches' evict
  /// listeners, so budget evictions retract advertisements too. Losing
  /// *any* piece of a copy (entry or data shard) retracts the installed
  /// document — installed ⇔ fully resident in cache.
  void RetractAdvertisements(PeerId reader, const ReplicaKey& key);

  /// Installs a private instance of reader's complete resident copy of
  /// origin's `name` at `version` as reader's local document and
  /// advertises it (catalog + the origin's generic classes). No-op when
  /// the name slot is taken or no complete copy at that version is
  /// resident.
  void InstallAndAdvertise(PeerId reader, PeerId origin,
                           const DocName& name, uint64_t version);

  /// Decodes a payload that landed at `holder` into the holder's own
  /// node ids: a kTree payload (a whole-document read) or a shipment
  /// envelope, whose snapshot version then overwrites
  /// `*snapshot_version`. `resident_entry` stands in for an entry the
  /// sender left out because the holder's was fresh. False when the
  /// holder is gone or the payload does not parse.
  bool DecodeLanded(const wire::Payload& p, PeerId holder,
                    const TreePtr& resident_entry, LandedCopy* landed,
                    uint64_t* snapshot_version);

  /// Fills `ship` with the sharded delta of `sd` (document `doc`) toward
  /// the holder whose cache is `cache` (nullptr: it holds nothing): the
  /// manifest unless the holder's entry is fresh at
  /// ship->snapshot_version,
  /// and each distinct data shard the holder lacks — content-addressed
  /// ids make "lacks" independent of the version a stale copy was cut
  /// from. A read passes `parts`: resident shards then serve through Get
  /// (a cache hit each) and are collected there. Tallies shipped and
  /// reused pieces into `tally`. Returns the holder's fresh entry when
  /// it was left out — holding it keeps the blob alive for the landing
  /// even if the entry is evicted meanwhile — else nullptr.
  TreePtr EncodeShardDelta(const ShardedDocument& sd, const ReplicaKey& doc,
                           TransferCache* cache,
                           std::map<std::string, TreePtr>* parts,
                           wire::Shipment* ship, ShardStats* tally);

  /// Sends one invalidation notification for `key` (or folds it into the
  /// open batch).
  void QueueNotify(const ReplicaKey& key, PeerId holder);

  /// Encodes `keys` into one wire::NotifyBatch payload and sends it
  /// origin -> holder; the priced size is the encoded size. Requires a
  /// bound system.
  void SendNotifyMessage(PeerId origin, PeerId holder,
                         const std::vector<ReplicaKey>& keys);

  /// The system's causal tracer, nullptr before Bind (headless unit
  /// tests construct managers without a system).
  Tracer* trace() const;

  /// Mutation fan-out (kDrop / kEagerRefresh), shard-granular: computes
  /// which subscribed holders are *dirty* — a document-key subscriber
  /// that holds no entry (a refresh is pending) or a complete copy; a
  /// holder of a data shard the new version no longer references — then
  /// notifies each dirty holder, drops its dirty entries synchronously,
  /// and — under eager refresh — starts the re-materializing shipment.
  /// Partial holders with no dirty shard are skipped entirely
  /// (SubscriptionStats::clean_skips): their shards are still current,
  /// their stale entry is caught by the version check on its next
  /// lookup, and an incomplete copy is never installed or advertised, so
  /// no stale read can route to them.
  void PushInvalidate(const ReplicaKey& key);

  /// Ships the origin's current version of `key` to `holder`; the copy
  /// re-enters the cache (and its advertisements) when it lands. Folds
  /// into an already in-flight shipment; respects the refresh budget.
  /// `attempt` > 0 marks a catch-up shipment after a mid-flight
  /// mutation; the chain is capped at kMaxCatchupAttempts, after which
  /// the holder falls back to lazy pulls (catchup_exhausted). Returns
  /// true when a shipment is (now) in flight for the pair — false means
  /// nothing will land (budget denied, document removed).
  bool StartRefresh(PeerId holder, const ReplicaKey& key, int attempt);

  /// Executes one planned placement seeding through the same in-flight
  /// machinery StartRefresh uses (one shipment per (holder, key) pair on
  /// the wire, whatever started it). Returns true when a new shipment
  /// launched; launching drains the decision's (class, holder) demand.
  bool StartPlacementShipment(const PlacementDecision& decision);

  /// Shared wire leg of StartRefresh and StartPlacementShipment: clones
  /// the origin's current content — an entry with zero shards, or as a
  /// sharded delta against the holder's resident shards when the origin
  /// splits the document —
  /// registers a generation token in refresh_inflight_, and sends.
  /// `admit` sees the wire size (the *delta* size for sharded
  /// shipments) before anything is committed — return false to veto
  /// (and charge whatever budget applies on true). `on_land` runs at
  /// arrival with the flight token already cleared; a landing whose
  /// token was canceled (DropAllCopies) or superseded mid-flight is
  /// silently discarded before `on_land`. Returns false when nothing
  /// launched (missing peer or document, service calls frozen, admit
  /// veto). Precondition: no shipment in flight for (holder, key).
  /// `attempt` counts retransmissions when shipment retry is on
  /// (set_shipment_retry): a launch arms a timeout that relaunches the
  /// same admit/on_land pair — re-admitted, the retry is real wire
  /// traffic — until the attempt cap, then unsubscribes the holder
  /// (dropped_to_lazy).
  bool LaunchShipment(
      PeerId holder, const ReplicaKey& key,
      const std::function<bool(uint64_t bytes)>& admit,
      std::function<void(const LandedCopy& landed, uint64_t snap_version,
                         uint64_t bytes)>
          on_land,
      int attempt = 0);

  /// The lease tick body (renewals + expiries).
  void LeaseTick();

  /// Anti-entropy (ReconcileHolder): the origin's answer to a digest
  /// `request`; the holder's repair from what it `sent` and the answer.
  wire::Payload DigestAnswer(const wire::Payload& request) const;
  void RepairFromAnswer(PeerId holder, const wire::DigestExchange& sent,
                        const wire::Payload& answer);

  SequenceChecker sequence_checker_;
  /// (owner, name) keys whose NoteMutation fan-out is running right now.
  /// Distinct keys legally nest (drop → RemoveDocument → listener →
  /// NoteMutation for the holder's name); a same-key cycle aborts.
  std::set<ReplicaKey> active_mutations_;
  AxmlSystem* sys_ = nullptr;
  uint64_t default_budget_ = TransferCache::kDefaultByteBudget;
  EvictionPolicy default_eviction_policy_ = EvictionPolicy::kLru;
  std::map<PeerId, std::unique_ptr<TransferCache>> caches_;
  std::map<ReplicaKey, uint64_t> versions_;  ///< key = (owner, name)
  /// (reader, local doc name) -> origin, for copies installed as local
  /// documents. Guards against shadowing a reader's own documents and
  /// lets IsCachedCopy answer without scanning caches.
  std::map<std::pair<PeerId, DocName>, PeerId> installed_;

  RefreshPolicy refresh_policy_ = RefreshPolicy::kDrop;
  SubscriptionTable subscriptions_;
  SubscriptionStats subscription_stats_;
  uint64_t refresh_budget_bytes_ = UINT64_MAX;
  std::map<PeerId, uint64_t> refresh_spent_;  ///< wire bytes per holder
  /// (holder, key) -> generation of the refresh shipment on the wire.
  /// The landing callback acts only when its own generation is still
  /// registered: a shipment outliving a DropAllCopies (its event is
  /// queued in the loop) must not hijack the token of a newer shipment
  /// for the same pair.
  std::map<std::pair<PeerId, ReplicaKey>, uint64_t> refresh_inflight_;
  uint64_t refresh_generation_ = 0;
  /// Misses by peers that never cached anything (ReadFresh must not
  /// allocate a cache just to count one); folded into TotalStats.
  uint64_t uncached_misses_ = 0;

  // Fault-tolerance knobs (all off by default; see the public block).
  SimTime lease_ttl_ = 0;
  uint64_t lease_tick_id_ = 0;  ///< EventLoop periodic id; 0 = none
  /// (origin, holder) -> virtual time the lease lapses. Granted lazily
  /// on first sight of a subscription pair, re-armed by each renewal
  /// arrival.
  std::map<std::pair<PeerId, PeerId>, SimTime> lease_deadlines_;
  bool ship_retry_ = false;
  uint64_t anti_entropy_tick_id_ = 0;

  PlacementPolicy placement_;
  PlacementStats placement_stats_;
  /// Wire bytes placement spent per receiving holder (the placement
  /// config's per-holder budget draws down against this).
  std::map<PeerId, uint64_t> placement_spent_;
  SimTime placement_tick_interval_ = 0;
  uint64_t placement_tick_id_ = 0;  ///< EventLoop periodic id; 0 = none
  uint64_t placement_demand_watermark_ = 0;  ///< 0 = trigger off
  /// A watermark-triggered round is posted but has not run yet; further
  /// crossings coalesce into it instead of stacking rounds.
  bool placement_round_pending_ = false;

  bool sharding_enabled_ = false;
  ShardingConfig shard_config_;
  /// Per-(origin, name) memoized split, keyed by document-level key;
  /// mutable because cost-model probes (const) may recompute it.
  mutable std::map<ReplicaKey, OriginShardState> origin_shards_;
  ShardStats shard_stats_;

  /// Open notify-batch windows; > 0 defers notification sends into
  /// pending_notifies_.
  int notify_batch_depth_ = 0;
  /// (origin, holder) -> keys invalidated in the open batch; flushed as
  /// one encoded NotifyBatch per pair.
  std::map<std::pair<PeerId, PeerId>, std::vector<ReplicaKey>>
      pending_notifies_;
};

/// RAII notify-batch window: all push notifications issued while alive
/// coalesce into one wire message per (origin, holder) pair, flushed on
/// destruction. Wrap one around any stretch that mutates many documents
/// in a single event-loop turn.
class NotifyBatch {
 public:
  explicit NotifyBatch(ReplicaManager* m) : m_(m) { m_->BeginNotifyBatch(); }
  ~NotifyBatch() { m_->EndNotifyBatch(); }
  NotifyBatch(const NotifyBatch&) = delete;
  NotifyBatch& operator=(const NotifyBatch&) = delete;

 private:
  ReplicaManager* m_;
};

}  // namespace axml

#endif  // AXML_REPLICA_REPLICA_MANAGER_H_
