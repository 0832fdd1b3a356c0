// The three workloads. Each is built from the seed alone; the library
// sees only the generated documents, queries and schedule.
//
//  fleet_read    1024-peer fleet on the routed Chord DHT, Zipf reads
//                with a write every 16 ops: the read path (eval, catalog
//                routing, replica hit/miss, wire decode).
//  fleet_churn   the same fleet with a write every 4 ops, leases, retry
//                and anti-entropy armed, and 20 peers crashed and
//                rejoined every 1000 steps: the replica control plane.
//  catalog_query 8 peers, sharded product catalogs, every read an AQL
//                selection planned by the optimizer: opt search and the
//                sharded write path.

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "algebra/evaluator.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "harness.h"
#include "opt/optimizer.h"
#include "query/query.h"
#include "scenario/fleet.h"
#include "xml/sharding.h"
#include "xml/tree_equal.h"

namespace perfbench {
namespace {

using namespace axml;  // NOLINT: the benchmark drives this one library

struct DocRef {
  DocName name;
  PeerId origin;
  std::string class_name;
  uint64_t revision = 1;
};

/// Every document installed at bring-up, in peer order, with the generic
/// class it anchors.
std::vector<DocRef> InstalledDocs(AxmlSystem& sys) {
  std::vector<DocRef> docs;
  for (uint32_t p = 0; p < sys.peer_count(); ++p) {
    for (const auto& [name, root] : sys.peer(PeerId(p))->documents()) {
      const std::vector<std::string> classes =
          sys.generics().DocumentClassesOf(ClassMember{name, PeerId(p)});
      docs.push_back({name, PeerId(p), classes.empty() ? "" : classes[0]});
    }
  }
  return docs;
}

/// Multiset equality of two result streams, order ignored at every level.
bool SameResults(const std::vector<TreePtr>& a,
                 const std::vector<TreePtr>& b) {
  if (a.size() != b.size()) return false;
  auto canon = [](const std::vector<TreePtr>& v) {
    std::vector<std::string> out;
    out.reserve(v.size());
    for (const TreePtr& t : v) out.push_back(CanonicalForm(*t));
    std::sort(out.begin(), out.end());
    return out;
  };
  return canon(a) == canon(b);
}

class FleetWorkload : public Workload {
 public:
  explicit FleetWorkload(bool churn) : churn_(churn) {}

  void BringUp(uint64_t seed) override {
    FleetConfig cfg;
    cfg.topo = {4, 4, 64};
    cfg.backend = FleetBackend::kChordDht;
    cfg.origins = 16;
    cfg.docs_per_origin = 4;
    cfg.cache_budget = 4000;
    cfg.refresh = RefreshPolicy::kDrop;
    // Arms leases (0.5 s renew / 2 s TTL), shipment retry (3 attempts,
    // 0.25 s backoff) and anti-entropy every 2 s.
    cfg.churn = churn_;
    cfg.seed = seed;
    harness_ = std::make_unique<FleetHarness>(cfg);
    AxmlSystem& sys = harness_->system();
    docs_ = InstalledDocs(sys);
    std::set<uint32_t> origins;
    for (const DocRef& d : docs_) origins.insert(d.origin.index());
    for (uint32_t p = 0; p < sys.peer_count(); ++p) {
      if (origins.count(p) == 0) non_origins_.push_back(PeerId(p));
    }
    rng_.Seed(seed);
    zipf_ = std::make_unique<ZipfSampler>(docs_.size(), 1.0);
    EvalOptions opts;
    opts.use_replica_cache = true;
    opts.pick_policy = PickPolicy::kCacheAware;
    ev_ = std::make_unique<Evaluator>(&sys, opts);
  }

  void RunStep(uint64_t i, Recorder* rec) override {
    if (churn_ && i % kChurnPeriod == kCrashAt) Crash(rec);
    if (churn_ && i % kChurnPeriod == kRejoinAt) Rejoin(rec);
    const uint64_t every = churn_ ? 4 : 16;
    if (i % every == every - 1) {
      Write(rec);
    } else {
      Read(rec);
    }
  }

  size_t worlds() const override { return 4; }
  uint64_t warmup_steps() const override { return churn_ ? 1000 : 2048; }
  uint64_t pass_steps() const override { return churn_ ? 5000 : 8192; }
  // A churn block is one whole crash/rejoin period.
  uint64_t block_steps() const override {
    return churn_ ? kChurnPeriod : 1024;
  }
  AxmlSystem& system() override { return harness_->system(); }

 private:
  static constexpr uint64_t kChurnPeriod = 1000;
  static constexpr uint64_t kCrashAt = 250;
  static constexpr uint64_t kRejoinAt = 750;
  static constexpr size_t kChurnPeers = 20;

  /// The FleetHarness document shape: <doc><id/><x/>x4</doc>.
  TreePtr MakeDoc(const DocRef& doc, NodeIdGen* gen) const {
    TreePtr root = TreeNode::Element("doc", gen);
    root->AddChild(
        MakeTextElement("id", StrCat(doc.name, "#", doc.revision), gen));
    for (size_t x = 0; x < 4; ++x) {
      root->AddChild(MakeTextElement(
          "x", StrCat(doc.name, "-", doc.revision, "-", x), gen));
    }
    return root;
  }

  void Read(Recorder* rec) {
    AxmlSystem& sys = system();
    const DocRef& doc = docs_[zipf_->Sample(&rng_)];
    PeerId reader(rng_.Index(sys.peer_count()));
    while (!sys.IsPeerUp(reader)) {
      reader = PeerId(rng_.Index(sys.peer_count()));
    }
    const ExprPtr e = rng_.Bernoulli(0.3) ? Expr::GenericDoc(doc.class_name)
                                          : Expr::Doc(doc.name, doc.origin);
    rec->BeginOp(OpKind::kRead);
    Result<EvalOutcome> out = rec->Call(
        "algebra.Evaluator::Eval", [&] { return ev_->Eval(reader, e); });
    OpRecord& op = rec->op();
    if (!out.ok()) {
      op.failed = true;
    } else {
      op.sim_ms = out->Duration() * 1e3;
      const TreePtr truth = sys.peer(doc.origin)->GetDocument(doc.name);
      op.mismatch = out->results.size() != 1 || truth == nullptr ||
                    !TreesEqualUnordered(*out->results[0], *truth);
    }
    rec->EndOp();
  }

  void Write(Recorder* rec) {
    AxmlSystem& sys = system();
    DocRef& doc = docs_[zipf_->Sample(&rng_)];
    ++doc.revision;
    Peer* host = sys.peer(doc.origin);
    TreePtr next = MakeDoc(doc, host->gen());
    const SimTime t0 = sys.loop().now();
    rec->BeginOp(OpKind::kWrite);
    rec->Call("peer.Peer::PutDocument",
              [&] { host->PutDocument(doc.name, std::move(next)); });
    // After a mutation only the replica layer has work queued: invalidation
    // notifies (and, under churn, lease and anti-entropy ticks).
    rec->Call("replica.quiesce", [&] { return sys.RunToQuiescence(); });
    rec->op().sim_ms = (sys.loop().now() - t0) * 1e3;
    rec->EndOp();
  }

  /// Crashes 20 random non-origin peers, alternating cache-losing and
  /// durable-cache crashes. Origins stay up: they are the oracle's truth.
  void Crash(Recorder* rec) {
    std::vector<PeerId> pool = non_origins_;
    rng_.Shuffle(&pool);
    crashed_.assign(pool.begin(), pool.begin() + kChurnPeers);
    rec->BeginOp(OpKind::kChurn);
    for (size_t v = 0; v < crashed_.size(); ++v) {
      const CrashMode mode =
          v % 2 == 0 ? CrashMode::kLoseCache : CrashMode::kDurableCache;
      rec->Call("peer.AxmlSystem::CrashPeer",
                [&] { system().CrashPeer(crashed_[v], mode); });
    }
    rec->EndOp();
  }

  void Rejoin(Recorder* rec) {
    rec->BeginOp(OpKind::kChurn);
    for (const PeerId p : crashed_) {
      rec->Call("peer.AxmlSystem::RejoinPeer",
                [&] { system().RejoinPeer(p); });
    }
    rec->Call("replica.quiesce", [&] { return system().RunToQuiescence(); });
    rec->EndOp();
    crashed_.clear();
  }

  bool churn_;
  std::unique_ptr<FleetHarness> harness_;
  std::unique_ptr<Evaluator> ev_;
  std::vector<DocRef> docs_;
  std::vector<PeerId> non_origins_;
  std::vector<PeerId> crashed_;
  Rng rng_;
  std::unique_ptr<ZipfSampler> zipf_;
};

class CatalogQueryWorkload : public Workload {
 public:
  void BringUp(uint64_t seed) override {
    Topology::HierarchySpec spec;
    spec.regions = 2;
    spec.racks_per_region = 2;
    spec.peers_per_rack = 2;
    sys_ = std::make_unique<AxmlSystem>(Topology::Hierarchical(spec));
    for (uint32_t p = 0; p < spec.peer_count(); ++p) {
      sys_->AddPeer(StrCat("peer", p));
    }
    ReplicaManager& rm = sys_->replicas();
    ShardingConfig shards;
    shards.max_shard_bytes = 2 * 1024;
    shards.boundary = ShardBoundary::kContentDefined;
    rm.set_sharding_config(shards);
    rm.set_sharding_enabled(true);
    rm.set_refresh_policy(RefreshPolicy::kEagerRefresh);
    rm.set_default_byte_budget(200 * 1024);

    rng_.Seed(seed);
    // Four origins, one per rack, two catalogs each.
    for (uint32_t o = 0; o < 4; ++o) {
      const PeerId origin(o * 2);
      for (uint32_t d = 0; d < 2; ++d) {
        DocRef doc{StrCat("cat", o, "_", d), origin,
                   StrCat("cls_cat", o, "_", d)};
        NodeIdGen* gen = sys_->peer(origin)->gen();
        TreePtr root = TreeNode::Element("catalog", gen);
        for (size_t k = 0; k < 128; ++k) {
          root->AddChild(MakeProduct(StrCat("item", k), gen));
        }
        const Status st = sys_->InstallDocument(origin, doc.name, root);
        AXML_CHECK(st.ok()) << st.ToString();
        sys_->generics().AddDocumentMember(doc.class_name,
                                           ClassMember{doc.name, origin});
        docs_.push_back(doc);
      }
    }
    sys_->RunToQuiescence();
    zipf_ = std::make_unique<ZipfSampler>(docs_.size(), 1.0);
    EvalOptions eopts;
    eopts.use_replica_cache = true;
    eopts.pick_policy = PickPolicy::kCacheAware;
    ev_ = std::make_unique<Evaluator>(sys_.get(), eopts);
    OptimizerOptions oopts;
    oopts.assume_replica_cache = true;
    opt_ = std::make_unique<Optimizer>(sys_.get(), oopts);
  }

  void RunStep(uint64_t i, Recorder* rec) override {
    if (i % 4 == 3) {
      Write(rec);
    } else {
      Read(rec);
    }
  }

  size_t worlds() const override { return 6; }
  uint64_t warmup_steps() const override { return 64; }
  uint64_t pass_steps() const override { return 400; }
  uint64_t block_steps() const override { return 50; }
  AxmlSystem& system() override { return *sys_; }
  uint64_t candidates() const override { return candidates_; }
  uint64_t plans() const override { return plans_; }

 private:
  TreePtr MakeProduct(const std::string& name, NodeIdGen* gen) {
    TreePtr prod = TreeNode::Element("product", gen);
    prod->AddChild(MakeTextElement("name", name, gen));
    prod->AddChild(
        MakeTextElement("price", std::to_string(rng_.Uniform(1000)), gen));
    prod->AddChild(
        MakeTextElement("category", StrCat("c", rng_.Uniform(10)), gen));
    prod->AddChild(MakeTextElement("desc", rng_.Identifier(24), gen));
    return prod;
  }

  void Read(Recorder* rec) {
    const DocRef& doc = docs_[zipf_->Sample(&rng_)];
    const PeerId reader(rng_.Index(sys_->peer_count()));
    const bool generic = rng_.Bernoulli(0.5);
    const uint64_t theta = 50 + rng_.Uniform(200);
    const std::string text =
        StrCat("for $b in input(0)/catalog/product where $b/price < ", theta,
               " return <r>{ $b/name }</r>");
    rec->BeginOp(OpKind::kRead);
    OpRecord& op = rec->op();
    Result<Query> q =
        rec->Call("query.Query::Parse", [&] { return Query::Parse(text); });
    if (!q.ok()) {
      op.failed = true;
      rec->EndOp();
      return;
    }
    const ExprPtr e = Expr::Apply(
        *q, reader,
        {generic ? Expr::GenericDoc(doc.class_name)
                 : Expr::Doc(doc.name, doc.origin)});
    const OptimizedPlan plan = rec->Call(
        "opt.Optimizer::Optimize", [&] { return opt_->Optimize(reader, e); });
    candidates_ += opt_->candidates_explored();
    ++plans_;
    Result<EvalOutcome> out =
        rec->Call("algebra.Evaluator::Eval",
                  [&] { return ev_->Eval(reader, plan.expr); });
    if (!out.ok()) {
      op.failed = true;
    } else {
      op.sim_ms = out->Duration() * 1e3;
      // Oracle: the same query run locally on the origin's current copy.
      const TreePtr truth = sys_->peer(doc.origin)->GetDocument(doc.name);
      NodeIdGen gen;
      Result<std::vector<TreePtr>> want =
          truth == nullptr
              ? Result<std::vector<TreePtr>>(Status::NotFound(doc.name))
              : q->Eval({{truth}}, [](const DocName&) { return TreePtr(); },
                        &gen);
      op.mismatch = !want.ok() || !SameResults(out->results, *want);
    }
    rec->EndOp();
  }

  void Write(Recorder* rec) {
    const DocRef& doc = docs_[zipf_->Sample(&rng_)];
    Peer* host = sys_->peer(doc.origin);
    TreePtr product = MakeProduct(StrCat("new", next_product_++), host->gen());
    const NodeId root = host->GetDocument(doc.name)->id();
    const SimTime t0 = sys_->loop().now();
    rec->BeginOp(OpKind::kWrite);
    const Status st = rec->Call("peer.Peer::AppendUnderNode", [&] {
      return host->AppendUnderNode(root, std::move(product));
    });
    // Eager refresh: the quiesce re-splits the catalog and ships the
    // dirty shards to every holder.
    rec->Call("replica.quiesce", [&] { return sys_->RunToQuiescence(); });
    rec->op().failed = !st.ok();
    rec->op().sim_ms = (sys_->loop().now() - t0) * 1e3;
    rec->EndOp();
  }

  std::unique_ptr<AxmlSystem> sys_;
  std::unique_ptr<Evaluator> ev_;
  std::unique_ptr<Optimizer> opt_;
  std::vector<DocRef> docs_;
  Rng rng_;
  std::unique_ptr<ZipfSampler> zipf_;
  uint64_t next_product_ = 0;
  uint64_t candidates_ = 0;
  uint64_t plans_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "fleet_read") return std::make_unique<FleetWorkload>(false);
  if (name == "fleet_churn") return std::make_unique<FleetWorkload>(true);
  if (name == "catalog_query") return std::make_unique<CatalogQueryWorkload>();
  return nullptr;
}

}  // namespace perfbench
