// Tests for document sharding (xml/sharding.h) and sharded replication
// (the shard-granular paths of src/replica/ and the evaluator).
//
// The splitter's contract is a *round trip*: split → reassemble is
// unordered-equal to the original, across seeded-random trees (the
// AXML_TEST_SEED pattern of tests/test_util.h), with stable
// content-derived shard ids — a same-size mutation of one subtree
// dirties exactly one shard. The system-level tests then check what the
// ids buy: a mutation re-ships a small delta instead of the document,
// and a byte budget smaller than the document still produces cache hits
// through partial copies.

#include <gtest/gtest.h>

#include <limits>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "algebra/evaluator.h"
#include "common/rng.h"
#include "net/catalog.h"
#include "opt/cost_model.h"
#include "peer/axml_doc.h"
#include "replica/replica_manager.h"
#include "replica/transfer_cache.h"
#include "test_util.h"
#include "xml/sharding.h"
#include "xml/tree_equal.h"
#include "xml/wire.h"
#include "xml/xml_serializer.h"

namespace axml {
namespace {

using testing::MakeCatalog;
using testing::MakeRandomTree;
using testing::ResultsEqual;
using testing::TestSeed;

/// Reassembles a ShardedDocument from its own shards (the in-memory
/// identity lookup every round-trip test uses).
TreePtr Reassemble(const ShardedDocument& sd, NodeIdGen* gen) {
  return AssembleDocument(
      *sd.manifest,
      [&sd](const std::string& id) -> TreePtr {
        for (const DocumentShard& s : sd.shards) {
          if (s.id.ToString() == id) return s.content;
        }
        return nullptr;
      },
      gen);
}

// --- Splitter unit tests ---

TEST(ShardingTest, ShouldShardGates) {
  NodeIdGen gen;
  Rng rng(7);
  ShardingConfig cfg;
  cfg.max_shard_bytes = 512;
  // Too small: ships whole.
  EXPECT_FALSE(SplitDocument(*MakeCatalog(2, &gen, &rng), cfg, &gen));
  // Big enough and >= 2 children: shards.
  EXPECT_TRUE(SplitDocument(*MakeCatalog(32, &gen, &rng), cfg, &gen));
  // A single huge child cannot be split at the top level.
  TreePtr lone = TreeNode::Element("r", &gen);
  lone->AddChild(MakeTextElement("x", std::string(4096, 'a'), &gen));
  EXPECT_FALSE(SplitDocument(*lone, cfg, &gen));
  // Text roots never shard.
  EXPECT_FALSE(SplitDocument(*TreeNode::Text("just text"), cfg, &gen));
  // The gate is the whole encoded size, header and label table
  // included: one byte over the cap shards, at the cap ships whole.
  TreePtr small = MakeCatalog(8, &gen, &rng);
  cfg.max_shard_bytes = wire::EncodedTreeSize(*small) - 1;
  EXPECT_TRUE(SplitDocument(*small, cfg, &gen));
  cfg.max_shard_bytes += 1;
  EXPECT_FALSE(SplitDocument(*small, cfg, &gen));
}

TEST(ShardingTest, SplitRoundTripsCatalog) {
  NodeIdGen gen;
  Rng rng(TestSeed(41));
  TreePtr doc = MakeCatalog(120, &gen, &rng);
  ShardingConfig cfg;
  cfg.max_shard_bytes = 2048;
  std::optional<ShardedDocument> split = SplitDocument(*doc, cfg, &gen);
  ASSERT_TRUE(split.has_value());

  const ShardedDocument& sd = *split;
  EXPECT_TRUE(IsShardManifest(*sd.manifest));
  EXPECT_GT(sd.shards.size(), 4u);
  EXPECT_EQ(ManifestShardIds(*sd.manifest).size(), sd.shards.size());

  TreePtr back = Reassemble(sd, &gen);
  ASSERT_NE(back, nullptr);
  EXPECT_TRUE(TreesEqualUnordered(*doc, *back));
  // The original was never aliased: shard contents are clones.
  EXPECT_EQ(SerializeCompact(*doc).size(), SerializeCompact(*back).size());
}

TEST(ShardingTest, SplitRoundTripsSeededRandomTrees) {
  Rng rng(TestSeed(0x5EED));
  for (int i = 0; i < 25; ++i) {
    NodeIdGen gen;
    const size_t nodes = 20 + rng.Index(400);
    TreePtr doc = MakeRandomTree(nodes, &gen, &rng);
    ShardingConfig cfg;
    cfg.max_shard_bytes = 64 + rng.Uniform(512);
    std::optional<ShardedDocument> sd = SplitDocument(*doc, cfg, &gen);
    if (!sd.has_value()) continue;
    TreePtr back = Reassemble(*sd, &gen);
    ASSERT_NE(back, nullptr) << "iteration " << i;
    EXPECT_TRUE(TreesEqualUnordered(*doc, *back))
        << "round trip broke at iteration " << i
        << "; rerun with AXML_TEST_SEED pinned";
    // The splitter's size bookkeeping matches the encoder: every shard
    // is priced at its encoded size, and only the oversized leaves —
    // one indivisible node each — exceed the cap.
    uint64_t over_cap = 0;
    for (const DocumentShard& s : sd->shards) {
      EXPECT_EQ(s.bytes, wire::EncodedTreeSize(*s.content))
          << "iteration " << i;
      if (s.bytes > cfg.max_shard_bytes) {
        ++over_cap;
        EXPECT_EQ(s.content->child_count(), 1u) << "iteration " << i;
      }
    }
    EXPECT_EQ(over_cap, sd->oversized_leaves) << "iteration " << i;
  }
}

TEST(ShardingTest, ShardSizesRespectTheCap) {
  NodeIdGen gen;
  Rng rng(TestSeed(43));
  TreePtr doc = MakeCatalog(200, &gen, &rng);
  ShardingConfig cfg;
  cfg.max_shard_bytes = 4096;
  ShardedDocument sd = SplitDocument(*doc, cfg, &gen).value();
  uint64_t largest_child = 0;
  for (const TreePtr& c : doc->children()) {
    largest_child = std::max(largest_child, wire::EncodedTreeSize(*c));
  }
  for (const DocumentShard& s : sd.shards) {
    // Grouping clamps are enforced on the encoded size the shard is
    // priced at, and a shard holds whole subtrees: the wrapper can
    // exceed the cap only when a single child does.
    EXPECT_LE(s.bytes, std::max(cfg.max_shard_bytes, largest_child) +
                           uint64_t{32} /* wrapper */);
    // The priced size is the shard's encoded wire form.
    EXPECT_EQ(s.bytes, wire::EncodedTreeSize(*s.content));
    EXPECT_EQ(s.id, DigestOf(*s.content));
  }
  // The manifest is a sliver of the document.
  EXPECT_LT(sd.manifest_bytes, SerializeCompact(*doc).size() / 10);
}

TEST(ShardingTest, ShardIdsAreStableAcrossSplits) {
  NodeIdGen gen;
  Rng rng(TestSeed(44));
  TreePtr doc = MakeCatalog(100, &gen, &rng);
  ShardingConfig cfg;
  cfg.max_shard_bytes = 2048;
  ShardedDocument a = SplitDocument(*doc, cfg, &gen).value();
  ShardedDocument b = SplitDocument(*doc, cfg, &gen).value();
  ASSERT_EQ(a.shards.size(), b.shards.size());
  for (size_t i = 0; i < a.shards.size(); ++i) {
    EXPECT_EQ(a.shards[i].id, b.shards[i].id);
  }
  // Fresh node ids on every split do not leak into the identity.
  EXPECT_EQ(ManifestShardIds(*a.manifest), ManifestShardIds(*b.manifest));
}

TEST(ShardingTest, SameSizeMutationDirtiesExactlyOneShard) {
  NodeIdGen gen;
  Rng rng(TestSeed(45));
  TreePtr doc = MakeCatalog(150, &gen, &rng);
  ShardingConfig cfg;
  cfg.max_shard_bytes = 2048;
  // The greedy guarantee under test: boundaries depend on sizes alone,
  // so a same-size overwrite cannot move any of them. (Content-defined
  // boundaries depend on the mutated child's digest too; their
  // insertion/deletion stability has its own tests below.)
  cfg.boundary = ShardBoundary::kGreedy;
  ShardedDocument before = SplitDocument(*doc, cfg, &gen).value();

  // Overwrite one product's description with different bytes of the
  // same length: group boundaries (chosen by size) cannot move.
  TreePtr mutated = doc->CloneSameIds();
  TreeNode* product = mutated->child(75).get();
  TreeNode* desc = nullptr;
  for (const TreePtr& c : product->children()) {
    if (c->label_text() == "desc") desc = c.get();
  }
  ASSERT_NE(desc, nullptr);
  const size_t len = desc->child(0)->text().size();
  desc->child(0)->set_text(std::string(len, '!'));

  ShardedDocument after = SplitDocument(*mutated, cfg, &gen).value();
  ASSERT_EQ(before.shards.size(), after.shards.size());
  size_t dirty = 0;
  for (size_t i = 0; i < before.shards.size(); ++i) {
    if (!(before.shards[i].id == after.shards[i].id)) ++dirty;
  }
  EXPECT_EQ(dirty, 1u);
}

// --- Recursive sharding ---

TEST(ShardingTest, SingleHugeChildShardsRecursively) {
  // Regression for the sharding gate: a document whose entire size
  // lives in one huge child used to never shard at all. The recursive
  // splitter descends into it instead.
  NodeIdGen gen;
  Rng rng(TestSeed(47));
  TreePtr root = TreeNode::Element("wrapper", &gen);
  root->AddChild(MakeCatalog(120, &gen, &rng));
  ShardingConfig cfg;
  cfg.max_shard_bytes = 2048;
  ASSERT_GT(wire::EncodedTreeSize(*root), cfg.max_shard_bytes);
  std::optional<ShardedDocument> split = SplitDocument(*root, cfg, &gen);
  ASSERT_TRUE(split.has_value());

  const ShardedDocument& sd = *split;
  // The byte-budget guarantee holds below the root too: many capped
  // shards, not one oversized blob.
  EXPECT_GT(sd.shards.size(), 4u);
  EXPECT_EQ(sd.oversized_leaves, 0u);
  for (const DocumentShard& s : sd.shards) {
    EXPECT_LE(s.bytes, cfg.max_shard_bytes + uint64_t{32});
  }
  EXPECT_EQ(ManifestShardIds(*sd.manifest).size(), sd.shards.size());
  TreePtr back = Reassemble(sd, &gen);
  ASSERT_NE(back, nullptr);
  EXPECT_TRUE(TreesEqualUnordered(*root, *back));
}

TEST(ShardingTest, NestedManifestsRoundTripAcrossDepths) {
  // Three levels of oversized children (with siblings at every level):
  // sub-manifests nest, and assembly walks them back exactly.
  NodeIdGen gen;
  Rng rng(TestSeed(48));
  ShardingConfig cfg;
  cfg.max_shard_bytes = 1024;
  TreePtr level2 = TreeNode::Element("inner", &gen);
  for (int i = 0; i < 40; ++i) {
    level2->AddChild(
        MakeTextElement("leaf", rng.Identifier(48), &gen));
  }
  TreePtr level1 = TreeNode::Element("middle", &gen);
  level1->AddChild(std::move(level2));
  for (int i = 0; i < 30; ++i) {
    level1->AddChild(MakeTextElement("m", rng.Identifier(40), &gen));
  }
  TreePtr root = TreeNode::Element("outer", &gen);
  root->AddChild(std::move(level1));
  for (int i = 0; i < 30; ++i) {
    root->AddChild(MakeTextElement("o", rng.Identifier(40), &gen));
  }
  std::optional<ShardedDocument> split = SplitDocument(*root, cfg, &gen);
  ASSERT_TRUE(split.has_value());

  const ShardedDocument& sd = *split;
  EXPECT_EQ(sd.oversized_leaves, 0u);
  for (const DocumentShard& s : sd.shards) {
    EXPECT_LE(s.bytes, cfg.max_shard_bytes + uint64_t{32});
  }
  EXPECT_EQ(ManifestShardIds(*sd.manifest).size(), sd.shards.size());
  TreePtr back = Reassemble(sd, &gen);
  ASSERT_NE(back, nullptr);
  EXPECT_TRUE(TreesEqualUnordered(*root, *back));

  // Stability survives nesting: an identical re-split yields the same
  // ids in the same order.
  ShardedDocument again = SplitDocument(*root, cfg, &gen).value();
  EXPECT_EQ(ManifestShardIds(*sd.manifest),
            ManifestShardIds(*again.manifest));
}

TEST(ShardingTest, IndivisibleOversizedNodeTravelsAloneAndIsCounted) {
  NodeIdGen gen;
  Rng rng(TestSeed(49));
  TreePtr root = MakeCatalog(40, &gen, &rng);
  // One child is a single huge text element: nothing below it to split.
  root->AddChild(MakeTextElement("blob", std::string(8192, 'x'), &gen));
  ShardingConfig cfg;
  cfg.max_shard_bytes = 1024;
  ShardedDocument sd = SplitDocument(*root, cfg, &gen).value();
  EXPECT_EQ(sd.oversized_leaves, 1u);
  size_t oversized = 0;
  for (const DocumentShard& s : sd.shards) {
    if (s.bytes > cfg.max_shard_bytes + 32) {
      ++oversized;
      // The only over-cap shard is the indivisible node, alone.
      EXPECT_EQ(s.content->child_count(), 1u);
    }
  }
  EXPECT_EQ(oversized, 1u);
  TreePtr back = Reassemble(sd, &gen);
  ASSERT_NE(back, nullptr);
  EXPECT_TRUE(TreesEqualUnordered(*root, *back));
}

// --- Content-defined boundaries ---

TEST(ShardingTest, ContentDefinedInsertionDirtiesNeighborsOnly) {
  // The adversarial mutation-shift case: a middle-child insertion. Under
  // greedy cuts every downstream boundary moves (an id avalanche: the
  // delta degrades toward whole-document re-shipment); content-defined
  // boundaries re-synchronize at the next surviving boundary child, so
  // only the insertion's neighborhood dirties. Deliberately a fixed
  // seed, not TestSeed: the exact dirtied count is a property of this
  // document's content (the min-clamp can delay re-sync by a group or
  // two on other content); the seed-robust guarantee is the comparative
  // one, covered below and swept by bench_sharding.
  NodeIdGen gen;
  Rng rng(50);
  TreePtr doc = MakeCatalog(200, &gen, &rng);
  TreePtr extra = TreeNode::Element("product", &gen);
  extra->AddChild(MakeTextElement("name", "wedge", &gen));
  extra->AddChild(MakeTextElement("price", "1", &gen));
  extra->AddChild(MakeTextElement("category", "c0", &gen));
  extra->AddChild(MakeTextElement("desc", rng.Identifier(32), &gen));
  TreePtr grown = doc->CloneSameIds();
  grown->InsertChild(100, extra);
  TreePtr shrunk = doc->CloneSameIds();
  shrunk->RemoveChild(100);

  ShardingConfig cdc;
  cdc.max_shard_bytes = 1024;
  ASSERT_EQ(cdc.boundary, ShardBoundary::kContentDefined);
  ShardingConfig greedy = cdc;
  greedy.boundary = ShardBoundary::kGreedy;

  const ShardedDocument cdc_before = SplitDocument(*doc, cdc, &gen).value();
  const ShardedDocument greedy_before =
      SplitDocument(*doc, greedy, &gen).value();

  // Insertion: O(1) dirtied ids content-defined, an avalanche greedy.
  const size_t cdc_ins =
      DirtiedShardIds(cdc_before, SplitDocument(*grown, cdc, &gen).value())
          .size();
  const size_t greedy_ins =
      DirtiedShardIds(greedy_before,
                      SplitDocument(*grown, greedy, &gen).value())
          .size();
  EXPECT_LE(cdc_ins, 3u);
  EXPECT_GE(greedy_ins, greedy_before.shards.size() / 3);
  EXPECT_LT(cdc_ins, greedy_ins);

  // Deletion behaves the same way.
  const size_t cdc_del =
      DirtiedShardIds(cdc_before, SplitDocument(*shrunk, cdc, &gen).value())
          .size();
  const size_t greedy_del =
      DirtiedShardIds(greedy_before,
                      SplitDocument(*shrunk, greedy, &gen).value())
          .size();
  EXPECT_LE(cdc_del, 3u);
  EXPECT_LT(cdc_del, greedy_del);

  // Both splits still round-trip the grown document exactly.
  for (const ShardingConfig& cfg : {cdc, greedy}) {
    ShardedDocument sd = SplitDocument(*grown, cfg, &gen).value();
    TreePtr back = Reassemble(sd, &gen);
    ASSERT_NE(back, nullptr);
    EXPECT_TRUE(TreesEqualUnordered(*grown, *back));
  }
}

TEST(ShardingTest, ContentDefinedStaysLocalAcrossSeeds) {
  // The seed-robust form of the property: whatever the content, a
  // middle-child insertion under content-defined boundaries dirties a
  // small constant neighborhood (re-sync can cost a couple of groups to
  // the min-clamp), never more than greedy's downstream avalanche.
  NodeIdGen gen;
  Rng rng(TestSeed(52));
  TreePtr doc = MakeCatalog(200, &gen, &rng);
  TreePtr extra = TreeNode::Element("product", &gen);
  extra->AddChild(MakeTextElement("name", "wedge", &gen));
  extra->AddChild(MakeTextElement("desc", rng.Identifier(32), &gen));
  TreePtr grown = doc->CloneSameIds();
  grown->InsertChild(100, extra);

  ShardingConfig cdc;
  cdc.max_shard_bytes = 1024;
  ShardingConfig greedy = cdc;
  greedy.boundary = ShardBoundary::kGreedy;
  const size_t cdc_ins =
      DirtiedShardIds(SplitDocument(*doc, cdc, &gen).value(),
                      SplitDocument(*grown, cdc, &gen).value())
          .size();
  const size_t greedy_ins =
      DirtiedShardIds(SplitDocument(*doc, greedy, &gen).value(),
                      SplitDocument(*grown, greedy, &gen).value())
          .size();
  EXPECT_LE(cdc_ins, 6u);
  EXPECT_LE(cdc_ins, greedy_ins);
}

TEST(ShardingTest, ContentDefinedGroupsRespectMinAndMaxClamps) {
  NodeIdGen gen;
  Rng rng(TestSeed(51));
  TreePtr doc = MakeCatalog(300, &gen, &rng);
  ShardingConfig cfg;
  cfg.max_shard_bytes = 2048;
  const uint64_t min_shard_bytes = 512;  // the min clamp: a quarter of the cap
  ShardedDocument sd = SplitDocument(*doc, cfg, &gen).value();
  ASSERT_GT(sd.shards.size(), 4u);
  for (size_t i = 0; i < sd.shards.size(); ++i) {
    // The clamps act on the encoded size the shard is priced at.
    const uint64_t group_bytes = sd.shards[i].bytes;
    EXPECT_LE(group_bytes, cfg.max_shard_bytes + uint64_t{32});
    // Every group but the trailing remainder reaches the min clamp.
    if (i + 1 < sd.shards.size()) {
      EXPECT_GE(group_bytes, min_shard_bytes);
    }
  }
}

TEST(ShardingTest, AssemblyFailsClosedOnMissingShard) {
  NodeIdGen gen;
  Rng rng(46);
  TreePtr doc = MakeCatalog(64, &gen, &rng);
  ShardingConfig cfg;
  cfg.max_shard_bytes = 1024;
  ShardedDocument sd = SplitDocument(*doc, cfg, &gen).value();
  // Lookup that "loses" the last shard.
  const std::string lost = sd.shards.back().id.ToString();
  TreePtr back = AssembleDocument(
      *sd.manifest,
      [&sd, &lost](const std::string& id) -> TreePtr {
        if (id == lost) return nullptr;
        for (const DocumentShard& s : sd.shards) {
          if (s.id.ToString() == id) return s.content;
        }
        return nullptr;
      },
      &gen);
  EXPECT_EQ(back, nullptr);
  // Non-manifests are rejected outright.
  EXPECT_EQ(AssembleDocument(*doc, [](const std::string&) { return nullptr; },
                             &gen),
            nullptr);
}

// --- Sharded replication through the system ---

struct ShardedPeers {
  AxmlSystem sys{Topology(LinkParams{0.050, 1.0e6})};
  PeerId origin, client;
  Query q;
  uint64_t doc_bytes = 0;

  explicit ShardedPeers(size_t n_products = 200,
                        uint64_t max_shard_bytes = 2048) {
    origin = sys.AddPeer("origin");
    client = sys.AddPeer("client");
    Rng rng(13);
    TreePtr t = MakeCatalog(n_products, sys.peer(origin)->gen(), &rng);
    doc_bytes = SerializeCompact(*t).size();
    EXPECT_TRUE(sys.InstallDocument(origin, "d", t).ok());
    ShardingConfig cfg;
    cfg.max_shard_bytes = max_shard_bytes;
    sys.replicas().set_sharding_config(cfg);
    sys.replicas().set_sharding_enabled(true);
    q = Query::Parse(
            "for $p in input(0)/catalog/product "
            "where $p/price < 900 return <r>{ $p/name }</r>")
            .value();
  }

  ExprPtr Read() const {
    return Expr::Apply(q, client, {Expr::Doc("d", origin)});
  }

  /// Replaces product `i`'s description through the mutation listener
  /// (PutDocument), preserving every other subtree's content.
  void MutateOneProduct(size_t i) {
    Peer* host = sys.peer(origin);
    TreePtr next = host->GetDocument("d")->CloneSameIds();
    TreeNode* product = next->child(i).get();
    TreeNode* desc = nullptr;
    for (const TreePtr& c : product->children()) {
      if (c->label_text() == "desc") desc = c.get();
    }
    ASSERT_NE(desc, nullptr);
    const size_t len = desc->child(0)->text().size();
    desc->child(0)->set_text(std::string(len, '~'));
    host->PutDocument("d", next);
  }
};

EvalOptions CachingOptions() {
  EvalOptions opts;
  opts.use_replica_cache = true;
  return opts;
}

// --- One copy path for both layouts ---

/// One document per layout: below the shard cap it is copied whole,
/// above it as manifest + shards. Everything outside the replica layer
/// must behave the same for both.
struct CopyLayoutCase {
  const char* name;
  size_t products;
  CopyLayout layout;
};

void PrintTo(const CopyLayoutCase& c, std::ostream* os) { *os << c.name; }

class CopyLayoutTest : public ::testing::TestWithParam<CopyLayoutCase> {};

TEST_P(CopyLayoutTest, ColdReadHitMutationAndReReadTakeOnePath) {
  const CopyLayoutCase& c = GetParam();
  ShardedPeers f(c.products);
  ASSERT_EQ(f.sys.replicas().OriginShards(f.origin, "d") != nullptr,
            c.layout == CopyLayout::kSharded);
  Evaluator plain(&f.sys);
  Evaluator ev(&f.sys, CachingOptions());

  // Cold read: crosses the wire and leaves a complete copy.
  f.sys.network().mutable_stats()->Reset();
  auto cold = ev.Eval(f.client, f.Read());
  ASSERT_TRUE(cold.ok());
  EXPECT_GT(f.sys.network().stats().remote_bytes(), 0u);
  ASSERT_TRUE(f.sys.replicas().HasFresh(f.client, f.origin, "d"));

  // Hit: served locally, 0 wire bytes.
  f.sys.network().mutable_stats()->Reset();
  auto hit = ev.Eval(f.client, f.Read());
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(f.sys.network().stats().remote_bytes(), 0u);
  EXPECT_TRUE(ResultsEqual(cold->results, hit->results));

  // ReadFresh hands out a private instance, never a cache blob, and
  // editing it leaves every blob's digest as it was.
  const TransferCache* cache = f.sys.replicas().FindCache(f.client);
  ASSERT_NE(cache, nullptr);
  std::vector<std::pair<TreePtr, ContentDigest>> blobs;
  for (const ReplicaKey& k : cache->KeysForDoc(f.origin, "d")) {
    blobs.emplace_back(cache->Peek(k)->tree, DigestOf(*cache->Peek(k)->tree));
  }
  ASSERT_FALSE(blobs.empty());
  CopyLayout layout = CopyLayout::kWhole;
  TreePtr fresh = f.sys.replicas().ReadFresh(f.client, f.origin, "d", &layout);
  ASSERT_NE(fresh, nullptr);
  EXPECT_EQ(layout, c.layout);
  EXPECT_TRUE(TreesEqualUnordered(*fresh,
                                  *f.sys.peer(f.origin)->GetDocument("d")));
  for (const auto& [blob, digest] : blobs) EXPECT_NE(fresh, blob);
  fresh->AddChild(
      MakeTextElement("graffiti", "x", f.sys.peer(f.client)->gen()));
  for (const auto& [blob, digest] : blobs) {
    EXPECT_EQ(DigestOf(*blob), digest);
  }

  // Mutation, then re-read: the result is the new version's.
  f.MutateOneProduct(1);
  auto base = plain.Eval(f.client, f.Read());
  ASSERT_TRUE(base.ok());
  f.sys.network().mutable_stats()->Reset();
  auto reread = ev.Eval(f.client, f.Read());
  ASSERT_TRUE(reread.ok());
  EXPECT_GT(f.sys.network().stats().remote_bytes(), 0u);
  EXPECT_TRUE(ResultsEqual(base->results, reread->results));
  EXPECT_TRUE(f.sys.replicas().HasFresh(f.client, f.origin, "d"));
}

INSTANTIATE_TEST_SUITE_P(
    BothLayouts, CopyLayoutTest,
    ::testing::Values(CopyLayoutCase{"whole", 4, CopyLayout::kWhole},
                      CopyLayoutCase{"sharded", 200, CopyLayout::kSharded}),
    [](const ::testing::TestParamInfo<CopyLayoutCase>& param_info) {
      return std::string(param_info.param.name);
    });

// --- A copy whose document crosses the shard cap ---

/// A copy lands in one layout, then the origin rewrites the document
/// across the shard cap. The re-read must replace the copy, not leave
/// the old one installed beside it: under kLazy nothing is dropped at
/// mutation time, so only the re-read's own lookup can catch it.
struct CapCrossingCase {
  const char* name;
  RefreshPolicy refresh;
  size_t before;  ///< catalog products at the first read
  size_t after;   ///< catalog products after the rewrite
};

void PrintTo(const CapCrossingCase& c, std::ostream* os) { *os << c.name; }

class CapCrossingTest : public ::testing::TestWithParam<CapCrossingCase> {};

TEST_P(CapCrossingTest, ReReadReplacesTheInstalledCopy) {
  const CapCrossingCase& c = GetParam();
  ShardedPeers f(c.before);
  ReplicaManager& rm = f.sys.replicas();
  rm.set_refresh_policy(c.refresh);
  f.sys.generics().AddDocumentMember("cls", ClassMember{"d", f.origin});
  Evaluator ev(&f.sys, CachingOptions());
  const ExprPtr read = Expr::Doc("d", f.origin);

  ASSERT_TRUE(ev.Eval(f.client, read).ok());
  ASSERT_TRUE(rm.HasFreshInstalled(f.client, f.origin, "d"));
  const bool sharded_before = rm.OriginShards(f.origin, "d") != nullptr;

  Peer* host = f.sys.peer(f.origin);
  Rng rng(29);
  host->PutDocument("d", MakeCatalog(c.after, host->gen(), &rng));
  f.sys.RunToQuiescence();
  ASSERT_NE(rm.OriginShards(f.origin, "d") != nullptr, sharded_before);
  const TreePtr truth = host->GetDocument("d");

  auto reread = ev.Eval(f.client, read);
  ASSERT_TRUE(reread.ok());
  ASSERT_EQ(reread->results.size(), 1u);
  EXPECT_TRUE(TreesEqualUnordered(*reread->results[0], *truth));
  f.sys.RunToQuiescence();

  // A copy called fresh and installed is the origin's current content.
  if (rm.HasFreshInstalled(f.client, f.origin, "d")) {
    TreePtr installed = f.sys.peer(f.client)->GetDocument("d");
    ASSERT_NE(installed, nullptr);
    EXPECT_TRUE(TreesEqualUnordered(*installed, *truth));
  }
  // So is what a generic read at the client returns, whichever member
  // serves it.
  auto generic = ev.Eval(f.client, Expr::GenericDoc("cls"));
  ASSERT_TRUE(generic.ok());
  ASSERT_EQ(generic->results.size(), 1u);
  EXPECT_TRUE(TreesEqualUnordered(*generic->results[0], *truth));

  // One entry per document: every other resident key is a data shard.
  size_t entries = 0;
  for (const ReplicaKey& k :
       rm.FindCache(f.client)->KeysForDoc(f.origin, "d")) {
    if (!k.is_shard_data()) ++entries;
  }
  EXPECT_LE(entries, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    BothDirections, CapCrossingTest,
    ::testing::Values(
        CapCrossingCase{"drop_grow", RefreshPolicy::kDrop, 4, 200},
        CapCrossingCase{"drop_shrink", RefreshPolicy::kDrop, 200, 4},
        CapCrossingCase{"lazy_grow", RefreshPolicy::kLazy, 4, 200},
        CapCrossingCase{"lazy_shrink", RefreshPolicy::kLazy, 200, 4},
        CapCrossingCase{"eager_grow", RefreshPolicy::kEagerRefresh, 4, 200},
        CapCrossingCase{"eager_shrink", RefreshPolicy::kEagerRefresh, 200,
                        4}),
    [](const ::testing::TestParamInfo<CapCrossingCase>& param_info) {
      return std::string(param_info.param.name);
    });

TEST(ShardedReplicaTest, ReadRoundTripsAndSecondReadIsLocal) {
  ShardedPeers f;
  // Baseline result set from the non-caching semantics.
  Evaluator plain(&f.sys);
  auto base = plain.Eval(f.client, f.Read());
  ASSERT_TRUE(base.ok());

  Evaluator ev(&f.sys, CachingOptions());
  f.sys.network().mutable_stats()->Reset();
  auto first = ev.Eval(f.client, f.Read());
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(ResultsEqual(base->results, first->results));
  EXPECT_GT(f.sys.network().stats().remote_bytes(), 0u);

  // The landed delta installed + advertised a complete copy.
  EXPECT_TRUE(f.sys.replicas().HasFresh(f.client, f.origin, "d"));
  EXPECT_TRUE(f.sys.replicas().IsCachedCopy(f.client, "d"));
  EXPECT_TRUE(f.sys.catalog()->IsAdvertised(ResourceKind::kDocument, "d",
                                            f.client));

  // Second read: assembled from resident shards, zero wire bytes.
  f.sys.network().mutable_stats()->Reset();
  auto second = ev.Eval(f.client, f.Read());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(f.sys.network().stats().remote_bytes(), 0u);
  EXPECT_TRUE(ResultsEqual(base->results, second->results));
  EXPECT_GE(f.sys.replicas().shard_stats().full_hits, 1u);
}

TEST(ShardedReplicaTest, MutationShipsOnlyTheDirtyShard) {
  ShardedPeers f;
  f.sys.replicas().set_refresh_policy(RefreshPolicy::kEagerRefresh);
  Evaluator ev(&f.sys, CachingOptions());
  ASSERT_TRUE(ev.Eval(f.client, f.Read()).ok());  // warm copy
  ASSERT_TRUE(f.sys.replicas().HasFresh(f.client, f.origin, "d"));

  f.sys.network().mutable_stats()->Reset();
  f.MutateOneProduct(120);
  f.sys.RunToQuiescence();  // eager refresh lands the delta

  const uint64_t delta = f.sys.network().stats().remote_bytes();
  EXPECT_GT(delta, 0u);
  // The acceptance bar: a single-subtree mutation moves < 25% of what a
  // full-document refresh would.
  EXPECT_LT(delta, f.doc_bytes / 4);
  EXPECT_TRUE(f.sys.replicas().HasFresh(f.client, f.origin, "d"));
  EXPECT_GE(f.sys.replicas().shard_stats().shards_reused, 1u);

  // The refreshed copy serves the post-mutation content locally.
  Evaluator plain(&f.sys);
  auto base = plain.Eval(f.client, f.Read());
  ASSERT_TRUE(base.ok());
  f.sys.network().mutable_stats()->Reset();
  auto read = ev.Eval(f.client, f.Read());
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(f.sys.network().stats().remote_bytes(), 0u);
  EXPECT_TRUE(ResultsEqual(base->results, read->results));
}

TEST(ShardedReplicaTest, BudgetSmallerThanDocumentStillHits) {
  ShardedPeers f;
  // The cache can hold roughly a third of the document's shards.
  f.sys.replicas().set_default_byte_budget(f.doc_bytes / 3);
  Evaluator ev(&f.sys, CachingOptions());

  auto first = ev.Eval(f.client, f.Read());
  ASSERT_TRUE(first.ok());
  const TransferCache* cache = f.sys.replicas().FindCache(f.client);
  ASSERT_NE(cache, nullptr);
  // Partial copy: some shards resident, the whole document not fresh.
  EXPECT_GT(cache->resident_bytes(), 0u);
  EXPECT_FALSE(f.sys.replicas().HasFresh(f.client, f.origin, "d"));

  // The second read reuses the resident shards: non-zero cache hits and
  // measurably fewer wire bytes than a cold full transfer.
  f.sys.network().mutable_stats()->Reset();
  f.sys.replicas().ResetStats();
  auto second = ev.Eval(f.client, f.Read());
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(ResultsEqual(first->results, second->results));
  const TransferCacheStats total = f.sys.replicas().TotalStats();
  EXPECT_GT(total.hits, 0u);
  EXPECT_GE(f.sys.replicas().shard_stats().partial_hits, 1u);
  EXPECT_LT(f.sys.network().stats().remote_bytes(), f.doc_bytes);

  // Sanity: with sharding off the same budget can never cache the
  // document at all — every read pays the full transfer.
  f.sys.replicas().set_sharding_enabled(false);
  f.sys.replicas().DropAllCopies();
  f.sys.replicas().ResetStats();
  Evaluator unsharded(&f.sys, CachingOptions());
  ASSERT_TRUE(unsharded.Eval(f.client, f.Read()).ok());
  ASSERT_TRUE(unsharded.Eval(f.client, f.Read()).ok());
  EXPECT_EQ(f.sys.replicas().TotalStats().hits, 0u);
}

TEST(ShardedReplicaTest, CostModelPricesPartialCopies) {
  ShardedPeers f;
  Evaluator ev(&f.sys, CachingOptions());
  ASSERT_TRUE(ev.Eval(f.client, f.Read()).ok());  // complete copy

  CostModel cached(&f.sys, /*assume_replica_cache=*/true);
  CostModel plain(&f.sys, /*assume_replica_cache=*/false);
  ExprPtr doc = Expr::Doc("d", f.origin);
  // Complete copy: free under the cache assumption.
  EXPECT_EQ(cached.Estimate(f.client, doc).remote_bytes, 0.0);
  EXPECT_GT(plain.Estimate(f.client, doc).remote_bytes, 0.0);

  // Mutate: the manifest goes stale but the data shards survive, so the
  // partial copy prices between free and the full transfer.
  f.MutateOneProduct(10);
  const double partial = cached.Estimate(f.client, doc).remote_bytes;
  const double full = plain.Estimate(f.client, doc).remote_bytes;
  EXPECT_GT(partial, 0.0);
  EXPECT_LT(partial, full / 4);
}

TEST(ShardedReplicaTest, FreshWholeCopyIsPreferredOverReSharding) {
  ShardedPeers f;
  // Cache a whole-document copy first, with sharding off.
  f.sys.replicas().set_sharding_enabled(false);
  Evaluator ev(&f.sys, CachingOptions());
  ASSERT_TRUE(ev.Eval(f.client, f.Read()).ok());
  const TransferCache* cache = f.sys.replicas().FindCache(f.client);
  ASSERT_NE(cache, nullptr);
  const TransferCache::Entry* whole = cache->Peek(ReplicaKey{f.origin, "d"});
  ASSERT_NE(whole, nullptr);
  ASSERT_EQ(whole->origin_version, f.sys.replicas().Version(f.origin, "d"));

  // Turning sharding on must not strand that copy: the cost model still
  // prices the read at zero, so the evaluator must serve it instead of
  // re-fetching the document as shards.
  f.sys.replicas().set_sharding_enabled(true);
  CostModel cached(&f.sys, /*assume_replica_cache=*/true);
  EXPECT_EQ(cached.Estimate(f.client, Expr::Doc("d", f.origin)).remote_bytes,
            0.0);
  f.sys.network().mutable_stats()->Reset();
  ASSERT_TRUE(ev.Eval(f.client, f.Read()).ok());
  EXPECT_EQ(f.sys.network().stats().remote_bytes(), 0u);
}

// The layout decision is memoized per document version, the "ships
// whole" answer included: gaining a service call stops sharding at the
// next version, and removing it shards again.
TEST(ShardedReplicaTest, ServiceCallTogglesShardingPerVersion) {
  ShardedPeers f;
  ReplicaManager& rm = f.sys.replicas();
  Peer* host = f.sys.peer(f.origin);
  ASSERT_NE(rm.OriginShards(f.origin, "d"), nullptr);

  TreePtr with_call = host->GetDocument("d")->CloneSameIds();
  ServiceCallSpec spec;
  spec.provider = "origin";
  spec.service = "svc";
  with_call->AddChild(BuildServiceCall(spec, host->gen()));
  host->PutDocument("d", with_call);
  EXPECT_EQ(rm.OriginShards(f.origin, "d"), nullptr);
  EXPECT_EQ(rm.OriginShards(f.origin, "d"), nullptr);  // from the memo

  TreePtr without = with_call->CloneSameIds();
  without->RemoveChild(without->child_count() - 1);
  host->PutDocument("d", without);
  const ShardedDocument* sd = rm.OriginShards(f.origin, "d");
  ASSERT_NE(sd, nullptr);
  EXPECT_EQ(rm.OriginShards(f.origin, "d"), sd);
  EXPECT_TRUE(TreesEqualUnordered(*Reassemble(*sd, host->gen()), *without));
}

TEST(ShardedReplicaTest, DuplicateShardIdsCrossTheWireOnce) {
  AxmlSystem sys{Topology(LinkParams{0.050, 1.0e6})};
  const PeerId origin = sys.AddPeer("origin");
  const PeerId client = sys.AddPeer("client");
  // 64 byte-identical products: groups repeat, so shard ids collide —
  // the content-addressed win is shipping the repeated content once.
  NodeIdGen* gen = sys.peer(origin)->gen();
  TreePtr doc = TreeNode::Element("catalog", gen);
  for (int i = 0; i < 64; ++i) {
    TreePtr p = TreeNode::Element("product", gen);
    p->AddChild(MakeTextElement("name", "same", gen));
    p->AddChild(MakeTextElement("price", "100", gen));
    p->AddChild(MakeTextElement("desc", std::string(64, 'x'), gen));
    doc->AddChild(std::move(p));
  }
  const uint64_t doc_bytes = SerializeCompact(*doc).size();
  ASSERT_TRUE(sys.InstallDocument(origin, "d", doc).ok());
  ShardingConfig cfg;
  cfg.max_shard_bytes = 512;
  sys.replicas().set_sharding_config(cfg);
  sys.replicas().set_sharding_enabled(true);

  // The split itself: few distinct ids, exact reassembly.
  const ShardedDocument* sd = sys.replicas().OriginShards(origin, "d");
  ASSERT_NE(sd, nullptr);
  std::set<std::string> distinct;
  for (const DocumentShard& s : sd->shards) distinct.insert(s.id.ToString());
  ASSERT_GT(sd->shards.size(), distinct.size());

  Evaluator ev(&sys, CachingOptions());
  Query q = Query::Parse(
                "for $p in input(0)/catalog/product return <r>{ $p/name }</r>")
                .value();
  sys.network().mutable_stats()->Reset();
  auto out = ev.Eval(client, Expr::Apply(q, client, {Expr::Doc("d", origin)}));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->results.size(), 64u);
  // Wire bytes: the duplicated content shipped once, not once per
  // manifest reference.
  EXPECT_LT(sys.network().stats().remote_bytes(), doc_bytes / 4);
  // And the copy is complete: the next read assembles locally.
  sys.network().mutable_stats()->Reset();
  ASSERT_TRUE(
      ev.Eval(client, Expr::Apply(q, client, {Expr::Doc("d", origin)})).ok());
  EXPECT_EQ(sys.network().stats().remote_bytes(), 0u);
}

// --- Shard-level subscriptions ---

/// Installs partial sharded copies at two readers — `a` gets the first
/// half of the shards, `b` the second half — via the landing path the
/// wire uses (InsertCopy), so both subscribe shard-granularly.
struct PartialHolders {
  AxmlSystem sys{Topology(LinkParams{0.050, 1.0e6})};
  PeerId origin, a, b;
  std::vector<std::string> a_ids, b_ids;

  PartialHolders() {
    origin = sys.AddPeer("origin");
    a = sys.AddPeer("a");
    b = sys.AddPeer("b");
    Rng rng(13);
    TreePtr t = MakeCatalog(200, sys.peer(origin)->gen(), &rng);
    EXPECT_TRUE(sys.InstallDocument(origin, "d", t).ok());
    ShardingConfig cfg;
    cfg.max_shard_bytes = 2048;
    sys.replicas().set_sharding_config(cfg);
    sys.replicas().set_sharding_enabled(true);

    const ShardedDocument* sd = sys.replicas().OriginShards(origin, "d");
    if (sd == nullptr || sd->shards.size() < 4) {
      ADD_FAILURE() << "fixture document did not shard as expected";
      return;
    }
    const uint64_t version = sys.replicas().Version(origin, "d");
    const size_t half = sd->shards.size() / 2;
    auto seed = [&](PeerId reader, size_t from, size_t to,
                    std::vector<std::string>* ids) {
      std::vector<DocumentShard> subset;
      for (size_t i = from; i < to; ++i) {
        DocumentShard s;
        s.id = sd->shards[i].id;
        s.bytes = sd->shards[i].bytes;
        s.content = sd->shards[i].content->Clone(sys.peer(reader)->gen());
        ids->push_back(s.id.ToString());
        subset.push_back(std::move(s));
      }
      ASSERT_TRUE(sys.replicas().InsertCopy(
          reader, origin, "d",
          {.tree = sd->manifest->Clone(sys.peer(reader)->gen()),
           .shards = std::move(subset)},
          version));
    };
    seed(a, 0, half, &a_ids);
    seed(b, half, sd->shards.size(), &b_ids);
  }

  /// Same-size overwrite of product `i`'s description.
  void MutateProduct(size_t i) {
    Peer* host = sys.peer(origin);
    TreePtr next = host->GetDocument("d")->CloneSameIds();
    TreeNode* product = next->child(i).get();
    for (const TreePtr& c : product->children()) {
      if (c->label_text() == "desc") {
        TreeNode* text = c->child(0).get();
        text->set_text(std::string(text->text().size(), '~'));
        break;
      }
    }
    host->PutDocument("d", next);
  }
};

TEST(ShardSubscriptionTest, SubscriptionsMirrorResidentShards) {
  PartialHolders f;
  const SubscriptionTable& subs = f.sys.replicas().subscriptions();
  // Each holder is subscribed to exactly what it has resident: its
  // document entry (the manifest) plus its own half of the data shards.
  for (PeerId reader : {f.a, f.b}) {
    const TransferCache* cache = f.sys.replicas().FindCache(reader);
    ASSERT_NE(cache, nullptr);
    for (const ReplicaKey& key : cache->Keys()) {
      EXPECT_TRUE(subs.IsSubscribed(key, reader)) << key.ToString();
    }
  }
  EXPECT_TRUE(subs.IsSubscribed(ReplicaKey{f.origin, "d"}, f.a));
  for (const std::string& id : f.b_ids) {
    EXPECT_TRUE(subs.IsSubscribed(ReplicaKey{f.origin, "d", id}, f.b));
    EXPECT_FALSE(subs.IsSubscribed(ReplicaKey{f.origin, "d", id}, f.a));
  }
}

TEST(ShardSubscriptionTest, MutationNotifiesOnlyHoldersOfTheDirtyShard) {
  // The acceptance property: a one-shard mutation notifies holders of
  // *that shard* — the partial holder caching only other shards is
  // skipped entirely, keeps every entry, and is never advertised, so no
  // stale read can route to it.
  PartialHolders f;
  f.sys.network().mutable_stats()->Reset();
  f.sys.replicas().ResetStats();
  f.MutateProduct(0);  // lives in the first shard: a's half
  f.sys.RunToQuiescence();

  const SubscriptionStats& ss = f.sys.replicas().subscription_stats();
  EXPECT_EQ(ss.notifies, 1u);
  EXPECT_EQ(ss.shard_notifies, 1u);
  EXPECT_EQ(ss.doc_notifies, 0u);
  EXPECT_EQ(ss.clean_skips, 1u);
  EXPECT_EQ(f.sys.network().stats().notify_messages(), 1u);

  // a lost its manifest entry and the dirty shard; its live shards
  // stayed.
  const TransferCache* cache_a = f.sys.replicas().FindCache(f.a);
  EXPECT_EQ(cache_a->Peek(ReplicaKey{f.origin, "d"}), nullptr);
  EXPECT_EQ(cache_a->Peek(ReplicaKey{f.origin, "d", f.a_ids[0]}), nullptr);
  for (size_t i = 1; i < f.a_ids.size(); ++i) {
    EXPECT_NE(cache_a->Peek(ReplicaKey{f.origin, "d", f.a_ids[i]}), nullptr);
  }
  // b was untouched: manifest entry (stale, version-checked on next
  // lookup) and every data shard still resident and subscribed.
  const TransferCache* cache_b = f.sys.replicas().FindCache(f.b);
  EXPECT_NE(cache_b->Peek(ReplicaKey{f.origin, "d"}), nullptr);
  for (const std::string& id : f.b_ids) {
    EXPECT_NE(cache_b->Peek(ReplicaKey{f.origin, "d", id}), nullptr);
    EXPECT_TRUE(f.sys.replicas().subscriptions().IsSubscribed(
        ReplicaKey{f.origin, "d", id}, f.b));
  }

  // And b's next read is a delta that reuses its residents — never a
  // stale result.
  Evaluator plain(&f.sys);
  Evaluator ev(&f.sys, CachingOptions());
  Query q = Query::Parse(
                "for $p in input(0)/catalog/product return <r>{ $p/name }</r>")
                .value();
  auto base = plain.Eval(f.b, Expr::Apply(q, f.b, {Expr::Doc("d", f.origin)}));
  ASSERT_TRUE(base.ok());
  auto read = ev.Eval(f.b, Expr::Apply(q, f.b, {Expr::Doc("d", f.origin)}));
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(ResultsEqual(base->results, read->results));
  EXPECT_GE(f.sys.replicas().shard_stats().shards_reused, f.b_ids.size());
}

TEST(ShardSubscriptionTest, InstalledCompleteCopyIsAlwaysNotified) {
  // A complete, installed copy is advertised and readable by name, so
  // any mutation — even one whose dirty shard the test never seeded
  // elsewhere — must notify it doc-wide and retract it synchronously.
  ShardedPeers f;
  Evaluator ev(&f.sys, CachingOptions());
  ASSERT_TRUE(ev.Eval(f.client, f.Read()).ok());
  ASSERT_TRUE(f.sys.replicas().IsCachedCopy(f.client, "d"));

  f.sys.replicas().ResetStats();
  f.MutateOneProduct(10);
  const SubscriptionStats& ss = f.sys.replicas().subscription_stats();
  EXPECT_EQ(ss.notifies, 1u);
  EXPECT_EQ(ss.doc_notifies, 1u);
  // Synchronous coherence, exactly as before shard-granular fan-out.
  EXPECT_FALSE(f.sys.replicas().IsCachedCopy(f.client, "d"));
  EXPECT_FALSE(f.sys.catalog()->IsAdvertised(ResourceKind::kDocument, "d",
                                             f.client));
}

// --- Cost-model pricing (oversized shards, nested manifests) ---

TEST(ShardedReplicaTest, ColdDeltaNeverPricesAboveWholeTransfer) {
  // Shard wrappers and the manifest carry overhead, so a cold reader's
  // delta (manifest + every shard) physically exceeds the raw document
  // size — but a *price* above the whole-document transfer would make
  // the optimizer prefer cold peers over partial holders. The model
  // clamps.
  ShardedPeers f;
  // An unbounded whole transfer leaves the raw delta unclamped.
  const double delta = f.sys.replicas().ReadTransferBytes(
      f.client, f.origin, "d", std::numeric_limits<double>::infinity());
  // The raw delta really is bigger than the encoded whole-document
  // transfer it competes with (per-shard envelopes + the manifest).
  const uint64_t whole_encoded =
      wire::EncodedTreeSize(*f.sys.peer(f.origin)->GetDocument("d"));
  ASSERT_GT(delta, static_cast<double>(whole_encoded));
  CostModel cached(&f.sys, /*assume_replica_cache=*/true);
  CostModel plain(&f.sys, /*assume_replica_cache=*/false);
  ExprPtr doc = Expr::Doc("d", f.origin);
  EXPECT_LE(cached.Estimate(f.client, doc).remote_bytes,
            plain.Estimate(f.client, doc).remote_bytes);
}

TEST(ShardedReplicaTest, NestedManifestDocumentReplicatesEndToEnd) {
  // A document whose size lives in one huge child replicates through
  // the full sharded path: recursive manifest on the wire, capped
  // shards in the cache, exact reads, delta refresh after mutation.
  AxmlSystem sys{Topology(LinkParams{0.050, 1.0e6})};
  const PeerId origin = sys.AddPeer("origin");
  const PeerId client = sys.AddPeer("client");
  NodeIdGen* gen = sys.peer(origin)->gen();
  Rng rng(23);
  TreePtr root = TreeNode::Element("wrapper", gen);
  root->AddChild(MakeCatalog(150, gen, &rng));
  const uint64_t doc_bytes = SerializeCompact(*root).size();
  ASSERT_TRUE(sys.InstallDocument(origin, "d", root).ok());
  ShardingConfig cfg;
  cfg.max_shard_bytes = 2048;
  sys.replicas().set_sharding_config(cfg);
  sys.replicas().set_sharding_enabled(true);
  ASSERT_NE(sys.replicas().OriginShards(origin, "d"), nullptr);

  Evaluator plain(&sys);
  Evaluator ev(&sys, CachingOptions());
  Query q = Query::Parse(
                "for $p in input(0)/wrapper/catalog/product "
                "where $p/price < 900 return <r>{ $p/name }</r>")
                .value();
  ExprPtr read = Expr::Apply(q, client, {Expr::Doc("d", origin)});
  auto base = plain.Eval(client, read);
  ASSERT_TRUE(base.ok());
  auto first = ev.Eval(client, read);
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(ResultsEqual(base->results, first->results));
  EXPECT_TRUE(sys.replicas().HasFresh(client, origin, "d"));

  // Second read: fully local.
  sys.network().mutable_stats()->Reset();
  ASSERT_TRUE(ev.Eval(client, read).ok());
  EXPECT_EQ(sys.network().stats().remote_bytes(), 0u);

  // Mutation under eager refresh ships a small delta, not the document.
  sys.replicas().set_refresh_policy(RefreshPolicy::kEagerRefresh);
  sys.network().mutable_stats()->Reset();
  Peer* host = sys.peer(origin);
  TreePtr next = host->GetDocument("d")->CloneSameIds();
  TreeNode* catalog = next->child(0).get();
  TreeNode* desc = nullptr;
  for (const TreePtr& c : catalog->child(75)->children()) {
    if (c->label_text() == "desc") desc = c.get();
  }
  ASSERT_NE(desc, nullptr);
  desc->child(0)->set_text(std::string(desc->child(0)->text().size(), '!'));
  host->PutDocument("d", next);
  sys.RunToQuiescence();
  EXPECT_GT(sys.network().stats().remote_bytes(), 0u);
  EXPECT_LT(sys.network().stats().remote_bytes(), doc_bytes / 4);
  EXPECT_TRUE(sys.replicas().HasFresh(client, origin, "d"));
  auto after = ev.Eval(client, read);
  ASSERT_TRUE(after.ok());
  auto truth = plain.Eval(client, read);
  ASSERT_TRUE(truth.ok());
  EXPECT_TRUE(ResultsEqual(truth->results, after->results));
}

TEST(ShardedReplicaTest, BatchedNotificationsShareOneWireMessage) {
  AxmlSystem sys{Topology(LinkParams{0.010, 1.0e6})};
  const PeerId origin = sys.AddPeer("origin");
  const PeerId reader = sys.AddPeer("reader");
  Rng rng(9);
  constexpr int kDocs = 5;
  for (int i = 0; i < kDocs; ++i) {
    ASSERT_TRUE(sys.InstallDocument(origin, StrCat("d", i),
                                    MakeCatalog(8, sys.peer(origin)->gen(),
                                                &rng))
                    .ok());
  }
  Evaluator ev(&sys, CachingOptions());
  Query q = Query::Parse(
                "for $p in input(0)/catalog/product return <r>{ $p/name }</r>")
                .value();
  for (int i = 0; i < kDocs; ++i) {
    ASSERT_TRUE(
        ev.Eval(reader,
                Expr::Apply(q, reader, {Expr::Doc(StrCat("d", i), origin)}))
            .ok());
    ASSERT_TRUE(sys.replicas().HasFresh(reader, origin, StrCat("d", i)));
  }

  // One event-loop turn mutates every document: one wire message per
  // (origin, holder) pair, carrying all five keys.
  sys.network().mutable_stats()->Reset();
  sys.replicas().ResetStats();
  {
    NotifyBatch batch(&sys.replicas());
    for (int i = 0; i < kDocs; ++i) {
      sys.peer(origin)->PutDocument(
          StrCat("d", i),
          MakeCatalog(8, sys.peer(origin)->gen(), &rng));
    }
  }
  sys.RunToQuiescence();
  const SubscriptionStats& ss = sys.replicas().subscription_stats();
  EXPECT_EQ(ss.notifies, static_cast<uint64_t>(kDocs));
  EXPECT_EQ(ss.batched, static_cast<uint64_t>(kDocs - 1));
  EXPECT_EQ(sys.network().stats().notify_messages(), 1u);
  // The batched message is priced at exactly its encoded size: one
  // envelope carrying all five keys — bigger than a lone notification
  // but far smaller than five of them.
  wire::NotifyBatch expected{origin.index(), {}};
  for (int i = 0; i < kDocs; ++i) {
    expected.keys.push_back({StrCat("d", i), ""});
  }
  EXPECT_EQ(sys.network().stats().notify_bytes(),
            wire::EncodeNotifyBatch(expected).size());
  // Coherence was still synchronous: every copy dropped at mutation.
  for (int i = 0; i < kDocs; ++i) {
    EXPECT_FALSE(sys.replicas().HasFresh(reader, origin, StrCat("d", i)));
  }
}

}  // namespace
}  // namespace axml
