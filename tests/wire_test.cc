// Model tests for the binary wire format (src/xml/wire.h).
//
// Three contracts, each seeded from AXML_TEST_SEED so CI's 5-seed
// matrix turns any failure into a pinned one-line repro:
//
//   1. Round trip: random trees, shipments, notify batches, lease
//      renewals, digest exchanges and catalog messages decode back to
//      the identical canonical form (trees) / field-identical struct
//      (messages).
//   2. Canonical stability: unordered-equal trees — and only they —
//      encode byte-identically, the property the content-addressed
//      blob store and shard ids price against. On the same trees, the
//      Merkle walk's node sizes plus header and label table add up to
//      the encoded size, the measure the splitter caps shards by.
//   3. Robustness: truncations and random byte corruptions of valid
//      buffers are rejected with a Status — never a crash — pinned by
//      a fuzz-ish mutation loop.

#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/str_util.h"
#include "test_util.h"
#include "xml/digest.h"
#include "xml/tree_equal.h"
#include "xml/wire.h"

namespace axml {
namespace {

using testing::MakeCatalog;
using testing::MakeRandomTree;
using testing::TestSeed;

/// The blob size the Merkle walk's bookkeeping predicts for `t`: header
/// + label table (count varint, then each distinct label length-prefixed)
/// + the root's `bytes`. Exact while `t` has fewer than 128 labels.
uint64_t WalkedBlobSize(const TreeNode& t) {
  std::set<std::string> labels;
  std::function<void(const TreeNode&)> collect = [&](const TreeNode& n) {
    if (!n.is_element()) return;
    labels.insert(n.label_text());
    for (const TreePtr& c : n.children()) collect(*c);
  };
  collect(t);
  std::string table;
  wire::AppendVarint(labels.size(), &table);
  for (const std::string& label : labels) {
    wire::AppendLengthPrefixed(label, &table);
  }
  return wire::kHeaderBytes + table.size() + MerkleTree(t).bytes;
}

TEST(WireModelTest, HeaderCarriesVersionAndClass) {
  NodeIdGen gen;
  TreePtr t = MakeTextElement("a", "x", &gen);
  const std::string blob = wire::EncodeTree(*t);
  ASSERT_GE(blob.size(), 2u);
  EXPECT_EQ(static_cast<uint8_t>(blob[0]), wire::kWireVersion);
  EXPECT_EQ(static_cast<uint8_t>(blob[1]),
            static_cast<uint8_t>(wire::MessageClass::kTree));
  const wire::Payload p(blob);
  EXPECT_EQ(p.message_class(), wire::MessageClass::kTree);
  EXPECT_EQ(p.size(), blob.size());
}

TEST(WireModelTest, TreeRoundTripPreservesCanonicalForm) {
  Rng rng(TestSeed(0x717E));
  NodeIdGen gen;
  NodeIdGen dest_gen(PeerId(7));
  for (int i = 0; i < 200; ++i) {
    TreePtr t = rng.Bernoulli(0.5)
                    ? MakeRandomTree(1 + rng.Index(40), &gen, &rng)
                    : MakeCatalog(1 + rng.Index(12), &gen, &rng);
    const std::string blob = wire::EncodeTree(*t);
    auto decoded = wire::DecodeTree(blob, &dest_gen);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_EQ(CanonicalForm(*decoded.value()), CanonicalForm(*t));
    EXPECT_TRUE(TreesEqualUnordered(*decoded.value(), *t));
    // Copy semantics (§3.2): the decoded tree owns fresh ids minted at
    // the destination, never the sender's.
    EXPECT_EQ(decoded.value()->id().minted_by(), PeerId(7));
  }
}

TEST(WireModelTest, UnorderedEqualTreesEncodeByteIdentically) {
  Rng rng(TestSeed(0xCA1));
  NodeIdGen gen;
  for (int i = 0; i < 50; ++i) {
    TreePtr t = MakeCatalog(2 + rng.Index(8), &gen, &rng);
    // A sibling-permuted clone: same unordered tree, different
    // insertion order.
    TreePtr shuffled = t->CloneSameIds();
    for (size_t round = 0; round < 3; ++round) {
      const size_t n = shuffled->child_count();
      if (n < 2) break;
      const size_t a = rng.Index(n);
      TreePtr moved = shuffled->child(a);
      shuffled->RemoveChild(a);
      shuffled->InsertChild(rng.Index(shuffled->child_count() + 1), moved);
    }
    ASSERT_TRUE(TreesEqualUnordered(*t, *shuffled));
    EXPECT_EQ(wire::EncodeTree(*t), wire::EncodeTree(*shuffled));
    EXPECT_EQ(wire::EncodedTreeSize(*t), wire::EncodeTree(*t).size());
  }
  // And only those: across one-edit near misses (duplicate siblings
  // included, whose digests tie), blobs match exactly when the
  // CanonicalForm oracle says the trees are equal.
  for (int i = 0; i < 40; ++i) {
    TreePtr t = i % 2 == 0 ? MakeRandomTree(2 + rng.Index(30), &gen, &rng)
                           : MakeCatalog(1 + rng.Index(6), &gen, &rng, 4);
    EXPECT_EQ(WalkedBlobSize(*t), wire::EncodedTreeSize(*t));
    for (const testing::NearMiss& m : testing::MakeNearMisses(t, &gen, &rng)) {
      const bool equal = CanonicalForm(*m.a) == CanonicalForm(*m.b);
      EXPECT_EQ(wire::EncodeTree(*m.a) == wire::EncodeTree(*m.b), equal)
          << m.edit;
      // The walk's sizes agree with the encoder on every variant.
      EXPECT_EQ(WalkedBlobSize(*m.a), wire::EncodedTreeSize(*m.a)) << m.edit;
      EXPECT_EQ(WalkedBlobSize(*m.b), wire::EncodedTreeSize(*m.b)) << m.edit;
    }
  }
}

void ExpectSameEntry(const wire::CatalogMessage::Entry& a,
                     const wire::CatalogMessage::Entry& b) {
  EXPECT_EQ(a.service, b.service);
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.add, b.add);
}

// Decodes `m`'s encoding and checks every field its op carries.
void ExpectCatalogRoundTrip(const wire::CatalogMessage& m) {
  const wire::Payload p = wire::EncodeCatalog(m);
  EXPECT_EQ(p.message_class(), wire::MessageClass::kCatalog);
  auto got = wire::DecodeCatalog(p);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->op, m.op);
  if (m.op == wire::CatalogMessage::Op::kDigest) {
    EXPECT_EQ(got->holder, m.holder);
    ASSERT_EQ(got->deltas.size(), m.deltas.size());
    for (size_t i = 0; i < m.deltas.size(); ++i) {
      ExpectSameEntry(got->deltas[i], m.deltas[i]);
    }
    return;
  }
  ExpectSameEntry(got->key, m.key);
  if (m.op == wire::CatalogMessage::Op::kAnswer) {
    EXPECT_EQ(got->holders, m.holders);
  }
}

wire::CatalogMessage::Entry RandomEntry(Rng* rng) {
  return {rng->Bernoulli(0.5), rng->Identifier(1 + rng->Index(20)),
          rng->Bernoulli(0.5)};
}

TEST(WireModelTest, ProtocolMessagesRoundTrip) {
  Rng rng(TestSeed(0x3E55));
  NodeIdGen gen;
  for (int i = 0; i < 100; ++i) {
    // Notify batch.
    wire::NotifyBatch batch;
    batch.origin = static_cast<uint32_t>(rng.Index(64));
    const size_t keys = rng.Index(6);
    for (size_t k = 0; k < keys; ++k) {
      batch.keys.push_back(
          {StrCat("d", rng.Index(9)),
           rng.Bernoulli(0.5) ? std::string() : rng.Identifier(8)});
    }
    auto nb = wire::DecodeNotifyBatch(wire::EncodeNotifyBatch(batch));
    ASSERT_TRUE(nb.ok()) << nb.status();
    EXPECT_EQ(nb->origin, batch.origin);
    ASSERT_EQ(nb->keys.size(), batch.keys.size());
    for (size_t k = 0; k < keys; ++k) {
      EXPECT_EQ(nb->keys[k].name, batch.keys[k].name);
      EXPECT_EQ(nb->keys[k].shard, batch.keys[k].shard);
    }

    // Lease renewal.
    wire::LeaseRenewal lease{static_cast<uint32_t>(rng.Index(64)),
                             static_cast<uint32_t>(rng.Index(64)),
                             rng.Uniform(1000)};
    auto lr = wire::DecodeLeaseRenewal(wire::EncodeLeaseRenewal(lease));
    ASSERT_TRUE(lr.ok()) << lr.status();
    EXPECT_EQ(lr->holder, lease.holder);
    EXPECT_EQ(lr->origin, lease.origin);
    EXPECT_EQ(lr->subscribed_keys, lease.subscribed_keys);

    // Shipment: an entry plus shards. Every fourth one carries zero
    // shards (a whole document) and every fifth leaves the entry out
    // (the holder's was fresh), so both shapes round-trip on every seed.
    wire::Shipment ship;
    ship.origin = static_cast<uint32_t>(rng.Index(64));
    ship.name = StrCat("doc", rng.Index(9));
    ship.snapshot_version = 1 + rng.Uniform(100);
    TreePtr content = MakeRandomTree(1 + rng.Index(10), &gen, &rng);
    ship.manifest = i % 5 == 0 ? std::string() : wire::EncodeTree(*content);
    const size_t shipped = i % 4 == 0 ? 0 : 1 + rng.Index(3);
    for (size_t s = 0; s < shipped; ++s) {
      TreePtr shard_tree = MakeRandomTree(1 + rng.Index(6), &gen, &rng);
      ship.shards.push_back({DigestOf(*shard_tree).ToString(),
                             wire::EncodeTree(*shard_tree)});
    }
    auto sp = wire::DecodeShipment(wire::EncodeShipment(ship));
    ASSERT_TRUE(sp.ok()) << sp.status();
    EXPECT_EQ(sp->origin, ship.origin);
    EXPECT_EQ(sp->name, ship.name);
    EXPECT_EQ(sp->snapshot_version, ship.snapshot_version);
    EXPECT_EQ(sp->manifest, ship.manifest);
    ASSERT_EQ(sp->shards.size(), ship.shards.size());
    for (size_t s = 0; s < ship.shards.size(); ++s) {
      EXPECT_EQ(sp->shards[s].id, ship.shards[s].id);
      EXPECT_EQ(sp->shards[s].tree, ship.shards[s].tree);
    }

    // Digest exchange.
    wire::DigestExchange dig;
    dig.holder = static_cast<uint32_t>(rng.Index(64));
    dig.origin = static_cast<uint32_t>(rng.Index(64));
    const size_t docs = rng.Index(4);
    for (size_t d = 0; d < docs; ++d) {
      wire::DigestExchange::Doc doc;
      doc.name = StrCat("d", d);
      doc.version = rng.Uniform(50);
      doc.manifest = {rng.Uniform(UINT64_MAX), rng.Uniform(UINT64_MAX)};
      const size_t shards = rng.Index(5);
      for (size_t s = 0; s < shards; ++s) {
        doc.shards.push_back(
            {rng.Uniform(UINT64_MAX), rng.Uniform(UINT64_MAX)});
      }
      dig.docs.push_back(std::move(doc));
    }
    auto dx = wire::DecodeDigestExchange(wire::EncodeDigestExchange(dig));
    ASSERT_TRUE(dx.ok()) << dx.status();
    EXPECT_EQ(dx->holder, dig.holder);
    EXPECT_EQ(dx->origin, dig.origin);
    ASSERT_EQ(dx->docs.size(), dig.docs.size());
    for (size_t d = 0; d < dig.docs.size(); ++d) {
      EXPECT_EQ(dx->docs[d].name, dig.docs[d].name);
      EXPECT_EQ(dx->docs[d].version, dig.docs[d].version);
      EXPECT_EQ(dx->docs[d].manifest, dig.docs[d].manifest);
      EXPECT_EQ(dx->docs[d].shards, dig.docs[d].shards);
    }

    // Text envelope.
    const std::string text = rng.Identifier(1 + rng.Index(40));
    const wire::Payload tp =
        wire::EncodeText(wire::MessageClass::kQuery, text);
    EXPECT_EQ(tp.size(), wire::EncodedTextSize(text));
    auto tt = wire::DecodeText(tp);
    ASSERT_TRUE(tt.ok()) << tt.status();
    EXPECT_EQ(*tt, text);

    // Catalog messages: a lookup, an answer (every fourth with zero
    // holders, the rest with ids that need two-byte varints) and a
    // digest of up to 40 deltas.
    wire::CatalogMessage lookup;
    lookup.key = RandomEntry(&rng);
    ExpectCatalogRoundTrip(lookup);
    wire::CatalogMessage answer = lookup;
    answer.op = wire::CatalogMessage::Op::kAnswer;
    const size_t holders = i % 4 == 0 ? 0 : 1 + rng.Index(40);
    for (size_t h = 0; h < holders; ++h) {
      answer.holders.push_back(static_cast<uint32_t>(rng.Index(5000)));
    }
    ExpectCatalogRoundTrip(answer);
    wire::CatalogMessage digest;
    digest.op = wire::CatalogMessage::Op::kDigest;
    digest.holder = static_cast<uint32_t>(rng.Index(5000));
    const size_t deltas = rng.Index(41);
    for (size_t d = 0; d < deltas; ++d) {
      digest.deltas.push_back(RandomEntry(&rng));
    }
    ExpectCatalogRoundTrip(digest);
  }
}

// Every truncation and 300 random single/multi-byte corruptions of a
// valid buffer either decode to *something* (a corruption can land on
// ignorable bytes, e.g. inside a text run) or fail with a Status —
// never crash, never hang. Decoded trees must still be well-formed
// enough to canonicalize.
TEST(WireModelTest, TruncatedAndCorruptedBuffersRejectedWithStatus) {
  Rng rng(TestSeed(0xF077));
  NodeIdGen gen;
  NodeIdGen dest(PeerId(3));
  TreePtr t = MakeCatalog(6, &gen, &rng);
  const std::string blob = wire::EncodeTree(*t);

  for (size_t cut = 0; cut < blob.size(); ++cut) {
    auto r = wire::DecodeTree(std::string_view(blob).substr(0, cut), &dest);
    EXPECT_FALSE(r.ok()) << "truncation at " << cut << " decoded";
    EXPECT_FALSE(r.status().message().empty());
  }

  wire::WireStats stats;
  for (int i = 0; i < 300; ++i) {
    std::string mutated = blob;
    const size_t flips = 1 + rng.Index(4);
    for (size_t f = 0; f < flips; ++f) {
      mutated[rng.Index(mutated.size())] =
          static_cast<char>(rng.Uniform(256));
    }
    auto r = wire::DecodeTree(mutated, &dest, &stats);
    if (r.ok()) {
      CanonicalForm(*r.value());  // must be traversable, not garbage
    } else {
      EXPECT_NE(r.status().code(), StatusCode::kOk);
    }
  }
  EXPECT_EQ(stats.decode_calls, 300u);
  EXPECT_GT(stats.decode_errors, 0u) << "mutation loop never hit a "
                                        "malformed buffer — not fuzzing";

  // Protocol messages: truncations of each class reject cleanly too.
  wire::NotifyBatch batch;
  batch.origin = 4;
  batch.keys.push_back({"doc", ""});
  const std::string nb = wire::EncodeNotifyBatch(batch).bytes();
  for (size_t cut = 0; cut < nb.size(); ++cut) {
    EXPECT_FALSE(
        wire::DecodeNotifyBatch(wire::Payload(nb.substr(0, cut))).ok());
  }
  // Shipments: a zero-shard one (a whole document), a manifest-less one
  // (the holder's entry was fresh) and one with both parts.
  wire::Shipment whole;
  whole.origin = 1;
  whole.name = "d";
  whole.snapshot_version = 2;
  whole.manifest = blob;
  wire::Shipment manifest_less = whole;
  manifest_less.manifest.clear();
  manifest_less.shards.push_back({DigestOf(*t).ToString(), blob});
  wire::Shipment both = manifest_less;
  both.manifest = blob;
  for (const wire::Shipment& ship : {whole, manifest_less, both}) {
    const std::string sb = wire::EncodeShipment(ship).bytes();
    ASSERT_TRUE(wire::DecodeShipment(wire::Payload(sb)).ok());
    for (size_t cut = 0; cut < sb.size(); ++cut) {
      EXPECT_FALSE(
          wire::DecodeShipment(wire::Payload(sb.substr(0, cut))).ok());
    }
    // Trailing bytes after a complete body reject.
    EXPECT_FALSE(wire::DecodeShipment(wire::Payload(sb + '\0')).ok());
  }
  // A whole document is its entry plus a one-byte zero shard count.
  const std::string wb = wire::EncodeShipment(whole).bytes();
  EXPECT_EQ(wb.size(), wire::kHeaderBytes + wire::VarintSize(1) +
                           wire::VarintSize(1) + 1 + wire::VarintSize(2) +
                           wire::VarintSize(blob.size()) + blob.size() + 1);
  // A shard count the remaining bytes cannot hold rejects: the zero
  // count is the whole shipment's last byte.
  std::string bad_count = wb;
  bad_count.back() = 5;
  EXPECT_FALSE(wire::DecodeShipment(wire::Payload(bad_count)).ok());

  // Catalog messages: a lookup, answers with zero holders and with many
  // two-byte holder ids, and a digest with many entries.
  wire::CatalogMessage lookup;
  lookup.key = {true, "svc", true};
  wire::CatalogMessage no_holders = lookup;
  no_holders.op = wire::CatalogMessage::Op::kAnswer;
  wire::CatalogMessage many_holders = no_holders;
  for (uint32_t h = 0; h < 50; ++h) many_holders.holders.push_back(128 + h);
  wire::CatalogMessage digest;
  digest.op = wire::CatalogMessage::Op::kDigest;
  digest.holder = 300;
  for (int d = 0; d < 50; ++d) {
    digest.deltas.push_back({d % 2 == 0, StrCat("doc", d), d % 3 != 0});
  }
  for (const wire::CatalogMessage& m :
       {lookup, no_holders, many_holders, digest}) {
    const std::string cb = wire::EncodeCatalog(m).bytes();
    ASSERT_TRUE(wire::DecodeCatalog(wire::Payload(cb)).ok());
    for (size_t cut = 0; cut < cb.size(); ++cut) {
      EXPECT_FALSE(
          wire::DecodeCatalog(wire::Payload(cb.substr(0, cut))).ok());
    }
    EXPECT_FALSE(wire::DecodeCatalog(wire::Payload(cb + '\0')).ok());
    for (int i = 0; i < 100; ++i) {
      std::string mutated = cb;
      mutated[rng.Index(mutated.size())] =
          static_cast<char>(rng.Uniform(256));
      wire::DecodeCatalog(wire::Payload(std::move(mutated)));  // no crash
    }
  }
  // Ids of 128 and up take two varint bytes each.
  EXPECT_EQ(wire::EncodeCatalog(many_holders).size(),
            wire::EncodeCatalog(no_holders).size() + 50 * 2);
  // An op, an entry flag or a count out of range rejects. The op is the
  // byte after the header; the lookup's flags byte follows it.
  const std::string lb = wire::EncodeCatalog(lookup).bytes();
  std::string bad_op = lb;
  bad_op[wire::kHeaderBytes] = 3;
  EXPECT_FALSE(wire::DecodeCatalog(wire::Payload(bad_op)).ok());
  std::string bad_flags = lb;
  bad_flags[wire::kHeaderBytes + 1] = 4;
  EXPECT_FALSE(wire::DecodeCatalog(wire::Payload(bad_flags)).ok());
  // A zero-holder answer ends with its holder count.
  std::string bad_holders = wire::EncodeCatalog(no_holders).bytes();
  bad_holders.back() = 1;
  EXPECT_FALSE(wire::DecodeCatalog(wire::Payload(bad_holders)).ok());
  // A digest's delta count is the varint after op and holder (300 takes
  // two bytes); one more delta than it carries rejects.
  std::string bad_deltas = wire::EncodeCatalog(digest).bytes();
  bad_deltas[wire::kHeaderBytes + 3] = 51;
  EXPECT_FALSE(wire::DecodeCatalog(wire::Payload(bad_deltas)).ok());
}

TEST(WireModelTest, VersionAndClassMismatchesRejected) {
  NodeIdGen gen;
  NodeIdGen dest;
  TreePtr t = MakeTextElement("a", "x", &gen);
  std::string blob = wire::EncodeTree(*t);

  std::string wrong_version = blob;
  wrong_version[0] = static_cast<char>(wire::kWireVersion + 1);
  EXPECT_FALSE(wire::DecodeTree(wrong_version, &dest).ok());

  std::string wrong_class = blob;
  wrong_class[1] = static_cast<char>(wire::MessageClass::kLease);
  EXPECT_FALSE(wire::DecodeTree(wrong_class, &dest).ok());
  EXPECT_FALSE(
      wire::DecodeLeaseRenewal(wire::Payload(std::move(wrong_class))).ok());
}

TEST(WireModelTest, StatsCountPerClass) {
  wire::WireStats stats;
  NodeIdGen gen;
  TreePtr t = MakeTextElement("a", "x", &gen);
  const std::string blob = wire::EncodeTree(*t, &stats);
  wire::EncodeNotifyBatch({}, &stats);
  wire::EncodeLeaseRenewal({}, &stats);
  EXPECT_EQ(stats.encode_calls, 3u);
  EXPECT_EQ(
      stats.class_messages[static_cast<size_t>(wire::MessageClass::kTree)],
      1u);
  EXPECT_EQ(
      stats
          .class_bytes[static_cast<size_t>(wire::MessageClass::kNotify)] +
          stats.class_bytes[static_cast<size_t>(
              wire::MessageClass::kLease)] +
          blob.size(),
      stats.encode_bytes);
  // Latency histograms stay empty unless timing is opted into — the
  // determinism contract for twin-simulation comparisons.
  EXPECT_EQ(stats.encode_ns.count(), 0u);
}

}  // namespace
}  // namespace axml
