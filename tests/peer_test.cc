// Tests for the peer layer: Peer, Service, GenericCatalog, AXML sc
// nodes, and AxmlSystem.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "peer/axml_doc.h"
#include "peer/generic.h"
#include "peer/peer.h"
#include "peer/system.h"
#include "test_util.h"
#include "xml/xml_parser.h"

namespace axml {
namespace {

// --- Peer ---

TEST(PeerTest, DocumentLifecycle) {
  Peer p(PeerId(0), "alpha");
  TreePtr doc = TreeNode::Element("d", p.gen());
  EXPECT_TRUE(p.InstallDocument("d1", doc).ok());
  EXPECT_TRUE(p.HasDocument("d1"));
  EXPECT_EQ(p.GetDocument("d1"), doc);
  // (d, p) uniqueness (§2.1).
  EXPECT_EQ(p.InstallDocument("d1", doc).code(),
            StatusCode::kAlreadyExists);
  EXPECT_TRUE(p.RemoveDocument("d1").ok());
  EXPECT_FALSE(p.HasDocument("d1"));
  EXPECT_EQ(p.RemoveDocument("d1").code(), StatusCode::kNotFound);
  EXPECT_EQ(p.GetDocument("zz"), nullptr);
}

TEST(PeerTest, FindNodeAcrossDocuments) {
  Peer p(PeerId(1), "beta");
  TreePtr d1 = TreeNode::Element("a", p.gen());
  TreePtr d2 = TreeNode::Element("b", p.gen());
  TreePtr inner = d2->AddChild(TreeNode::Element("c", p.gen()));
  ASSERT_TRUE(p.InstallDocument("d1", d1).ok());
  ASSERT_TRUE(p.InstallDocument("d2", d2).ok());
  EXPECT_EQ(p.FindNode(inner->id()), inner.get());
  EXPECT_EQ(p.FindDocumentOfNode(inner->id()), "d2");
  NodeIdGen foreign(PeerId(9));
  EXPECT_EQ(p.FindNode(foreign.Next()), nullptr);
  EXPECT_EQ(p.FindDocumentOfNode(foreign.Next()), "");
}

TEST(PeerTest, AppendUnderNode) {
  Peer p(PeerId(0), "alpha");
  TreePtr doc = TreeNode::Element("root", p.gen());
  ASSERT_TRUE(p.InstallDocument("d", doc).ok());
  EXPECT_TRUE(
      p.AppendUnderNode(doc->id(), TreeNode::Text("payload")).ok());
  EXPECT_EQ(doc->child_count(), 1u);
  NodeIdGen foreign(PeerId(9));
  EXPECT_EQ(p.AppendUnderNode(foreign.Next(), TreeNode::Text("x")).code(),
            StatusCode::kNotFound);
}

TEST(PeerTest, ComputeTimeScalesWithSpeed) {
  Peer p(PeerId(0), "alpha");
  p.set_compute_speed(1000);
  EXPECT_DOUBLE_EQ(p.ComputeTime(500), 0.5);
  p.set_compute_speed(1e6);
  EXPECT_DOUBLE_EQ(p.ComputeTime(500), 5e-4);
}

TEST(PeerTest, ServiceLifecycle) {
  Peer p(PeerId(0), "alpha");
  Query q = Query::Parse("for $x in input(0) return $x").value();
  EXPECT_TRUE(p.InstallService(Service::Declarative("echo", q)).ok());
  EXPECT_TRUE(p.HasService("echo"));
  const Service* s = p.GetService("echo");
  ASSERT_NE(s, nullptr);
  EXPECT_TRUE(s->is_declarative());
  EXPECT_EQ(s->arity(), 1);
  EXPECT_EQ(p.InstallService(Service::Declarative("echo", q)).code(),
            StatusCode::kAlreadyExists);
  p.PutService(Service::Declarative("echo", q));  // replace OK
  EXPECT_TRUE(p.RemoveService("echo").ok());
  EXPECT_FALSE(p.HasService("echo"));
}

TEST(ServiceTest, NativeInvocation) {
  Peer p(PeerId(0), "alpha");
  Service s = Service::Native(
      "twice", 1,
      [](const std::vector<TreePtr>& params, Peer*)
          -> Result<std::vector<TreePtr>> {
        return std::vector<TreePtr>{params[0], params[0]};
      });
  EXPECT_FALSE(s.is_declarative());
  auto out = s.InvokeNative({TreeNode::Text("x")}, &p);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().size(), 2u);
}

TEST(ServiceTest, NativeSignatureEnforced) {
  Peer p(PeerId(0), "alpha");
  Signature sig;
  sig.in = {SchemaType::Number()};
  Service s = Service::Native(
      "id", 1,
      [](const std::vector<TreePtr>& params, Peer*)
          -> Result<std::vector<TreePtr>> {
        return std::vector<TreePtr>{params[0]};
      },
      sig);
  EXPECT_TRUE(s.InvokeNative({TreeNode::Text("42")}, &p).ok());
  EXPECT_EQ(s.InvokeNative({TreeNode::Text("abc")}, &p).status().code(),
            StatusCode::kTypeError);
}

TEST(ServiceTest, DeclarativeHasNoNativeBody) {
  Peer p(PeerId(0), "a");
  Query q = Query::Parse("for $x in input(0) return $x").value();
  Service s = Service::Declarative("d", q);
  EXPECT_EQ(s.InvokeNative({TreeNode::Text("x")}, &p).status().code(),
            StatusCode::kInternal);
}

// --- GenericCatalog ---

class GenericTest : public ::testing::Test {
 protected:
  GenericTest()
      : loop_(), net_(&loop_, Topology(LinkParams{0.010, 1e6})) {
    // Members on peers 1..3; peer 2 is nearest to the caller (peer 0).
    net_.mutable_topology()->SetLinkSymmetric(PeerId(2), PeerId(0),
                                              LinkParams{0.001, 1e7});
    for (uint32_t i = 1; i <= 3; ++i) {
      cat_.AddDocumentMember("ed", ClassMember{"d", PeerId(i)});
    }
  }
  EventLoop loop_;
  Network net_;
  GenericCatalog cat_;
};

TEST_F(GenericTest, FirstPolicy) {
  auto m = cat_.PickDocument("ed", PeerId(0), PickPolicy::kFirst, net_);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->peer, PeerId(1));
}

TEST_F(GenericTest, NearestPolicy) {
  auto m = cat_.PickDocument("ed", PeerId(0), PickPolicy::kNearest, net_);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->peer, PeerId(2));
}

TEST_F(GenericTest, LeastLoadedBalances) {
  for (int i = 0; i < 9; ++i) {
    auto m = cat_.PickDocument("ed", PeerId(0), PickPolicy::kLeastLoaded,
                               net_);
    ASSERT_TRUE(m.ok());
  }
  EXPECT_EQ(cat_.PickCount(PeerId(1)), 3u);
  EXPECT_EQ(cat_.PickCount(PeerId(2)), 3u);
  EXPECT_EQ(cat_.PickCount(PeerId(3)), 3u);
}

TEST_F(GenericTest, RandomIsDeterministicUnderSeed) {
  cat_.SeedRandom(5);
  std::vector<uint32_t> a, b;
  for (int i = 0; i < 5; ++i) {
    a.push_back(cat_.PickDocument("ed", PeerId(0), PickPolicy::kRandom,
                                  net_)->peer.index());
  }
  cat_.SeedRandom(5);
  for (int i = 0; i < 5; ++i) {
    b.push_back(cat_.PickDocument("ed", PeerId(0), PickPolicy::kRandom,
                                  net_)->peer.index());
  }
  EXPECT_EQ(a, b);
}

TEST_F(GenericTest, UnknownClassFails) {
  auto m = cat_.PickDocument("zz", PeerId(0), PickPolicy::kFirst, net_);
  EXPECT_EQ(m.status().code(), StatusCode::kNotFound);
}

TEST_F(GenericTest, RemoveMemberShrinksClass) {
  cat_.RemoveDocumentMember("ed", ClassMember{"d", PeerId(1)});
  ASSERT_EQ(cat_.DocumentMembers("ed")->size(), 2u);
  cat_.RemoveDocumentMember("ed", ClassMember{"d", PeerId(2)});
  cat_.RemoveDocumentMember("ed", ClassMember{"d", PeerId(3)});
  EXPECT_EQ(cat_.DocumentMembers("ed"), nullptr);
}

TEST_F(GenericTest, ServiceClassesAreSeparate) {
  cat_.AddServiceMember("svc", ClassMember{"s1", PeerId(1)});
  EXPECT_NE(cat_.ServiceMembers("svc"), nullptr);
  EXPECT_EQ(cat_.ServiceMembers("ed"), nullptr);
  auto m = cat_.PickService("svc", PeerId(0), PickPolicy::kFirst, net_);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->name, "s1");
}

// --- sc nodes ---

TEST(AxmlDocTest, BuildParseRoundTrip) {
  NodeIdGen gen(PeerId(0));
  ServiceCallSpec spec;
  spec.provider = "mirror";
  spec.service = "getUpdates";
  spec.params.push_back(
      ParseXml("<since>2006</since>", &gen).value());
  spec.forwards.push_back(NodeLocation{NodeId(PeerId(2), 7), PeerId(2)});
  spec.mode = ActivationMode::kImmediate;
  TreePtr sc = BuildServiceCall(spec, &gen);
  auto parsed = ParseServiceCall(*sc);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->provider, "mirror");
  EXPECT_EQ(parsed->service, "getUpdates");
  ASSERT_EQ(parsed->params.size(), 1u);
  EXPECT_EQ(parsed->params[0]->StringValue(), "2006");
  ASSERT_EQ(parsed->forwards.size(), 1u);
  EXPECT_EQ(parsed->forwards[0].peer, PeerId(2));
  EXPECT_EQ(parsed->mode, ActivationMode::kImmediate);
  EXPECT_EQ(parsed->sc_node, sc->id());
}

TEST(AxmlDocTest, ParamOrderingBySuffix) {
  NodeIdGen gen;
  auto sc = ParseXml(
      "<sc><peer>p</peer><service>s</service>"
      "<param2><b/></param2><param1><a/></param1></sc>",
      &gen);
  auto spec = ParseServiceCall(*sc.value());
  ASSERT_TRUE(spec.ok());
  ASSERT_EQ(spec->params.size(), 2u);
  EXPECT_EQ(spec->params[0]->label_text(), "a");
  EXPECT_EQ(spec->params[1]->label_text(), "b");
}

TEST(AxmlDocTest, MalformedScRejected) {
  NodeIdGen gen;
  auto no_peer =
      ParseXml("<sc><service>s</service></sc>", &gen).value();
  EXPECT_FALSE(ParseServiceCall(*no_peer).ok());
  auto no_service = ParseXml("<sc><peer>p</peer></sc>", &gen).value();
  EXPECT_FALSE(ParseServiceCall(*no_service).ok());
  auto gap = ParseXml(
                 "<sc><peer>p</peer><service>s</service>"
                 "<param3><a/></param3></sc>",
                 &gen)
                 .value();
  EXPECT_FALSE(ParseServiceCall(*gap).ok());
  auto not_sc = ParseXml("<other/>", &gen).value();
  EXPECT_FALSE(ParseServiceCall(*not_sc).ok());
}

TEST(AxmlDocTest, NodeLocationRoundTrip) {
  NodeLocation loc{NodeId(PeerId(3), 42), PeerId(3)};
  auto back = NodeLocation::Parse(loc.ToString());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), loc);
  EXPECT_FALSE(NodeLocation::Parse("garbage").ok());
  EXPECT_FALSE(NodeLocation::Parse("12@").ok());
  EXPECT_FALSE(NodeLocation::Parse("@3").ok());
  EXPECT_FALSE(NodeLocation::Parse("12@3x").ok());
}

TEST(AxmlDocTest, ActivationModeNames) {
  for (ActivationMode m :
       {ActivationMode::kManual, ActivationMode::kImmediate,
        ActivationMode::kLazy, ActivationMode::kAfterCall}) {
    auto back = ParseActivationMode(ActivationModeName(m));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value(), m);
  }
  EXPECT_FALSE(ParseActivationMode("bogus").ok());
}

TEST(AxmlDocTest, FindServiceCallsTopLevelOnly) {
  NodeIdGen gen;
  auto root = ParseXml(
                  "<d><sc><peer>p</peer><service>s</service>"
                  "<param1><sc><peer>q</peer><service>t</service></sc>"
                  "</param1></sc><x><sc><peer>r</peer>"
                  "<service>u</service></sc></x></d>",
                  &gen)
                  .value();
  std::vector<TreePtr> calls;
  FindServiceCalls(root, &calls);
  // The sc nested inside a param of another sc is not collected.
  EXPECT_EQ(calls.size(), 2u);
}

TEST(AxmlDocTest, FindParent) {
  NodeIdGen gen;
  TreePtr root = TreeNode::Element("r", &gen);
  TreePtr mid = root->AddChild(TreeNode::Element("m", &gen));
  TreePtr leaf = mid->AddChild(TreeNode::Element("l", &gen));
  EXPECT_EQ(FindParent(root, leaf->id()), mid.get());
  EXPECT_EQ(FindParent(root, root->id()), nullptr);
}

// --- AxmlSystem ---

TEST(SystemTest, PeersAndLookup) {
  AxmlSystem sys;
  PeerId a = sys.AddPeer("alpha");
  PeerId b = sys.AddPeer("beta");
  EXPECT_EQ(sys.peer_count(), 2u);
  EXPECT_EQ(sys.FindPeerId("beta"), b);
  EXPECT_EQ(sys.FindPeerId("gamma"), PeerId::Invalid());
  EXPECT_EQ(sys.peer(a)->name(), "alpha");
  EXPECT_EQ(sys.peer(PeerId(9)), nullptr);
  EXPECT_EQ(sys.peer(PeerId::Any()), nullptr);
}

TEST(SystemTest, InstallRegistersInCatalog) {
  AxmlSystem sys;
  PeerId a = sys.AddPeer("alpha");
  PeerId b = sys.AddPeer("beta");
  ASSERT_TRUE(sys.InstallDocumentXml(a, "d", "<x/>").ok());
  Query q = Query::Parse("for $x in input(0) return $x").value();
  ASSERT_TRUE(sys.InstallService(b, Service::Declarative("s", q)).ok());
  std::vector<PeerId> docs = testing::LookupSync(
      *sys.catalog(), ResourceKind::kDocument, "d", b, sys.network());
  ASSERT_EQ(docs.size(), 1u);
  EXPECT_EQ(docs[0], a);
  std::vector<PeerId> svcs = testing::LookupSync(
      *sys.catalog(), ResourceKind::kService, "s", a, sys.network());
  ASSERT_EQ(svcs.size(), 1u);
  EXPECT_EQ(svcs[0], b);
}

TEST(SystemTest, ReplicatedDocumentFormsClass) {
  AxmlSystem sys;
  PeerId a = sys.AddPeer("a"), b = sys.AddPeer("b"), c = sys.AddPeer("c");
  NodeIdGen gen;
  TreePtr content = ParseXml("<cat><p/></cat>", &gen).value();
  ASSERT_TRUE(
      sys.InstallReplicatedDocument("ecat", "cat", content, {a, b, c})
          .ok());
  const auto* members = sys.generics().DocumentMembers("ecat");
  ASSERT_NE(members, nullptr);
  EXPECT_EQ(members->size(), 3u);
  for (PeerId p : {a, b, c}) {
    EXPECT_TRUE(sys.peer(p)->HasDocument("cat"));
  }
}

TEST(SystemTest, FingerprintDetectsStateDifferences) {
  auto build = [](bool extra) {
    auto sys = std::make_unique<AxmlSystem>();
    PeerId a = sys->AddPeer("a");
    EXPECT_TRUE(sys->InstallDocumentXml(a, "d", "<x><y/></x>").ok());
    if (extra) {
      EXPECT_TRUE(sys->InstallDocumentXml(a, "e", "<z/>").ok());
    }
    return sys;
  };
  auto s1 = build(false), s2 = build(false), s3 = build(true);
  EXPECT_EQ(s1->StateFingerprint(), s2->StateFingerprint());
  EXPECT_NE(s1->StateFingerprint(), s3->StateFingerprint());
}

TEST(SystemTest, FingerprintIgnoresChildOrder) {
  auto build = [](const char* xml) {
    auto sys = std::make_unique<AxmlSystem>();
    PeerId a = sys->AddPeer("a");
    EXPECT_TRUE(sys->InstallDocumentXml(a, "d", xml).ok());
    return sys;
  };
  auto s1 = build("<x><a/><b/></x>");
  auto s2 = build("<x><b/><a/></x>");
  EXPECT_EQ(s1->StateFingerprint(), s2->StateFingerprint());
}

TEST(SystemTest, DumpStateMentionsEverything) {
  AxmlSystem sys;
  PeerId a = sys.AddPeer("alpha");
  ASSERT_TRUE(sys.InstallDocumentXml(a, "d", "<x/>").ok());
  Query q = Query::Parse("for $x in input(0) return $x").value();
  ASSERT_TRUE(sys.InstallService(a, Service::Declarative("s", q)).ok());
  std::string dump = sys.DumpState();
  EXPECT_NE(dump.find("alpha"), std::string::npos);
  EXPECT_NE(dump.find("doc d"), std::string::npos);
  EXPECT_NE(dump.find("service s"), std::string::npos);
}

}  // namespace
}  // namespace axml
