// Tests for the algebra expression type and its XML serialization.

#include <gtest/gtest.h>

#include "algebra/expr.h"
#include "algebra/expr_xml.h"
#include "test_util.h"
#include "xml/xml_parser.h"

namespace axml {
namespace {

ExprPtr SampleTree(NodeIdGen* gen) {
  TreePtr t = ParseXml("<q><k>v</k></q>", gen).value();
  return Expr::Tree(t, PeerId(0));
}

TEST(ExprTest, FactoriesAndAccessors) {
  NodeIdGen gen(PeerId(0));
  ExprPtr t = SampleTree(&gen);
  EXPECT_EQ(t->kind(), Expr::Kind::kTree);
  EXPECT_EQ(t->tree_owner(), PeerId(0));

  ExprPtr d = Expr::Doc("catalog", PeerId(1));
  EXPECT_EQ(d->kind(), Expr::Kind::kDoc);
  EXPECT_FALSE(d->is_generic_doc());

  ExprPtr g = Expr::GenericDoc("ecatalog");
  EXPECT_TRUE(g->is_generic_doc());
  EXPECT_EQ(g->doc_name(), "ecatalog");

  Query q = Query::Parse("for $x in input(0) return $x").value();
  ExprPtr a = Expr::Apply(q, PeerId(0), {d});
  EXPECT_EQ(a->kind(), Expr::Kind::kApply);
  EXPECT_EQ(a->args().size(), 1u);

  ExprPtr c = Expr::Call(PeerId(2), "svc", {t});
  EXPECT_EQ(c->provider(), PeerId(2));
  EXPECT_FALSE(c->is_generic_service());
  ExprPtr cg = Expr::CallGeneric("esvc", {t});
  EXPECT_TRUE(cg->is_generic_service());

  ExprPtr s = Expr::SendToPeer(PeerId(1), t);
  EXPECT_EQ(s->dest().kind, Expr::SendDest::Kind::kPeer);
  EXPECT_EQ(s->payload(), t);

  ExprPtr e = Expr::EvalAt(PeerId(1), a);
  EXPECT_EQ(e->eval_where(), PeerId(1));
  EXPECT_EQ(e->body(), a);

  ExprPtr seq = Expr::Seq(s, e);
  EXPECT_EQ(seq->first(), s);
  EXPECT_EQ(seq->then(), e);
}

TEST(ExprTest, WithChildrenRebuilds) {
  NodeIdGen gen(PeerId(0));
  Query q = Query::Parse(
                "for $x in input(0) for $y in input(1) return $x")
                .value();
  ExprPtr a = Expr::Apply(q, PeerId(0),
                          {Expr::Doc("d1", PeerId(1)),
                           Expr::Doc("d2", PeerId(2))});
  std::vector<ExprPtr> kids = a->children();
  kids[1] = Expr::Doc("d2cache", PeerId(0));
  ExprPtr b = a->WithChildren(std::move(kids));
  EXPECT_EQ(b->kind(), Expr::Kind::kApply);
  EXPECT_EQ(b->args()[0]->doc_name(), "d1");
  EXPECT_EQ(b->args()[1]->doc_name(), "d2cache");
  // Query carried over.
  EXPECT_EQ(b->query().text(), q.text());
}

TEST(ExprTest, ToStringMentionsStructure) {
  ExprPtr e = Expr::EvalAt(
      PeerId(2),
      Expr::SendToPeer(PeerId(1), Expr::Doc("d", PeerId(0))));
  std::string s = e->ToString();
  EXPECT_NE(s.find("evalAt(p2"), std::string::npos);
  EXPECT_NE(s.find("send(p1"), std::string::npos);
  EXPECT_NE(s.find("doc(d)@p0"), std::string::npos);
}

TEST(ExprTest, NodeCount) {
  NodeIdGen gen(PeerId(0));
  ExprPtr e = Expr::Seq(SampleTree(&gen),
                        Expr::SendToPeer(PeerId(1), SampleTree(&gen)));
  EXPECT_EQ(e->NodeCount(), 4u);
}

// --- XML round trips (§3.1: expressions are XML trees) ---

class ExprXmlRoundTrip : public ::testing::Test {
 protected:
  void Check(const ExprPtr& e) {
    NodeIdGen gen(PeerId(5));
    std::string xml = SerializeCompactExpr(*e, &gen);
    auto back = ParseExprXml(xml, &gen);
    ASSERT_TRUE(back.ok()) << back.status() << "\nxml: " << xml;
    EXPECT_EQ(back.value()->ToString(), e->ToString()) << xml;
    // Stable second round.
    NodeIdGen gen2;
    EXPECT_EQ(SerializeCompactExpr(*back.value(), &gen2), xml);
  }
};

TEST_F(ExprXmlRoundTrip, Tree) {
  NodeIdGen gen(PeerId(0));
  Check(SampleTree(&gen));
}

TEST_F(ExprXmlRoundTrip, DocAndGenericDoc) {
  Check(Expr::Doc("catalog", PeerId(3)));
  Check(Expr::GenericDoc("ecatalog"));
}

TEST_F(ExprXmlRoundTrip, Apply) {
  Query q = Query::Parse(
                "for $x in input(0)//a where $x/p < 3 return $x")
                .value();
  Check(Expr::Apply(q, PeerId(1), {Expr::Doc("d", PeerId(0))}));
}

TEST_F(ExprXmlRoundTrip, CallWithForwards) {
  NodeIdGen gen(PeerId(0));
  Check(Expr::Call(PeerId(2), "svc", {SampleTree(&gen)},
                   {NodeLocation{NodeId(PeerId(1), 9), PeerId(1)},
                    NodeLocation{NodeId(PeerId(3), 4), PeerId(3)}}));
  Check(Expr::CallGeneric("esvc", {SampleTree(&gen)}));
}

TEST_F(ExprXmlRoundTrip, Sends) {
  NodeIdGen gen(PeerId(0));
  Check(Expr::SendToPeer(PeerId(1), SampleTree(&gen)));
  Check(Expr::SendToNodes({NodeLocation{NodeId(PeerId(1), 3), PeerId(1)}},
                          SampleTree(&gen)));
  Check(Expr::SendAsDoc("newdoc", PeerId(2), SampleTree(&gen)));
}

TEST_F(ExprXmlRoundTrip, ShipQuery) {
  Query q = Query::Parse("for $x in input(0) return $x").value();
  Check(Expr::ShipQuery(PeerId(2), q, PeerId(0), "installed"));
}

TEST_F(ExprXmlRoundTrip, EvalAtAndSeq) {
  NodeIdGen gen(PeerId(0));
  Check(Expr::EvalAt(PeerId(1), SampleTree(&gen)));
  Check(Expr::Seq(Expr::SendToPeer(PeerId(1), SampleTree(&gen)),
                  Expr::Doc("d", PeerId(0))));
}

TEST_F(ExprXmlRoundTrip, DeeplyNested) {
  NodeIdGen gen(PeerId(0));
  Query q = Query::Parse("for $x in input(0) return $x").value();
  ExprPtr e = Expr::EvalAt(
      PeerId(1),
      Expr::Apply(q, PeerId(0),
                  {Expr::Apply(q, PeerId(1),
                               {Expr::Call(PeerId(2), "s",
                                           {SampleTree(&gen)})})}));
  Check(e);
}

TEST(ExprXmlTest, RejectsUnknownElements) {
  NodeIdGen gen;
  EXPECT_FALSE(ParseExprXml("<x:mystery/>", &gen).ok());
  EXPECT_FALSE(ParseExprXml("<x:tree peer=\"0\"/>", &gen).ok());
  EXPECT_FALSE(ParseExprXml("<x:apply peer=\"0\"/>", &gen).ok());
  EXPECT_FALSE(ParseExprXml("<x:send peer=\"zz\"><x:doc name=\"d\" "
                            "peer=\"0\"/></x:send>",
                            &gen)
                   .ok());
  EXPECT_FALSE(ParseExprXml("not xml", &gen).ok());
}

TEST(ExprXmlTest, SerializedSizeTracksPayload) {
  NodeIdGen gen(PeerId(0));
  TreePtr small = ParseXml("<a/>", &gen).value();
  TreePtr big = ParseXml(
      "<a><b>payload payload payload payload</b><c>more</c></a>", &gen)
                    .value();
  // The kQuery text a delegated expression ships as.
  EXPECT_LT(SerializeCompactExpr(*Expr::Tree(small, PeerId(0)), &gen).size(),
            SerializeCompactExpr(*Expr::Tree(big, PeerId(0)), &gen).size());
}

}  // namespace
}  // namespace axml
