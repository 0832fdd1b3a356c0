// Unit tests for the tree data model (src/xml/tree.*).

#include <gtest/gtest.h>

#include "test_util.h"
#include "xml/tree.h"

namespace axml {
namespace {

TEST(TreeTest, ElementBasics) {
  NodeIdGen gen(PeerId(0));
  TreePtr e = TreeNode::Element("book", &gen);
  EXPECT_TRUE(e->is_element());
  EXPECT_FALSE(e->is_text());
  EXPECT_EQ(e->label_text(), "book");
  EXPECT_TRUE(e->id().valid());
  EXPECT_EQ(e->child_count(), 0u);
}

TEST(TreeTest, TextBasics) {
  TreePtr t = TreeNode::Text("hello");
  EXPECT_TRUE(t->is_text());
  EXPECT_EQ(t->text(), "hello");
  EXPECT_FALSE(t->id().valid());
}

TEST(TreeTest, AddRemoveChildren) {
  NodeIdGen gen;
  TreePtr root = TreeNode::Element("r", &gen);
  root->AddChild(MakeTextElement("a", "1", &gen));
  root->AddChild(MakeTextElement("b", "2", &gen));
  EXPECT_EQ(root->child_count(), 2u);
  root->RemoveChild(0);
  ASSERT_EQ(root->child_count(), 1u);
  EXPECT_EQ(root->child(0)->label_text(), "b");
}

TEST(TreeTest, RemoveDescendant) {
  NodeIdGen gen;
  TreePtr root = TreeNode::Element("r", &gen);
  TreePtr mid = TreeNode::Element("m", &gen);
  TreePtr leaf = TreeNode::Element("l", &gen);
  NodeId leaf_id = leaf->id();
  mid->AddChild(leaf);
  root->AddChild(mid);
  EXPECT_TRUE(root->RemoveDescendant(leaf_id));
  EXPECT_EQ(mid->child_count(), 0u);
  EXPECT_FALSE(root->RemoveDescendant(leaf_id));
}

TEST(TreeTest, CloneMintsFreshIds) {
  NodeIdGen gen0(PeerId(0)), gen1(PeerId(1));
  TreePtr root = TreeNode::Element("r", &gen0);
  root->AddChild(MakeTextElement("a", "x", &gen0));
  TreePtr copy = root->Clone(&gen1);
  EXPECT_NE(copy->id(), root->id());
  EXPECT_EQ(copy->id().minted_by(), PeerId(1));
  EXPECT_EQ(copy->label_text(), "r");
  ASSERT_EQ(copy->child_count(), 1u);
  EXPECT_EQ(copy->child(0)->StringValue(), "x");
  // Structure is preserved.
  EXPECT_TRUE(testing::ResultsEqual({root}, {copy}));
}

TEST(TreeTest, CloneSameIdsPreservesIds) {
  NodeIdGen gen;
  TreePtr root = TreeNode::Element("r", &gen);
  TreePtr child = root->AddChild(TreeNode::Element("c", &gen));
  TreePtr copy = root->CloneSameIds();
  EXPECT_EQ(copy->id(), root->id());
  EXPECT_EQ(copy->child(0)->id(), child->id());
  // But mutation of the copy does not affect the original.
  copy->AddChild(TreeNode::Text("new"));
  EXPECT_EQ(root->child_count(), 1u);
}

TEST(TreeTest, FindNode) {
  NodeIdGen gen;
  TreePtr root = TreeNode::Element("r", &gen);
  TreePtr a = root->AddChild(TreeNode::Element("a", &gen));
  TreePtr b = a->AddChild(TreeNode::Element("b", &gen));
  EXPECT_EQ(root->FindNode(b->id()), b.get());
  EXPECT_EQ(root->FindNode(root->id()), root.get());
  NodeIdGen other(PeerId(9));
  EXPECT_EQ(root->FindNode(other.Next()), nullptr);
}

TEST(TreeTest, CountAndDepth) {
  NodeIdGen gen;
  TreePtr root = TreeNode::Element("r", &gen);
  root->AddChild(MakeTextElement("a", "t", &gen));  // element + text
  EXPECT_EQ(root->CountNodes(), 3u);
  EXPECT_EQ(root->Depth(), 3u);
}

TEST(TreeTest, ContainsServiceCall) {
  NodeIdGen gen;
  TreePtr root = TreeNode::Element("r", &gen);
  EXPECT_FALSE(root->ContainsServiceCall());
  TreePtr nested = TreeNode::Element("wrap", &gen);
  nested->AddChild(TreeNode::Element("sc", &gen));
  root->AddChild(nested);
  EXPECT_TRUE(root->ContainsServiceCall());
}

TEST(TreeTest, StringValueConcatenatesLeaves) {
  NodeIdGen gen;
  TreePtr root = TreeNode::Element("r", &gen);
  root->AddChild(TreeNode::Text("a"));
  TreePtr mid = root->AddChild(TreeNode::Element("m", &gen));
  mid->AddChild(TreeNode::Text("b"));
  EXPECT_EQ(root->StringValue(), "ab");
}

TEST(TreeTest, FirstChildLabeled) {
  NodeIdGen gen;
  TreePtr root = TreeNode::Element("r", &gen);
  root->AddChild(MakeTextElement("a", "1", &gen));
  root->AddChild(MakeTextElement("b", "2", &gen));
  TreeNode* b = root->FirstChildLabeled(InternLabel("b"));
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->StringValue(), "2");
  EXPECT_EQ(root->FirstChildLabeled(InternLabel("zz")), nullptr);
}

TEST(LabelInternerTest, InternIsIdempotent) {
  LabelId a = InternLabel("some-label");
  LabelId b = InternLabel("some-label");
  EXPECT_EQ(a, b);
  EXPECT_EQ(LabelText(a), "some-label");
}

TEST(LabelInternerTest, WellKnownLabels) {
  const WellKnownLabels& wk = WellKnownLabels::Get();
  EXPECT_EQ(LabelText(wk.sc), "sc");
  EXPECT_EQ(LabelText(wk.peer), "peer");
  EXPECT_EQ(LabelText(wk.service), "service");
  EXPECT_EQ(LabelText(wk.forw), "forw");
}

}  // namespace
}  // namespace axml
