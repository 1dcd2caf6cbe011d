#include "model/code_graph.h"

#include <gtest/gtest.h>

namespace frappe::model {
namespace {

using graph::EdgeId;
using graph::NodeId;

class CodeGraphTest : public ::testing::Test {
 protected:
  CodeGraph cg_;
};

TEST_F(CodeGraphTest, AddNodeSetsTypeAndShortName) {
  NodeId fn = cg_.AddNode(NodeKind::kFunction, "main");
  EXPECT_EQ(cg_.KindOf(fn), NodeKind::kFunction);
  EXPECT_EQ(cg_.ShortName(fn), "main");
}

TEST_F(CodeGraphTest, NamePropertiesIndependent) {
  NodeId field = cg_.AddNode(NodeKind::kField, "id");
  cg_.SetName(field, "message::id");
  cg_.SetLongName(field, "struct message::id");
  const auto& store = cg_.store();
  EXPECT_EQ(store.GetNodeString(field, cg_.key_id(PropKey::kShortName)), "id");
  EXPECT_EQ(store.GetNodeString(field, cg_.key_id(PropKey::kName)),
            "message::id");
  EXPECT_EQ(store.GetNodeString(field, cg_.key_id(PropKey::kLongName)),
            "struct message::id");
}

TEST_F(CodeGraphTest, FlagsAndEnumValue) {
  NodeId fn = cg_.AddNode(NodeKind::kFunction, "printf_like");
  cg_.MarkVariadic(fn);
  cg_.MarkInMacro(fn);
  NodeId en = cg_.AddNode(NodeKind::kEnumerator, "RED");
  cg_.SetEnumValue(en, 3);
  const auto& store = cg_.store();
  EXPECT_TRUE(
      store.GetNodeProperty(fn, cg_.key_id(PropKey::kVariadic)).AsBool());
  EXPECT_TRUE(
      store.GetNodeProperty(fn, cg_.key_id(PropKey::kInMacro)).AsBool());
  EXPECT_TRUE(
      store.GetNodeProperty(fn, cg_.key_id(PropKey::kVirtual)).is_null());
  EXPECT_EQ(store.GetNodeProperty(en, cg_.key_id(PropKey::kValue)).AsInt(), 3);
}

TEST_F(CodeGraphTest, PrimitiveNodesAreShared) {
  NodeId a = cg_.Primitive("int");
  NodeId b = cg_.Primitive("int");
  NodeId c = cg_.Primitive("char");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(cg_.KindOf(a), NodeKind::kPrimitive);
}

TEST_F(CodeGraphTest, CheckedEdgeAcceptsValidEndpoints) {
  NodeId caller = cg_.AddNode(NodeKind::kFunction, "main");
  NodeId callee = cg_.AddNode(NodeKind::kFunction, "bar");
  auto e = cg_.AddEdge(EdgeKind::kCalls, caller, callee);
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(cg_.EdgeKindOf(*e), EdgeKind::kCalls);
}

TEST_F(CodeGraphTest, CheckedEdgeRejectsInvalidEndpoints) {
  NodeId file = cg_.AddNode(NodeKind::kFile, "main.c");
  NodeId fn = cg_.AddNode(NodeKind::kFunction, "main");
  auto bad = cg_.AddEdge(EdgeKind::kCalls, file, fn);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  // The error message names the offending kinds.
  EXPECT_NE(bad.status().message().find("calls"), std::string::npos);
  EXPECT_NE(bad.status().message().find("file"), std::string::npos);
}

TEST_F(CodeGraphTest, CheckedEdgeRejectsDeadEndpoints) {
  NodeId caller = cg_.AddNode(NodeKind::kFunction, "main");
  auto bad = cg_.AddEdge(EdgeKind::kCalls, caller, 9999);
  EXPECT_FALSE(bad.ok());
}

TEST_F(CodeGraphTest, UncheckedEdgeBypassesValidation) {
  NodeId file = cg_.AddNode(NodeKind::kFile, "main.c");
  NodeId fn = cg_.AddNode(NodeKind::kFunction, "main");
  EdgeId e = cg_.AddEdgeUnchecked(EdgeKind::kCalls, file, fn);
  EXPECT_NE(e, graph::kInvalidEdge);
}

TEST_F(CodeGraphTest, ValidationOffModeSkipsChecks) {
  CodeGraph loose(CodeGraph::Validation::kOff);
  NodeId file = loose.AddNode(NodeKind::kFile, "main.c");
  NodeId fn = loose.AddNode(NodeKind::kFunction, "main");
  auto e = loose.AddEdge(EdgeKind::kCalls, file, fn);
  EXPECT_TRUE(e.ok());
}

TEST_F(CodeGraphTest, SourceRangesRoundTrip) {
  NodeId caller = cg_.AddNode(NodeKind::kFunction, "sr_media_change");
  NodeId callee = cg_.AddNode(NodeKind::kFunction, "get_sectorsize");
  EdgeId e = *cg_.AddEdge(EdgeKind::kCalls, caller, callee);

  SourceRange use{/*file_id=*/12345, 236, 9, 236, 40};
  SourceRange name{12345, 236, 9, 236, 23};
  cg_.SetUseRange(e, use);
  cg_.SetNameRange(e, name);
  EXPECT_EQ(cg_.UseRange(e), use);
  EXPECT_EQ(cg_.NameRange(e), name);
}

TEST_F(CodeGraphTest, MissingRangeReadsAsInvalid) {
  NodeId a = cg_.AddNode(NodeKind::kFunction, "a");
  NodeId b = cg_.AddNode(NodeKind::kFunction, "b");
  EdgeId e = *cg_.AddEdge(EdgeKind::kCalls, a, b);
  EXPECT_FALSE(cg_.UseRange(e).valid());
  EXPECT_FALSE(cg_.NameRange(e).valid());
}

TEST_F(CodeGraphTest, IsaTypeQualifiers) {
  // Paper Figure 2: argv -isa_type-> char with QUALIFIER "**".
  NodeId argv = cg_.AddNode(NodeKind::kParameter, "argv");
  NodeId chr = cg_.Primitive("char");
  EdgeId e = *cg_.AddEdge(EdgeKind::kIsaType, argv, chr);
  cg_.SetQualifiers(e, "**");
  EXPECT_EQ(cg_.store().GetEdgeString(e, cg_.key_id(PropKey::kQualifiers)),
            "**");
}

TEST_F(CodeGraphTest, ParamIndexAndLinkOrder) {
  NodeId fn = cg_.AddNode(NodeKind::kFunction, "main");
  NodeId argc = cg_.AddNode(NodeKind::kParameter, "argc");
  EdgeId hp = *cg_.AddEdge(EdgeKind::kHasParam, fn, argc);
  cg_.SetParamIndex(hp, 0);
  EXPECT_EQ(
      cg_.store().GetEdgeProperty(hp, cg_.key_id(PropKey::kIndex)).AsInt(), 0);

  NodeId prog = cg_.AddNode(NodeKind::kModule, "prog");
  NodeId obj = cg_.AddNode(NodeKind::kModule, "foo.o");
  EdgeId lf = *cg_.AddEdge(EdgeKind::kLinkedFrom, prog, obj);
  cg_.SetLinkOrder(lf, 1);
  EXPECT_EQ(
      cg_.store().GetEdgeProperty(lf, cg_.key_id(PropKey::kLinkOrder)).AsInt(),
      1);
}

TEST_F(CodeGraphTest, BuildNameIndexCoversAllFields) {
  NodeId fn = cg_.AddNode(NodeKind::kFunction, "pci_read_bases");
  cg_.SetName(fn, "pci_read_bases");
  cg_.SetLongName(fn, "drivers/pci/probe.c::pci_read_bases");
  auto index = cg_.BuildNameIndex();
  EXPECT_EQ(index.Lookup("short_name", "pci_read_bases"),
            std::vector<NodeId>{fn});
  EXPECT_EQ(index.Lookup("type", "function"), std::vector<NodeId>{fn});
  EXPECT_EQ(index.Lookup("long_name", "drivers/pci/probe.c::pci_read_bases"),
            std::vector<NodeId>{fn});
}

TEST_F(CodeGraphTest, EdgeKindOfNonSchemaEdgeIsCount) {
  NodeId a = cg_.AddNode(NodeKind::kFunction, "a");
  NodeId b = cg_.AddNode(NodeKind::kFunction, "b");
  graph::EdgeId e = cg_.store().AddEdge(a, b, "custom_edge");
  EXPECT_EQ(cg_.EdgeKindOf(e), EdgeKind::kCount);
}

}  // namespace
}  // namespace frappe::model
