// Tests for the GraphView convenience helpers shared by every view
// implementation (store, CSR, temporal), and the property contract every
// view must satisfy.

#include "graph/graph_view.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/crc32c.h"
#include "graph/csr_view.h"
#include "graph/graph_store.h"
#include "graph/snapshot.h"
#include "temporal/version_store.h"

namespace frappe::graph {
namespace {

class GraphViewTest : public ::testing::Test {
 protected:
  void SetUp() override {
    name_ = store_.InternKey("short_name");
    value_ = store_.InternKey("value");
    fn_ = store_.AddNode("function");
    store_.SetNodeProperty(fn_, name_, store_.StringValue("main"));
    store_.SetNodeProperty(fn_, value_, Value::Int(7));
    file_ = store_.AddNode("file");
    edge_ = store_.AddEdge(file_, fn_, "file_contains");
    store_.SetEdgeProperty(edge_, name_, store_.StringValue("ref"));
  }

  GraphStore store_;
  KeyId name_, value_;
  NodeId fn_, file_;
  EdgeId edge_;
};

TEST_F(GraphViewTest, GetNodeStringResolvesInternedValue) {
  EXPECT_EQ(store_.GetNodeString(fn_, name_), "main");
}

TEST_F(GraphViewTest, GetNodeStringOnNonStringPropertyIsEmpty) {
  EXPECT_EQ(store_.GetNodeString(fn_, value_), "");
}

TEST_F(GraphViewTest, GetNodeStringOnAbsentKeyIsEmpty) {
  EXPECT_EQ(store_.GetNodeString(fn_, store_.InternKey("absent")), "");
}

TEST_F(GraphViewTest, GetEdgeStringResolves) {
  EXPECT_EQ(store_.GetEdgeString(edge_, name_), "ref");
  EXPECT_EQ(store_.GetEdgeString(edge_, value_), "");
}

TEST_F(GraphViewTest, TypeNameHelpers) {
  EXPECT_EQ(store_.NodeTypeName(fn_), "function");
  EXPECT_EQ(store_.EdgeTypeName(edge_), "file_contains");
}

TEST_F(GraphViewTest, DegreeSumsBothDirections) {
  EXPECT_EQ(store_.Degree(fn_), 1u);
  EXPECT_EQ(store_.Degree(file_), 1u);
  store_.AddEdge(fn_, file_, "x");
  EXPECT_EQ(store_.Degree(fn_), 2u);
}

TEST_F(GraphViewTest, ForEachEdgeGlobalSkipsDead) {
  EdgeId second = store_.AddEdge(file_, fn_, "includes");
  store_.RemoveEdge(edge_);
  std::vector<EdgeId> seen;
  store_.ForEachEdgeGlobal([&](EdgeId e) { seen.push_back(e); });
  EXPECT_EQ(seen, std::vector<EdgeId>{second});
}

TEST_F(GraphViewTest, ForEachNodeVisitsAllLive) {
  size_t count = 0;
  store_.ForEachNode([&](NodeId) { ++count; });
  EXPECT_EQ(count, 2u);
}

// One versioned graph, three versions. v1 overwrites a node and an edge
// property of v0 and erases a node key with a null; it also removes a node
// (cascading to its edge) and adds one. v2 overwrites again, so v1's values
// live only in the property history.
class PropertyContractTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GraphStore& raw = vs_.raw_store();
    name_ = raw.InternKey("name");
    line_ = raw.InternKey("line");
    weight_ = raw.InternKey("weight");
    flag_ = raw.InternKey("flag");
    gone_ = raw.InternKey("gone");
    absent_ = raw.InternKey("absent");  // never set on any record

    a_ = vs_.AddNode("function");
    b_ = vs_.AddNode("function");
    c_ = vs_.AddNode("file");
    d_ = vs_.AddNode("function");
    vs_.SetNodeProperty(a_, name_, raw.StringValue("a"));
    vs_.SetNodeProperty(a_, line_, Value::Int(1));
    vs_.SetNodeProperty(a_, weight_, Value::Double(0.5));
    vs_.SetNodeProperty(a_, flag_, Value::Bool(true));
    vs_.SetNodeProperty(a_, gone_, Value::Int(7));
    vs_.SetNodeProperty(b_, name_, raw.StringValue("b"));
    vs_.SetNodeProperty(b_, line_, Value::Int(2));
    vs_.SetNodeProperty(c_, name_, raw.StringValue("c.c"));
    vs_.SetNodeProperty(d_, name_, raw.StringValue("d"));
    ab_ = vs_.AddEdge(a_, b_, "calls");
    vs_.SetEdgeProperty(ab_, line_, Value::Int(10));
    vs_.SetEdgeProperty(ab_, gone_, Value::Bool(false));
    vs_.AddEdge(c_, a_, "file_contains");
    vs_.AddEdge(a_, d_, "calls");
    vs_.CommitVersion();  // v0

    vs_.SetNodeProperty(a_, line_, Value::Int(100));
    vs_.SetNodeProperty(a_, gone_, Value::Null());
    vs_.SetEdgeProperty(ab_, line_, Value::Int(11));
    vs_.SetEdgeProperty(ab_, gone_, Value::Null());
    vs_.RemoveNode(d_);
    e_ = vs_.AddNode("function");
    vs_.SetNodeProperty(e_, name_, raw.StringValue("e"));
    EdgeId be = vs_.AddEdge(b_, e_, "calls");
    vs_.SetEdgeProperty(be, weight_, Value::Double(-2.25));
    vs_.CommitVersion();  // v1

    vs_.SetNodeProperty(a_, line_, Value::Int(1000));
    vs_.SetNodeProperty(b_, name_, raw.StringValue("b2"));
    vs_.CommitVersion();  // v2
  }

  temporal::VersionStore vs_;
  KeyId name_, line_, weight_, flag_, gone_, absent_;
  NodeId a_, b_, c_, d_, e_;
  EdgeId ab_;
};

// For each live node and edge of `want`, `got` returns an identical span,
// sorted by key, and the same Get*Property value for every interned key,
// absent ones included.
void ExpectSameProperties(const GraphView& want, const GraphView& got) {
  auto sorted = [](std::span<const PropertyMap::Entry> props) {
    return std::adjacent_find(props.begin(), props.end(),
                              [](const auto& a, const auto& b) {
                                return a.key >= b.key;
                              }) == props.end();
  };
  ASSERT_EQ(got.NodeIdUpperBound(), want.NodeIdUpperBound());
  ASSERT_EQ(got.EdgeIdUpperBound(), want.EdgeIdUpperBound());
  for (NodeId id = 0; id < want.NodeIdUpperBound(); ++id) {
    ASSERT_EQ(got.NodeExists(id), want.NodeExists(id)) << "node " << id;
    if (!want.NodeExists(id)) continue;
    EXPECT_TRUE(std::ranges::equal(got.NodeProperties(id),
                                   want.NodeProperties(id)))
        << "node " << id;
    EXPECT_TRUE(sorted(got.NodeProperties(id))) << "node " << id;
    for (KeyId key = 0; key < want.keys().size(); ++key) {
      EXPECT_TRUE(got.GetNodeProperty(id, key) ==
                  want.GetNodeProperty(id, key))
          << "node " << id << " key " << want.keys().Name(key);
    }
  }
  for (EdgeId id = 0; id < want.EdgeIdUpperBound(); ++id) {
    ASSERT_EQ(got.EdgeExists(id), want.EdgeExists(id)) << "edge " << id;
    if (!want.EdgeExists(id)) continue;
    EXPECT_TRUE(std::ranges::equal(got.EdgeProperties(id),
                                   want.EdgeProperties(id)))
        << "edge " << id;
    EXPECT_TRUE(sorted(got.EdgeProperties(id))) << "edge " << id;
    for (KeyId key = 0; key < want.keys().size(); ++key) {
      EXPECT_TRUE(got.GetEdgeProperty(id, key) ==
                  want.GetEdgeProperty(id, key))
          << "edge " << id << " key " << want.keys().Name(key);
    }
  }
}

// The contract a new view must meet: at every version the temporal view,
// a CSR built over it, its own Packed() copy and a materialized GraphStore
// all read the same properties, and so do the raw store and its CSRs.
TEST_F(PropertyContractTest, EveryViewReadsTheSameSortedProperties) {
  for (temporal::Version v = 0; v < 3; ++v) {
    SCOPED_TRACE("version " + std::to_string(v));
    auto view = vs_.ViewAt(v);
    ASSERT_TRUE(view.ok());
    auto copy = vs_.MaterializeVersion(v);
    ASSERT_TRUE(copy.ok());
    ExpectSameProperties(**copy, **view);
    ExpectSameProperties(**copy, CsrView::Build(**view));
    ExpectSameProperties(**copy, (*view)->Packed());
    ExpectSameProperties(**copy, CsrView::Build(**copy));
    ExpectSameProperties(**copy, (*copy)->Packed());
  }
  // The raw store holds every version's records, removed ones included.
  const GraphStore& latest = vs_.raw_store();
  ExpectSameProperties(latest, CsrView::Build(latest));
  ExpectSameProperties(latest, latest.Packed());

  // The history itself: overwritten values, a key erased by a null, and a
  // removed node, each read at the version it belongs to.
  auto v0 = vs_.ViewAt(0);
  auto v1 = vs_.ViewAt(1);
  ASSERT_TRUE(v0.ok() && v1.ok());
  EXPECT_EQ((*v0)->GetNodeProperty(a_, line_).AsInt(), 1);
  EXPECT_EQ((*v1)->GetNodeProperty(a_, line_).AsInt(), 100);
  EXPECT_EQ(latest.GetNodeProperty(a_, line_).AsInt(), 1000);
  EXPECT_EQ((*v0)->GetNodeProperty(a_, gone_).AsInt(), 7);
  EXPECT_TRUE((*v1)->GetNodeProperty(a_, gone_).is_null());
  EXPECT_EQ((*v0)->GetEdgeProperty(ab_, line_).AsInt(), 10);
  EXPECT_EQ((*v1)->GetEdgeProperty(ab_, line_).AsInt(), 11);
  EXPECT_FALSE((*v0)->GetEdgeProperty(ab_, gone_).is_null());
  EXPECT_TRUE((*v1)->GetEdgeProperty(ab_, gone_).is_null());
  EXPECT_EQ((*v1)->GetNodeString(b_, name_), "b");
  EXPECT_EQ(latest.GetNodeString(b_, name_), "b2");
  EXPECT_EQ((*v0)->NodeProperties(a_).size(), 5u);
  EXPECT_EQ((*v1)->NodeProperties(a_).size(), 4u);
  EXPECT_TRUE((*v0)->GetNodeProperty(a_, absent_).is_null());
  EXPECT_TRUE((*v0)->NodeExists(d_));
  EXPECT_FALSE((*v1)->NodeExists(d_));
  EXPECT_FALSE((*v0)->NodeExists(e_));
}

// CRC32C over the section ids and payloads of a v2 snapshot, skipping the
// framing. A CRC over the whole file would pin only the layout: each
// section ends in its payload's own CRC32C, which cancels the payload out
// of a running CRC, leaving the header and section lengths.
uint32_t SectionCrc(const std::string& bytes) {
  constexpr size_t kHeader = 8 + 3 * sizeof(uint32_t);  // magic, ver, ...
  uint32_t sections;
  std::memcpy(&sections, bytes.data() + kHeader - sizeof(uint32_t),
              sizeof(sections));
  uint32_t crc = 0;
  size_t pos = kHeader;
  for (uint32_t i = 0; i < sections; ++i) {
    uint64_t len;
    std::memcpy(&len, bytes.data() + pos + sizeof(uint32_t), sizeof(len));
    crc = common::Crc32cExtend(crc, bytes.data() + pos, sizeof(uint32_t));
    pos += sizeof(uint32_t) + sizeof(len);
    crc = common::Crc32cExtend(crc, bytes.data() + pos, len);
    pos += len + sizeof(uint32_t);
  }
  return crc;
}

// The v2 snapshot bytes of each version, pinned: Table 4 is measured from
// them, so the writer's way of reading properties must not move a byte.
TEST_F(PropertyContractTest, SnapshotBytesArePinned) {
  struct Pin {
    size_t size;
    uint32_t crc;
  };
  const Pin kWant[] = {
      {478, 0x42920bf1}, {467, 0x81d4dcd0}, {467, 0x761e3796}};
  for (temporal::Version v = 0; v < 3; ++v) {
    auto view = vs_.ViewAt(v);
    ASSERT_TRUE(view.ok());
    std::string bytes;
    ASSERT_TRUE(SerializeSnapshot(**view, &bytes).ok());
    auto copy = vs_.MaterializeVersion(v);
    ASSERT_TRUE(copy.ok());
    std::string copy_bytes;
    ASSERT_TRUE(SerializeSnapshot(**copy, &copy_bytes).ok());
    EXPECT_EQ(bytes, copy_bytes) << "version " << v;
    EXPECT_EQ(bytes.size(), kWant[v].size) << "version " << v;
    EXPECT_EQ(SectionCrc(bytes), kWant[v].crc)
        << "version " << v << ": 0x" << std::hex << SectionCrc(bytes);
  }
}

TEST(ValueToStringTest, DoubleRendering) {
  StringPool pool;
  EXPECT_EQ(Value::Double(2.5).ToString(pool), "2.5");
}

}  // namespace
}  // namespace frappe::graph
