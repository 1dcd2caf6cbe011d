// StatsCatalog: build correctness on a known graph and the serialized
// size the snapshot's stats section reports. The section itself is
// covered in snapshot_test.

#include "graph/stats_catalog.h"

#include <gtest/gtest.h>

#include <string>

#include "graph/graph_store.h"

namespace frappe::graph {
namespace {

class StatsCatalogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    name_key_ = store_.InternKey("short_name");
    fn_ = store_.InternNodeType("function");
    prim_ = store_.InternNodeType("primitive");
    calls_ = store_.InternEdgeType("calls");
    isa_ = store_.InternEdgeType("isa_type");

    // One hub (`int`) every function points at, plus a call chain.
    hub_ = store_.AddNode(prim_);
    store_.SetNodeProperty(hub_, name_key_, store_.StringValue("int"));
    NodeId prev = kInvalidNode;
    for (int i = 0; i < 8; ++i) {
      NodeId f = store_.AddNode(fn_);
      store_.SetNodeProperty(f, name_key_,
                             store_.StringValue("f" + std::to_string(i)));
      store_.AddEdge(f, hub_, isa_);
      if (prev != kInvalidNode) store_.AddEdge(prev, f, calls_);
      prev = f;
    }
    index_ = NameIndex::Build(
        store_, {{"short_name", name_key_, /*is_type_field=*/false}});
  }

  GraphStore store_;
  KeyId name_key_ = kInvalidKey;
  TypeId fn_ = kInvalidType;
  TypeId prim_ = kInvalidType;
  TypeId calls_ = kInvalidType;
  TypeId isa_ = kInvalidType;
  NodeId hub_ = kInvalidNode;
  NameIndex index_;
};

TEST_F(StatsCatalogTest, BuildCountsTypesAndFanouts) {
  StatsCatalog catalog = BuildStatsCatalog(store_, &index_);
  EXPECT_EQ(catalog.node_count, 9u);
  EXPECT_EQ(catalog.edge_count, 15u);  // 8 isa + 7 calls

  ASSERT_EQ(catalog.node_types.size(), 2u);
  EXPECT_EQ(catalog.node_types[prim_].name, "primitive");
  EXPECT_EQ(catalog.node_types[prim_].count, 1u);
  EXPECT_EQ(catalog.node_types[fn_].name, "function");
  EXPECT_EQ(catalog.node_types[fn_].count, 8u);

  ASSERT_EQ(catalog.edge_types.size(), 2u);
  const StatsCatalog::EdgeTypeStats& isa = catalog.edge_types[isa_];
  EXPECT_EQ(isa.name, "isa_type");
  EXPECT_EQ(isa.count, 8u);
  EXPECT_EQ(isa.distinct_sources, 8u);  // every function
  EXPECT_EQ(isa.distinct_targets, 1u);  // all into the hub
  EXPECT_FALSE(isa.out_degrees.empty());
  EXPECT_FALSE(isa.in_degrees.empty());

  const StatsCatalog::EdgeTypeStats& calls = catalog.edge_types[calls_];
  EXPECT_EQ(calls.count, 7u);
  EXPECT_EQ(calls.distinct_sources, 7u);
  EXPECT_EQ(calls.distinct_targets, 7u);

  // The hub tops the hub list with total degree 8.
  ASSERT_FALSE(catalog.hubs.empty());
  EXPECT_EQ(catalog.hubs[0].id, hub_);
  EXPECT_EQ(catalog.hubs[0].degree, 8u);
  EXPECT_EQ(catalog.hubs[0].short_name, "int");

  // short_name indexes 9 distinct names, one posting each.
  ASSERT_EQ(catalog.index_fields.size(), 1u);
  EXPECT_EQ(catalog.index_fields[0].field, "short_name");
  EXPECT_EQ(catalog.index_fields[0].distinct_terms, 9u);
  EXPECT_EQ(catalog.index_fields[0].postings, 9u);
}

TEST_F(StatsCatalogTest, DegreeBinsCoverParticipantsOnly) {
  StatsCatalog catalog = BuildStatsCatalog(store_);
  const StatsCatalog::EdgeTypeStats& isa = catalog.edge_types[isa_];
  uint64_t out_total = 0;
  for (const DegreeBin& bin : isa.out_degrees) out_total += bin.node_count;
  EXPECT_EQ(out_total, isa.distinct_sources);
  uint64_t in_total = 0;
  for (const DegreeBin& bin : isa.in_degrees) in_total += bin.node_count;
  EXPECT_EQ(in_total, isa.distinct_targets);
}

TEST_F(StatsCatalogTest, EmptyGraphCatalog) {
  GraphStore empty;
  StatsCatalog catalog = BuildStatsCatalog(empty);
  EXPECT_EQ(catalog.node_count, 0u);
  EXPECT_EQ(catalog.edge_count, 0u);
  EXPECT_TRUE(catalog.hubs.empty());
}

TEST_F(StatsCatalogTest, ByteSizeIsTheSerializedLength) {
  StatsCatalog catalog = BuildStatsCatalog(store_, &index_);
  std::string bytes;
  catalog.Serialize(&bytes);
  EXPECT_GT(bytes.size(), 0u);
  EXPECT_EQ(catalog.ByteSize(), bytes.size());
}

}  // namespace
}  // namespace frappe::graph
