#include "graph/snapshot.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "graph/graph_store.h"
#include "graph/stats_catalog.h"
#include "obs/metrics.h"

namespace frappe::graph {
namespace {

// Builds a store exercising every value type, properties on nodes and
// edges, and tombstoned ids.
GraphStore BuildFixture() {
  GraphStore store;
  NodeId a = store.AddNode("function");
  store.SetNodeProperty(a, "short_name", store.StringValue("main"));
  store.SetNodeProperty(a, "variadic", Value::Bool(true));
  NodeId dead = store.AddNode("function");
  NodeId b = store.AddNode("file");
  store.SetNodeProperty(b, "long_name", store.StringValue("/src/main.c"));
  store.SetNodeProperty(b, "value", Value::Double(1.5));
  EdgeId e1 = store.AddEdge(a, b, "file_contains");
  store.SetEdgeProperty(e1, "use_start_line", Value::Int(104));
  EdgeId dead_edge = store.AddEdge(a, b, "calls");
  store.RemoveEdge(dead_edge);
  store.RemoveNode(dead);
  return store;
}

TEST(SnapshotTest, RoundTripPreservesEverything) {
  GraphStore original = BuildFixture();
  std::string blob;
  auto sizes = SerializeSnapshot(original, &blob);
  ASSERT_TRUE(sizes.ok());
  EXPECT_EQ(sizes->total(), blob.size());

  auto loaded = DeserializeSnapshot(blob);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  const GraphStore& restored = *loaded->store;

  EXPECT_EQ(restored.NodeCount(), original.NodeCount());
  EXPECT_EQ(restored.EdgeCount(), original.EdgeCount());
  EXPECT_EQ(restored.NodeIdUpperBound(), original.NodeIdUpperBound());
  EXPECT_EQ(restored.EdgeIdUpperBound(), original.EdgeIdUpperBound());

  // Same liveness layout.
  for (NodeId id = 0; id < original.NodeIdUpperBound(); ++id) {
    EXPECT_EQ(restored.NodeExists(id), original.NodeExists(id)) << id;
  }
  for (EdgeId id = 0; id < original.EdgeIdUpperBound(); ++id) {
    EXPECT_EQ(restored.EdgeExists(id), original.EdgeExists(id)) << id;
  }

  // Property values survive, including interned strings.
  NodeId a = 0, b = 2;
  EXPECT_EQ(restored.GetNodeString(a, restored.keys().Find("short_name")),
            "main");
  EXPECT_TRUE(restored
                  .GetNodeProperty(a, restored.keys().Find("variadic"))
                  .AsBool());
  EXPECT_EQ(restored.GetNodeString(b, restored.keys().Find("long_name")),
            "/src/main.c");
  EXPECT_DOUBLE_EQ(
      restored.GetNodeProperty(b, restored.keys().Find("value")).AsDouble(),
      1.5);
  EdgeId e1 = 0;
  Edge edge = restored.GetEdge(e1);
  EXPECT_EQ(edge.src, a);
  EXPECT_EQ(edge.dst, b);
  EXPECT_EQ(restored.EdgeTypeName(e1), "file_contains");
  EXPECT_EQ(
      restored.GetEdgeProperty(e1, restored.keys().Find("use_start_line"))
          .AsInt(),
      104);
}

TEST(SnapshotTest, RoundTripWithEmbeddedIndex) {
  GraphStore original = BuildFixture();
  NameIndex index = NameIndex::Build(
      original, {{"short_name", original.keys().Find("short_name"), false}});
  std::string blob;
  auto sizes = SerializeSnapshot(original, &blob, &index);
  ASSERT_TRUE(sizes.ok());
  EXPECT_GT(sizes->indexes, 0u);

  auto loaded = DeserializeSnapshot(blob);
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(loaded->index.has_value());
  EXPECT_EQ(loaded->index->Lookup("short_name", "main"),
            std::vector<NodeId>{0});
}

TEST(SnapshotTest, SizesSectionsAreConsistent) {
  GraphStore original = BuildFixture();
  std::string blob;
  auto sizes = SerializeSnapshot(original, &blob);
  ASSERT_TRUE(sizes.ok());
  EXPECT_GT(sizes->schema, 0u);
  EXPECT_GT(sizes->strings, 0u);
  EXPECT_GT(sizes->nodes, 0u);
  EXPECT_GT(sizes->relationships, 0u);
  EXPECT_GT(sizes->node_properties, 0u);
  EXPECT_GT(sizes->edge_properties, 0u);
  EXPECT_EQ(sizes->indexes, 0u);
  EXPECT_EQ(sizes->properties(),
            sizes->node_properties + sizes->edge_properties + sizes->strings);
}

TEST(SnapshotTest, EmptyGraphRoundTrips) {
  GraphStore empty;
  std::string blob;
  ASSERT_TRUE(SerializeSnapshot(empty, &blob).ok());
  auto loaded = DeserializeSnapshot(blob);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->store->NodeCount(), 0u);
  EXPECT_EQ(loaded->store->EdgeCount(), 0u);
}

TEST(SnapshotTest, RejectsBadMagic) {
  EXPECT_FALSE(DeserializeSnapshot("NOTADB00garbage").ok());
  EXPECT_FALSE(DeserializeSnapshot("").ok());
}

TEST(SnapshotTest, RejectsTruncation) {
  GraphStore original = BuildFixture();
  std::string blob;
  ASSERT_TRUE(SerializeSnapshot(original, &blob).ok());
  for (size_t frac = 1; frac < 8; ++frac) {
    size_t cut = blob.size() * frac / 8;
    auto result = DeserializeSnapshot(std::string_view(blob).substr(0, cut));
    EXPECT_FALSE(result.ok()) << "cut=" << cut;
  }
}

TEST(SnapshotTest, RejectsTrailingGarbage) {
  GraphStore original = BuildFixture();
  std::string blob;
  ASSERT_TRUE(SerializeSnapshot(original, &blob).ok());
  blob += "extra";
  EXPECT_FALSE(DeserializeSnapshot(blob).ok());
}

TEST(SnapshotTest, FileRoundTrip) {
  GraphStore original = BuildFixture();
  std::string path = ::testing::TempDir() + "/frappe_snapshot_test.db";
  auto sizes = SaveSnapshot(original, path);
  ASSERT_TRUE(sizes.ok()) << sizes.status();
  auto loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->store->NodeCount(), original.NodeCount());
  std::remove(path.c_str());
}

TEST(SnapshotTest, LoadMissingFileIsNotFound) {
  auto result = LoadSnapshot("/nonexistent/path/to.db");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

// --- v2 format: checksums, trailer, corruption reporting ---

struct Frame {
  uint32_t id = 0;
  size_t payload_off = 0;
  uint64_t payload_len = 0;
};

// Walks the v2 section framing: [20-byte header][id|len|payload|crc]*[16-byte
// trailer]. Mirrors the layout documented in snapshot.h.
std::vector<Frame> WalkFrames(const std::string& blob) {
  std::vector<Frame> frames;
  size_t pos = 20;
  size_t body_end = blob.size() - 16;
  while (pos < body_end) {
    Frame f;
    std::memcpy(&f.id, blob.data() + pos, 4);
    std::memcpy(&f.payload_len, blob.data() + pos + 4, 8);
    f.payload_off = pos + 12;
    frames.push_back(f);
    pos = f.payload_off + f.payload_len + 4;
  }
  return frames;
}

std::string SerializedFixture(bool with_index, GraphStore* out_store) {
  *out_store = BuildFixture();
  std::string blob;
  if (with_index) {
    NameIndex index = NameIndex::Build(
        *out_store,
        {{"short_name", out_store->keys().Find("short_name"), false}});
    EXPECT_TRUE(SerializeSnapshot(*out_store, &blob, &index).ok());
  } else {
    EXPECT_TRUE(SerializeSnapshot(*out_store, &blob).ok());
  }
  return blob;
}

TEST(SnapshotV2Test, ReportsFormatVersion) {
  GraphStore store;
  std::string blob = SerializedFixture(false, &store);
  auto loaded = DeserializeSnapshot(blob);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->format_version, 2u);
  EXPECT_TRUE(loaded->warnings.empty());
}

TEST(SnapshotV2Test, IndexlessGraphRoundTrips) {
  GraphStore store;
  std::string blob = SerializedFixture(false, &store);
  auto loaded = DeserializeSnapshot(blob);
  ASSERT_TRUE(loaded.ok());
  EXPECT_FALSE(loaded->index.has_value());
  EXPECT_EQ(loaded->store->NodeCount(), store.NodeCount());
}

TEST(SnapshotV2Test, ChecksumsOffStillRoundTrips) {
  GraphStore original = BuildFixture();
  SnapshotOptions options;
  options.checksums = false;
  std::string blob;
  auto sizes = SerializeSnapshot(original, &blob, nullptr, options);
  ASSERT_TRUE(sizes.ok());
  EXPECT_EQ(sizes->total(), blob.size());
  auto loaded = DeserializeSnapshot(blob);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->store->NodeCount(), original.NodeCount());
}

TEST(SnapshotV2Test, TruncationAtEverySectionBoundaryIsCorruption) {
  GraphStore store;
  std::string blob = SerializedFixture(true, &store);
  std::vector<size_t> cuts = {20};  // end of header
  for (const Frame& f : WalkFrames(blob)) {
    cuts.push_back(f.payload_off - 12);           // frame start
    cuts.push_back(f.payload_off);                // after id+len
    cuts.push_back(f.payload_off + f.payload_len);  // before section crc
    cuts.push_back(f.payload_off + f.payload_len + 4);  // frame end
  }
  cuts.push_back(blob.size() - 16);  // body end (trailer gone)
  cuts.push_back(blob.size() - 8);   // half the trailer
  cuts.push_back(blob.size() - 1);
  for (size_t cut : cuts) {
    auto result = DeserializeSnapshot(std::string_view(blob).substr(0, cut));
    ASSERT_FALSE(result.ok()) << "cut=" << cut;
    EXPECT_EQ(result.status().code(), StatusCode::kCorruption)
        << "cut=" << cut << ": " << result.status();
  }
}

TEST(SnapshotV2Test, CorruptionNamesSectionAndOffset) {
  GraphStore store;
  std::string blob = SerializedFixture(false, &store);
  // Flip one byte inside the nodes section payload.
  for (const Frame& f : WalkFrames(blob)) {
    if (f.id != 3) continue;  // nodes
    std::string bad = blob;
    bad[f.payload_off + 2] ^= 0x10;
    auto result = DeserializeSnapshot(bad);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
    EXPECT_NE(result.status().message().find("'nodes'"), std::string::npos)
        << result.status();
    EXPECT_NE(result.status().message().find("offset"), std::string::npos);
    return;
  }
  FAIL() << "nodes section not found";
}

TEST(SnapshotV2Test, HeaderFlagBitFlipIsDetected) {
  // Clearing the checksummed flag by a bit flip must not silently disable
  // verification: the trailer CRC covers the header.
  GraphStore store;
  std::string blob = SerializedFixture(false, &store);
  std::string bad = blob;
  bad[12] ^= 0x01;  // flags field, bit 0
  auto result = DeserializeSnapshot(bad);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
  EXPECT_NE(result.status().message().find("header"), std::string::npos);
}

TEST(SnapshotV2Test, TrailerLengthMismatchIsCorruption) {
  GraphStore store;
  std::string blob = SerializedFixture(false, &store);
  // Append garbage while keeping the old trailer bytes at the old place:
  // the trailer magic no longer sits at EOF.
  auto grown = DeserializeSnapshot(blob + std::string(32, 'x'));
  ASSERT_FALSE(grown.ok());
  EXPECT_EQ(grown.status().code(), StatusCode::kCorruption);
}

TEST(SnapshotV2Test, CorruptIndexPostingsDegradesToRebuild) {
  GraphStore store;
  std::string blob = SerializedFixture(true, &store);
  std::string bad = blob;
  bool found = false;
  for (const Frame& f : WalkFrames(blob)) {
    if (f.id != 7) continue;  // index
    bad[f.payload_off + f.payload_len - 1] ^= 0x01;  // inside postings
    found = true;
  }
  ASSERT_TRUE(found);
  auto loaded = DeserializeSnapshot(bad);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_FALSE(loaded->warnings.empty());
  EXPECT_NE(loaded->warnings[0].find("rebuilt"), std::string::npos);
  // The rebuilt index answers queries like the original would have.
  ASSERT_TRUE(loaded->index.has_value());
  EXPECT_EQ(loaded->index->Lookup("short_name", "main"),
            std::vector<NodeId>{0});
}

TEST(SnapshotV2Test, CorruptIndexSpecsDropsIndexButLoads) {
  GraphStore store;
  std::string blob = SerializedFixture(true, &store);
  std::string bad = blob;
  bool found = false;
  for (const Frame& f : WalkFrames(blob)) {
    if (f.id != 7) continue;
    bad[f.payload_off] ^= 0x04;  // spec_count: field specs unrecoverable
    found = true;
  }
  ASSERT_TRUE(found);
  auto loaded = DeserializeSnapshot(bad);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_FALSE(loaded->index.has_value());
  ASSERT_FALSE(loaded->warnings.empty());
  EXPECT_NE(loaded->warnings[0].find("dropped"), std::string::npos);
  // The graph data itself is intact.
  EXPECT_EQ(loaded->store->NodeCount(), store.NodeCount());
}

// --- the stats section: written when a caller passes a catalog (as the
// ingest-publish benchmark does), verified and skipped on load ---

std::string SerializedWithCatalog(const GraphStore& store,
                                  const NameIndex& index,
                                  SnapshotSizes* sizes) {
  StatsCatalog catalog = BuildStatsCatalog(store, &index);
  SnapshotOptions options;
  options.catalog = &catalog;
  std::string blob;
  auto saved = SerializeSnapshot(store, &blob, &index, options);
  EXPECT_TRUE(saved.ok()) << saved.status();
  if (saved.ok()) *sizes = *saved;
  return blob;
}

NameIndex FixtureIndex(const GraphStore& store) {
  return NameIndex::Build(
      store, {{"short_name", store.keys().Find("short_name"), false}});
}

TEST(SnapshotStatsSectionTest, LoadsLikeASnapshotWithoutOne) {
  GraphStore store = BuildFixture();
  NameIndex index = FixtureIndex(store);
  SnapshotSizes sizes;
  std::string with = SerializedWithCatalog(store, index, &sizes);
  EXPECT_GT(sizes.stats, 0u);
  EXPECT_EQ(sizes.total(), with.size());
  std::string without;
  ASSERT_TRUE(SerializeSnapshot(store, &without, &index).ok());

  auto a = DeserializeSnapshot(with);
  auto b = DeserializeSnapshot(without);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_TRUE(a->warnings.empty());
  EXPECT_EQ(a->sizes.stats, sizes.stats);
  EXPECT_EQ(a->store->NodeCount(), b->store->NodeCount());
  EXPECT_EQ(a->store->EdgeCount(), b->store->EdgeCount());
  for (EdgeId id = 0; id < b->store->EdgeIdUpperBound(); ++id) {
    ASSERT_EQ(a->store->EdgeExists(id), b->store->EdgeExists(id)) << id;
    if (!b->store->EdgeExists(id)) continue;
    EXPECT_EQ(a->store->GetEdge(id).src, b->store->GetEdge(id).src) << id;
    EXPECT_EQ(a->store->GetEdge(id).dst, b->store->GetEdge(id).dst) << id;
  }
  ASSERT_TRUE(a->index.has_value());
  ASSERT_TRUE(b->index.has_value());
  EXPECT_EQ(a->index->Lookup("short_name", "main"),
            b->index->Lookup("short_name", "main"));
  EXPECT_EQ(a->index->Lookup("short_name", "main"), std::vector<NodeId>{0});
}

TEST(SnapshotStatsSectionTest, AbsentWithoutACatalog) {
  GraphStore store = BuildFixture();
  std::string blob;
  auto sizes = SerializeSnapshot(store, &blob);
  ASSERT_TRUE(sizes.ok()) << sizes.status();
  EXPECT_EQ(sizes->stats, 0u);
  auto loaded = DeserializeSnapshot(blob);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->sizes.stats, 0u);
}

// A byte flipped inside the stats section fails only that section's CRC:
// the load succeeds with one warning and one stats_drops count.
TEST(SnapshotStatsSectionTest, CorruptSectionWarnsAndStillLoads) {
  GraphStore store = BuildFixture();
  NameIndex index = FixtureIndex(store);
  SnapshotSizes sizes;
  std::string bad = SerializedWithCatalog(store, index, &sizes);
  bool found = false;
  for (const Frame& f : WalkFrames(bad)) {
    if (f.id != 8) continue;  // stats
    bad[f.payload_off + f.payload_len / 2] ^= 0x5A;
    found = true;
  }
  ASSERT_TRUE(found);

  obs::Counter& drops =
      obs::Registry::Global().GetCounter("snapshot.load.stats_drops");
  const uint64_t drops_before = drops.Value();
  auto loaded = DeserializeSnapshot(bad);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ(loaded->warnings.size(), 1u);
  EXPECT_NE(loaded->warnings[0].find("stats"), std::string::npos)
      << loaded->warnings[0];
  EXPECT_EQ(drops.Value(), drops_before + 1);
  EXPECT_EQ(loaded->store->NodeCount(), store.NodeCount());
  EXPECT_EQ(loaded->store->EdgeCount(), store.EdgeCount());
  ASSERT_TRUE(loaded->index.has_value());
  EXPECT_EQ(loaded->index->Lookup("short_name", "main"),
            std::vector<NodeId>{0});
}

// 256 seeded single-bit corruptions: every flip must either surface as
// Status::Corruption or — only when it lands in the degradable index
// section — load with an explicit warning. Never a crash, never a silent
// wrong load (run under ASan/UBSan via the storage label lane).
class SnapshotBitFlipTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SnapshotBitFlipTest, SingleBitFlipNeverLoadsSilently) {
  GraphStore store;
  static const std::string blob = [] {
    GraphStore s;
    return SerializedFixture(true, &s);
  }();
  frappe::Rng rng(GetParam() * 7919 + 1);
  std::string bad = blob;
  size_t bit = rng.Uniform(blob.size() * 8);
  bad[bit / 8] ^= static_cast<char>(1u << (bit % 8));

  auto result = DeserializeSnapshot(bad);
  if (result.ok()) {
    EXPECT_FALSE(result->warnings.empty())
        << "bit " << bit << " loaded with no warning";
  } else {
    EXPECT_EQ(result.status().code(), StatusCode::kCorruption)
        << "bit " << bit << ": " << result.status();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotBitFlipTest,
                         ::testing::Range(uint64_t{0}, uint64_t{256}));

// --- v1 compatibility ---

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}
void PutU16(std::string* out, uint16_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void PutU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void PutU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void PutStr(std::string* out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

// A v1 snapshot (no framing, no checksums, no trailer), byte-for-byte what
// the pre-v2 writer produced: one function node named "main", one dead
// node, one edge.
std::string HandWrittenV1Blob(size_t* string_ref_offset = nullptr) {
  std::string blob = "FRAPPEDB";
  PutU32(&blob, 1);  // version
  PutU32(&blob, 6);  // section count
  PutU32(&blob, 1);  // schema
  PutU32(&blob, 2);  // node types
  PutStr(&blob, "function");
  PutStr(&blob, "file");
  PutU32(&blob, 1);  // edge types
  PutStr(&blob, "calls");
  PutU32(&blob, 1);  // keys
  PutStr(&blob, "short_name");
  PutU32(&blob, 2);  // strings
  PutU32(&blob, 1);
  PutStr(&blob, "main");
  PutU32(&blob, 3);  // nodes
  PutU32(&blob, 3);
  PutU16(&blob, 0);       // function node
  PutU16(&blob, 0xFFFF);  // tombstone
  PutU16(&blob, 1);       // file node
  PutU32(&blob, 4);  // node props (one map per live node)
  PutU32(&blob, 1);
  PutU16(&blob, 0);  // short_name
  PutU8(&blob, 4);   // ValueType::kString
  if (string_ref_offset != nullptr) *string_ref_offset = blob.size();
  PutU64(&blob, 0);  // string ref 0
  PutU32(&blob, 0);  // second live node: empty map
  PutU32(&blob, 5);  // edges
  PutU32(&blob, 1);
  PutU16(&blob, 0);  // calls
  PutU32(&blob, 0);
  PutU32(&blob, 2);
  PutU32(&blob, 6);  // edge props
  PutU32(&blob, 0);  // empty map
  return blob;
}

TEST(SnapshotV1CompatTest, V1BlobStillLoads) {
  auto loaded = DeserializeSnapshot(HandWrittenV1Blob());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->format_version, 1u);
  const GraphStore& store = *loaded->store;
  EXPECT_EQ(store.NodeCount(), 2u);
  EXPECT_EQ(store.EdgeCount(), 1u);
  EXPECT_FALSE(store.NodeExists(1));  // tombstone preserved
  EXPECT_EQ(store.GetNodeString(0, store.keys().Find("short_name")), "main");
  Edge e = store.GetEdge(0);
  EXPECT_EQ(e.src, 0u);
  EXPECT_EQ(e.dst, 2u);
}

TEST(SnapshotV1CompatTest, TruncatedV1IsCorruption) {
  std::string blob = HandWrittenV1Blob();
  for (size_t frac = 1; frac < 8; ++frac) {
    size_t cut = blob.size() * frac / 8;
    auto result = DeserializeSnapshot(std::string_view(blob).substr(0, cut));
    ASSERT_FALSE(result.ok()) << cut;
    EXPECT_EQ(result.status().code(), StatusCode::kCorruption) << cut;
  }
}

TEST(SnapshotV1CompatTest, V1DanglingStringRefIsCorruption) {
  // v1 had no checksums; the strict property validation must still catch a
  // string ref pointing past the pool.
  size_t ref_pos = 0;
  std::string blob = HandWrittenV1Blob(&ref_pos);
  uint64_t bogus = 999;
  blob.replace(ref_pos, sizeof(bogus),
               reinterpret_cast<const char*>(&bogus), sizeof(bogus));
  auto result = DeserializeSnapshot(blob);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
  EXPECT_NE(result.status().message().find("string ref"), std::string::npos);
}

// Property test: random graphs round-trip exactly.
class SnapshotRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SnapshotRandomTest, RandomGraphRoundTrips) {
  frappe::Rng rng(GetParam());
  GraphStore store;
  TypeId nt = store.InternNodeType("n");
  TypeId et = store.InternEdgeType("e");
  KeyId k1 = store.InternKey("k1");
  KeyId k2 = store.InternKey("k2");
  const size_t kNodes = 30;
  for (size_t i = 0; i < kNodes; ++i) {
    NodeId id = store.AddNode(nt);
    if (rng.Bernoulli(0.5)) {
      store.SetNodeProperty(id, k1, Value::Int(rng.UniformRange(-100, 100)));
    }
    if (rng.Bernoulli(0.3)) {
      store.SetNodeProperty(
          id, k2, store.StringValue("s" + std::to_string(rng.Uniform(10))));
    }
  }
  for (size_t i = 0; i < kNodes * 2; ++i) {
    EdgeId e = store.AddEdge(static_cast<NodeId>(rng.Uniform(kNodes)),
                             static_cast<NodeId>(rng.Uniform(kNodes)), et);
    if (rng.Bernoulli(0.5)) {
      store.SetEdgeProperty(e, k1, Value::Double(rng.NextDouble()));
    }
  }
  // Random deletions create tombstones.
  for (size_t i = 0; i < 5; ++i) {
    store.RemoveNode(static_cast<NodeId>(rng.Uniform(kNodes)));
  }

  std::string blob;
  ASSERT_TRUE(SerializeSnapshot(store, &blob).ok());
  auto loaded = DeserializeSnapshot(blob);
  ASSERT_TRUE(loaded.ok());
  const GraphStore& restored = *loaded->store;

  ASSERT_EQ(restored.NodeIdUpperBound(), store.NodeIdUpperBound());
  ASSERT_EQ(restored.EdgeIdUpperBound(), store.EdgeIdUpperBound());
  for (NodeId id = 0; id < store.NodeIdUpperBound(); ++id) {
    ASSERT_EQ(restored.NodeExists(id), store.NodeExists(id));
    if (!store.NodeExists(id)) continue;
    EXPECT_EQ(restored.NodeType(id), store.NodeType(id));
    EXPECT_TRUE(std::ranges::equal(restored.NodeProperties(id),
                                   store.NodeProperties(id)));
  }
  for (EdgeId id = 0; id < store.EdgeIdUpperBound(); ++id) {
    ASSERT_EQ(restored.EdgeExists(id), store.EdgeExists(id));
    if (!store.EdgeExists(id)) continue;
    Edge a = restored.GetEdge(id), b = store.GetEdge(id);
    EXPECT_EQ(a.src, b.src);
    EXPECT_EQ(a.dst, b.dst);
    EXPECT_EQ(a.type, b.type);
    EXPECT_TRUE(std::ranges::equal(restored.EdgeProperties(id),
                                   store.EdgeProperties(id)));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotRandomTest,
                         ::testing::Range(uint64_t{1}, uint64_t{9}));

}  // namespace
}  // namespace frappe::graph
