#ifndef FRAPPE_GRAPH_STATS_CATALOG_H_
#define FRAPPE_GRAPH_STATS_CATALOG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/indexes.h"
#include "graph/stats.h"

namespace frappe::graph {

// Cardinality statistics written as an optional CRC-framed snapshot
// section. Nothing reads the section back: loading verifies its CRC and
// skips it. It stays only because the ingest-publish benchmark builds and
// saves a catalog in every cycle.
//
// The catalog intentionally stores *summaries*, not per-node data: type
// counts, per-edge-type directional degree histograms (the kernel graph is
// heavily skewed — `int` alone has ~79K edges, paper Table 3/Fig. 7), the
// top-K hub list, and per-index-field term cardinalities. Serialized size
// is a few KB even for multi-million-edge graphs.
struct StatsCatalog {
  static constexpr uint32_t kFormatVersion = 1;
  static constexpr size_t kDefaultHubCount = 16;

  // Totals at build time.
  uint64_t node_count = 0;
  uint64_t edge_count = 0;

  struct NodeTypeStats {
    std::string name;
    uint64_t count = 0;
  };
  // Indexed by TypeId (dense, matches the node-type registry at build).
  std::vector<NodeTypeStats> node_types;

  struct EdgeTypeStats {
    std::string name;
    uint64_t count = 0;
    uint64_t distinct_sources = 0;  // nodes with >= 1 out-edge of this type
    uint64_t distinct_targets = 0;  // nodes with >= 1 in-edge of this type
    // Log-binned degree histograms restricted to this edge type, one per
    // direction. Bins cover only nodes that participate (degree >= 1).
    std::vector<DegreeBin> out_degrees;
    std::vector<DegreeBin> in_degrees;
  };
  // Indexed by TypeId (dense, matches the edge-type registry at build).
  std::vector<EdgeTypeStats> edge_types;

  // Highest total-degree nodes (paper hubs: `int`, `NULL`, ...).
  std::vector<HubNode> hubs;

  struct IndexFieldStats {
    std::string field;            // lucene field name, e.g. "short_name"
    uint64_t distinct_terms = 0;
    uint64_t postings = 0;        // total (term, node) pairs
  };
  std::vector<IndexFieldStats> index_fields;

  // Serialized byte size (what the snapshot stats section will cost).
  uint64_t ByteSize() const;

  void Serialize(std::string* out) const;
};

// Scans `view` (two passes: nodes, edges) and the optional name index.
// Hub names resolve via the "short_name" key when the schema has one.
StatsCatalog BuildStatsCatalog(const GraphView& view,
                               const NameIndex* name_index = nullptr,
                               size_t hub_count =
                                   StatsCatalog::kDefaultHubCount);

}  // namespace frappe::graph

#endif  // FRAPPE_GRAPH_STATS_CATALOG_H_
