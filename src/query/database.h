#ifndef FRAPPE_QUERY_DATABASE_H_
#define FRAPPE_QUERY_DATABASE_H_

#include <functional>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "graph/csr_view.h"
#include "graph/graph_view.h"
#include "graph/indexes.h"
#include "graph/stats_catalog.h"

namespace frappe::query {

// Everything the executor needs to resolve a query against a graph:
// the graph itself, the auto name index (START lookups), the label index
// (label-scan start points) and name-resolution hooks.
//
// The resolution hooks decouple the query engine from the Frappé code-graph
// schema: `resolve_label` may expand a group label ("symbol") into several
// concrete node type ids (Table 6 semantics), and `resolve_property` may
// canonicalize paper spelling variants (NAME_START_COLUMN).
struct Database {
  const graph::GraphView* view = nullptr;
  const graph::NameIndex* name_index = nullptr;    // may be null
  const graph::LabelIndex* label_index = nullptr;  // may be null

  // Returns all node type ids matching a label written in a query. Empty
  // means "unknown label" (matches nothing).
  std::function<std::vector<graph::TypeId>(std::string_view)> resolve_label;

  // Returns the edge type id for a relationship type name, or nullopt.
  std::function<std::optional<graph::TypeId>(std::string_view)>
      resolve_edge_type;

  // Returns the property key id for a (possibly aliased) property name.
  std::function<std::optional<graph::KeyId>(std::string_view)>
      resolve_property;

  // Property used when rendering nodes in result output (optional).
  graph::KeyId display_name_key = graph::kInvalidKey;

  // The view's own packed-adjacency cache (view->PackedCache()), read by
  // the executor's closure and reachability fast paths. Plain /
  // MakeFrappeDatabase share it, so the fast paths and the analysis API
  // hold one CSR per view; a null cache disables the fast paths. Mutating
  // a GraphStore bumps its TopologyVersion(), which makes the next Get()
  // rebuild.
  std::shared_ptr<graph::CsrCache> csr;

  // Cardinality statistics feeding the plan estimator (est_rows /
  // q-error). Populated by the FQL ANALYZE command or from a loaded
  // snapshot's stats section; an empty cache degrades the estimator to
  // live label/index probes. Shared so ANALYZE on one session's database
  // refreshes every reader of the same graph.
  std::shared_ptr<graph::StatsCatalogCache> stats;

  // Builds a Database with schema-unaware defaults: labels resolve by exact
  // (case-insensitive) registry lookup, properties by lowercased name.
  static Database Plain(const graph::GraphView& view,
                        const graph::NameIndex* name_index = nullptr,
                        const graph::LabelIndex* label_index = nullptr);
};

}  // namespace frappe::query

#endif  // FRAPPE_QUERY_DATABASE_H_
