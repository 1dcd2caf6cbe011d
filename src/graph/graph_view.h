#ifndef FRAPPE_GRAPH_GRAPH_VIEW_H_
#define FRAPPE_GRAPH_GRAPH_VIEW_H_

#include <functional>
#include <memory>
#include <span>
#include <string_view>

#include "graph/ids.h"
#include "graph/property_map.h"
#include "graph/registry.h"
#include "graph/string_pool.h"
#include "graph/value.h"

namespace frappe::graph {

// Fixed part of an edge record.
struct Edge {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  TypeId type = kInvalidType;
};

// Direction of traversal relative to a node.
enum class Direction : uint8_t { kOut, kIn, kBoth };

class CsrCache;
class CsrView;

// Read-only interface over a property graph. `GraphStore` (the mutable
// store) and `temporal::VersionView` (a point-in-time view of a versioned
// graph) both implement it, so traversals, analyses, the query engine and
// the visualizer run unchanged against either.
//
// Iteration contract: node ids are dense in [0, NodeIdUpperBound()) but may
// contain holes after deletions; callers must check NodeExists(). Same for
// edges.
//
// Property contract: a record's properties are one span of entries sorted
// by key (NodeProperties/EdgeProperties), valid until the view is next
// mutated. Get*Property looks a key up in that span, so every view answers
// a property read the same way and implements only the span accessors.
//
// Every view owns one lazily built packed adjacency (Packed()), the CSR
// the analytics kernels, the analysis API and the executor's fast paths
// all read. A copy or a move starts with an empty cache; assignment
// empties the target's.
class GraphView {
 public:
  GraphView();
  GraphView(const GraphView& other);
  GraphView& operator=(const GraphView& other);
  virtual ~GraphView();

  // Shared vocabulary of the logical graph.
  virtual const NameRegistry& node_types() const = 0;
  virtual const NameRegistry& edge_types() const = 0;
  virtual const NameRegistry& keys() const = 0;
  virtual const StringPool& strings() const = 0;

  virtual size_t NodeCount() const = 0;
  virtual size_t EdgeCount() const = 0;
  virtual NodeId NodeIdUpperBound() const = 0;
  virtual EdgeId EdgeIdUpperBound() const = 0;
  virtual bool NodeExists(NodeId id) const = 0;
  virtual bool EdgeExists(EdgeId id) const = 0;

  // Requires NodeExists(id) / EdgeExists(id).
  virtual TypeId NodeType(NodeId id) const = 0;
  virtual Edge GetEdge(EdgeId id) const = 0;
  virtual std::span<const PropertyMap::Entry> NodeProperties(
      NodeId id) const = 0;
  virtual std::span<const PropertyMap::Entry> EdgeProperties(
      EdgeId id) const = 0;

  // Null when the record lacks `key`.
  Value GetNodeProperty(NodeId id, KeyId key) const {
    return PropertyMap::Find(NodeProperties(id), key);
  }
  Value GetEdgeProperty(EdgeId id, KeyId key) const {
    return PropertyMap::Find(EdgeProperties(id), key);
  }

  // Invokes `fn(edge_id, neighbor)` for each incident edge in the given
  // direction; stops early if `fn` returns false. With kBoth, a self-loop
  // is reported once.
  using EdgeVisitor = std::function<bool(EdgeId, NodeId)>;
  virtual void ForEachEdge(NodeId id, Direction dir,
                           const EdgeVisitor& fn) const = 0;

  virtual size_t OutDegree(NodeId id) const = 0;
  virtual size_t InDegree(NodeId id) const = 0;

  // Counter that moves whenever nodes or edges are added or removed.
  // Packed() rebuilds when it differs from the value at the last build;
  // views whose topology never changes keep the default.
  virtual uint64_t TopologyVersion() const { return 0; }

  // --- Packed adjacency ---

  // The view's CSR: built on first call, rebuilt on the first call after
  // TopologyVersion() moves. Thread-safe against other readers; a mutation
  // (which needs exclusive access anyway) frees the old one.
  const CsrView& Packed() const;
  // The cache behind Packed(), for holders that must share the one copy
  // (query::Database::csr).
  const std::shared_ptr<CsrCache>& PackedCache() const { return packed_; }

  // --- Convenience helpers (non-virtual) ---

  size_t Degree(NodeId id) const { return OutDegree(id) + InDegree(id); }

  // Resolves a property that holds an interned string; empty view when the
  // property is absent or not a string.
  std::string_view GetNodeString(NodeId id, KeyId key) const {
    Value v = GetNodeProperty(id, key);
    if (v.type() != ValueType::kString) return {};
    return strings().Resolve(v.AsString());
  }
  std::string_view GetEdgeString(EdgeId id, KeyId key) const {
    Value v = GetEdgeProperty(id, key);
    if (v.type() != ValueType::kString) return {};
    return strings().Resolve(v.AsString());
  }

  std::string_view NodeTypeName(NodeId id) const {
    return node_types().Name(NodeType(id));
  }
  std::string_view EdgeTypeName(EdgeId id) const {
    return edge_types().Name(GetEdge(id).type);
  }

  // Invokes `fn(node_id)` for every live node.
  void ForEachNode(const std::function<void(NodeId)>& fn) const {
    for (NodeId id = 0; id < NodeIdUpperBound(); ++id) {
      if (NodeExists(id)) fn(id);
    }
  }
  // Invokes `fn(edge_id)` for every live edge.
  void ForEachEdgeGlobal(const std::function<void(EdgeId)>& fn) const {
    for (EdgeId id = 0; id < EdgeIdUpperBound(); ++id) {
      if (EdgeExists(id)) fn(id);
    }
  }

 private:
  std::shared_ptr<CsrCache> packed_;
};

}  // namespace frappe::graph

#endif  // FRAPPE_GRAPH_GRAPH_VIEW_H_
