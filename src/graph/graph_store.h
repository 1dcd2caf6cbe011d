#ifndef FRAPPE_GRAPH_GRAPH_STORE_H_
#define FRAPPE_GRAPH_GRAPH_STORE_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "graph/graph_view.h"

namespace frappe::graph {

// Mutable in-memory property graph. This is the repository component of the
// source-code querying system (paper Figure 1): nodes carry a type (label)
// and properties, edges carry a type and properties, and adjacency lists
// support constant-time expansion in both directions — the access pattern
// graph databases optimize for and the reason the paper picked one over an
// RDBMS.
//
// Ids are dense and stable: deleting a node/edge leaves a hole (ids are
// never reused), which keeps external references and snapshots simple.
class GraphStore final : public GraphView {
 public:
  GraphStore() = default;
  GraphStore(const GraphStore&) = delete;
  GraphStore& operator=(const GraphStore&) = delete;
  GraphStore(GraphStore&&) = default;
  GraphStore& operator=(GraphStore&&) = default;

  // --- Schema vocabulary ---

  TypeId InternNodeType(std::string_view name) {
    return node_types_.Intern(name);
  }
  TypeId InternEdgeType(std::string_view name) {
    return edge_types_.Intern(name);
  }
  KeyId InternKey(std::string_view name) { return keys_.Intern(name); }
  StringRef InternString(std::string_view s) { return strings_.Intern(s); }
  Value StringValue(std::string_view s) {
    return Value::String(strings_.Intern(s));
  }

  // --- Mutation ---

  NodeId AddNode(TypeId type) {
    NodeId id = static_cast<NodeId>(nodes_.size());
    nodes_.emplace_back();
    nodes_.back().type = type;
    ++live_nodes_;
    ++topology_version_;
    return id;
  }
  NodeId AddNode(std::string_view type_name) {
    return AddNode(InternNodeType(type_name));
  }

  // Returns kInvalidEdge if either endpoint does not exist.
  EdgeId AddEdge(NodeId src, NodeId dst, TypeId type) {
    if (!NodeExists(src) || !NodeExists(dst)) return kInvalidEdge;
    EdgeId id = static_cast<EdgeId>(edges_.size());
    edges_.emplace_back();
    edges_.back().edge = Edge{src, dst, type};
    nodes_[src].out.push_back(id);
    nodes_[dst].in.push_back(id);
    ++live_edges_;
    ++topology_version_;
    return id;
  }
  EdgeId AddEdge(NodeId src, NodeId dst, std::string_view type_name) {
    return AddEdge(src, dst, InternEdgeType(type_name));
  }

  void SetNodeProperty(NodeId id, KeyId key, Value value) {
    if (NodeExists(id)) nodes_[id].props.Set(key, value);
  }
  void SetNodeProperty(NodeId id, std::string_view key, Value value) {
    SetNodeProperty(id, InternKey(key), value);
  }
  void SetEdgeProperty(EdgeId id, KeyId key, Value value) {
    if (EdgeExists(id)) edges_[id].props.Set(key, value);
  }
  void SetEdgeProperty(EdgeId id, std::string_view key, Value value) {
    SetEdgeProperty(id, InternKey(key), value);
  }

  // Replaces the full property map (used by snapshot load / temporal apply).
  void SetNodeProperties(NodeId id, PropertyMap props) {
    if (NodeExists(id)) nodes_[id].props = std::move(props);
  }
  void SetEdgeProperties(EdgeId id, PropertyMap props) {
    if (EdgeExists(id)) edges_[id].props = std::move(props);
  }

  // Snapshot-restore support: appends a tombstone record so a reloaded
  // graph preserves the exact id layout (including holes) of the original.
  NodeId AddDeadNode() {
    NodeId id = static_cast<NodeId>(nodes_.size());
    nodes_.emplace_back();
    nodes_.back().alive = false;
    ++topology_version_;
    return id;
  }
  EdgeId AddDeadEdge() {
    EdgeId id = static_cast<EdgeId>(edges_.size());
    edges_.emplace_back();
    edges_.back().alive = false;
    ++topology_version_;
    return id;
  }

  // Removes an edge. Safe to call on dead ids (no-op).
  void RemoveEdge(EdgeId id);

  // Removes a node and cascades to all incident edges.
  void RemoveNode(NodeId id);

  // --- GraphView implementation ---

  const NameRegistry& node_types() const override { return node_types_; }
  const NameRegistry& edge_types() const override { return edge_types_; }
  const NameRegistry& keys() const override { return keys_; }
  const StringPool& strings() const override { return strings_; }

  size_t NodeCount() const override { return live_nodes_; }
  size_t EdgeCount() const override { return live_edges_; }
  NodeId NodeIdUpperBound() const override {
    return static_cast<NodeId>(nodes_.size());
  }
  EdgeId EdgeIdUpperBound() const override {
    return static_cast<EdgeId>(edges_.size());
  }
  bool NodeExists(NodeId id) const override {
    return id < nodes_.size() && nodes_[id].alive;
  }
  bool EdgeExists(EdgeId id) const override {
    return id < edges_.size() && edges_[id].alive;
  }

  TypeId NodeType(NodeId id) const override { return nodes_[id].type; }
  Edge GetEdge(EdgeId id) const override { return edges_[id].edge; }
  std::span<const PropertyMap::Entry> NodeProperties(
      NodeId id) const override {
    return nodes_[id].props.entries();
  }
  std::span<const PropertyMap::Entry> EdgeProperties(
      EdgeId id) const override {
    return edges_[id].props.entries();
  }

  void ForEachEdge(NodeId id, Direction dir,
                   const EdgeVisitor& fn) const override;

  size_t OutDegree(NodeId id) const override { return nodes_[id].out.size(); }
  size_t InDegree(NodeId id) const override { return nodes_[id].in.size(); }

  // Bumped by every Add*/Remove* above: a plain counter, not a lock, since
  // mutation already needs exclusive access.
  uint64_t TopologyVersion() const override { return topology_version_; }

  // Approximate resident bytes by section, used for Table 4 accounting.
  struct MemoryBreakdown {
    uint64_t nodes = 0;          // fixed node records + adjacency lists
    uint64_t relationships = 0;  // fixed edge records
    uint64_t properties = 0;     // property entries + interned string bytes
    uint64_t total() const { return nodes + relationships + properties; }
  };
  MemoryBreakdown EstimateMemory() const;

 private:
  struct NodeRecord {
    TypeId type = kInvalidType;
    bool alive = true;
    PropertyMap props;
    std::vector<EdgeId> out;
    std::vector<EdgeId> in;
  };
  struct EdgeRecord {
    Edge edge;
    bool alive = true;
    PropertyMap props;
  };

  NameRegistry node_types_;
  NameRegistry edge_types_;
  NameRegistry keys_;
  StringPool strings_;

  std::vector<NodeRecord> nodes_;
  std::vector<EdgeRecord> edges_;
  size_t live_nodes_ = 0;
  size_t live_edges_ = 0;
  uint64_t topology_version_ = 0;
};

}  // namespace frappe::graph

#endif  // FRAPPE_GRAPH_GRAPH_STORE_H_
