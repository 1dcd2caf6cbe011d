#ifndef FRAPPE_TEMPORAL_VERSION_STORE_H_
#define FRAPPE_TEMPORAL_VERSION_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "common/status.h"
#include "graph/graph_store.h"
#include "graph/graph_view.h"
#include "graph/snapshot.h"

namespace frappe::temporal {

using Version = uint32_t;
inline constexpr Version kLive = 0xFFFFFFFFu;

class VersionView;

// Multi-version property graph (paper Section 6.3): stores an evolving
// codebase's graph as one append-only store plus per-entity lifetime
// intervals and property histories, LLAMA-style, instead of a full copy
// per version. "As large codebases evolve slowly, most of the graph data
// extracted remains the same from one version to the next" — so the delta
// representation stores each unchanged node/edge exactly once, and any
// committed version can be queried through a point-in-time GraphView.
//
// Usage: mutate (AddNode/AddEdge/Remove*/Set*Property), then
// CommitVersion() to seal the state as the next version. ViewAt(v) returns
// a GraphView of any committed version; every traversal, analysis, query
// and code-map facility runs on it unchanged.
class VersionStore {
 public:
  VersionStore() = default;
  VersionStore(const VersionStore&) = delete;
  VersionStore& operator=(const VersionStore&) = delete;

  // --- mutation (affects the in-progress version) ---

  graph::NodeId AddNode(graph::TypeId type);
  graph::NodeId AddNode(std::string_view type_name) {
    return AddNode(store_.InternNodeType(type_name));
  }
  graph::EdgeId AddEdge(graph::NodeId src, graph::NodeId dst,
                        graph::TypeId type);
  graph::EdgeId AddEdge(graph::NodeId src, graph::NodeId dst,
                        std::string_view type_name) {
    return AddEdge(src, dst, store_.InternEdgeType(type_name));
  }
  void RemoveNode(graph::NodeId id);  // cascades to live incident edges
  void RemoveEdge(graph::EdgeId id);
  void SetNodeProperty(graph::NodeId id, graph::KeyId key,
                       graph::Value value);
  void SetEdgeProperty(graph::EdgeId id, graph::KeyId key,
                       graph::Value value);

  graph::GraphStore& raw_store() { return store_; }
  const graph::GraphStore& raw_store() const { return store_; }

  // --- versioning ---

  // Seals the current state as the next version; returns its number
  // (0-based).
  Version CommitVersion();
  size_t VersionCount() const { return committed_; }

  // Point-in-time view of a committed version. The view borrows this
  // store; it stays valid while the store lives (append-only design).
  Result<std::unique_ptr<VersionView>> ViewAt(Version version) const;

  // Materializes one committed version as a crash-safe on-disk snapshot
  // (the v2 checksummed format — see graph/snapshot.h). The saved file
  // reloads as a plain GraphStore; dead id slots become tombstones, so ids
  // survive the round trip. Returns the per-section byte sizes.
  Result<graph::SnapshotSizes> SaveVersion(
      Version version, const std::string& path,
      const graph::SnapshotOptions& options = {}) const;

  // Materializes one committed version as a standalone GraphStore that
  // shares nothing with this store — the commit seam for epoch-based
  // snapshot publication: a server thread can hand the result to readers
  // and keep mutating this store freely. Id layout is preserved exactly
  // (entities dead at `version` become tombstones), and the schema
  // vocabularies + string pool are re-interned in id order, so ids, type
  // ids and property StringRefs all carry over verbatim.
  Result<std::unique_ptr<graph::GraphStore>> MaterializeVersion(
      Version version) const;

  // --- change analysis ---

  struct Diff {
    std::vector<graph::NodeId> added_nodes, removed_nodes;
    std::vector<graph::EdgeId> added_edges, removed_edges;
    std::vector<graph::NodeId> property_changed_nodes;

    bool empty() const {
      return added_nodes.empty() && removed_nodes.empty() &&
             added_edges.empty() && removed_edges.empty() &&
             property_changed_nodes.empty();
    }
  };
  Result<Diff> ComputeDiff(Version from, Version to) const;

  // Approximate resident bytes of the delta representation (the whole
  // multi-version store).
  uint64_t DeltaBytes() const;

 private:
  friend class VersionView;

  struct Interval {
    Version from = 0;
    Version to = kLive;  // exclusive: visible in [from, to)

    bool VisibleAt(Version v) const { return from <= v && v < to; }
  };
  // Property history entry: the full map as of version `since`.
  using PropHistory = std::vector<std::pair<Version, graph::PropertyMap>>;

  bool NodeAliveNow(graph::NodeId id) const {
    return id < node_intervals_.size() &&
           node_intervals_[id].to == kLive;
  }
  bool EdgeAliveNow(graph::EdgeId id) const {
    return id < edge_intervals_.size() &&
           edge_intervals_[id].to == kLive;
  }

  void SnapshotPropsBeforeChange(graph::NodeId id, bool is_edge);

  std::span<const graph::PropertyMap::Entry> PropsAt(bool is_edge,
                                                     uint32_t id,
                                                     Version version) const;

  graph::GraphStore store_;  // latest state; liveness managed here
  std::vector<Interval> node_intervals_;
  std::vector<Interval> edge_intervals_;
  std::map<graph::NodeId, PropHistory> node_prop_history_;
  std::map<graph::EdgeId, PropHistory> edge_prop_history_;
  // Nodes/edges whose properties changed during each era.
  std::vector<std::vector<graph::NodeId>> node_prop_changes_;
  std::vector<std::vector<graph::EdgeId>> edge_prop_changes_;
  std::vector<std::pair<uint64_t, uint64_t>> counts_;  // per version
  Version committed_ = 0;  // number of sealed versions; current era index
};

// Read-only GraphView of one committed version.
class VersionView final : public graph::GraphView {
 public:
  VersionView(const VersionStore* store, Version version)
      : store_(*store), version_(version) {}

  const graph::NameRegistry& node_types() const override {
    return store_.store_.node_types();
  }
  const graph::NameRegistry& edge_types() const override {
    return store_.store_.edge_types();
  }
  const graph::NameRegistry& keys() const override {
    return store_.store_.keys();
  }
  const graph::StringPool& strings() const override {
    return store_.store_.strings();
  }

  size_t NodeCount() const override {
    return store_.counts_[version_].first;
  }
  size_t EdgeCount() const override {
    return store_.counts_[version_].second;
  }
  graph::NodeId NodeIdUpperBound() const override {
    return static_cast<graph::NodeId>(store_.node_intervals_.size());
  }
  graph::EdgeId EdgeIdUpperBound() const override {
    return static_cast<graph::EdgeId>(store_.edge_intervals_.size());
  }
  bool NodeExists(graph::NodeId id) const override {
    return id < store_.node_intervals_.size() &&
           store_.node_intervals_[id].VisibleAt(version_);
  }
  bool EdgeExists(graph::EdgeId id) const override {
    return id < store_.edge_intervals_.size() &&
           store_.edge_intervals_[id].VisibleAt(version_);
  }

  graph::TypeId NodeType(graph::NodeId id) const override {
    return store_.store_.NodeType(id);
  }
  graph::Edge GetEdge(graph::EdgeId id) const override {
    return store_.store_.GetEdge(id);
  }
  std::span<const graph::PropertyMap::Entry> NodeProperties(
      graph::NodeId id) const override {
    return store_.PropsAt(/*is_edge=*/false, id, version_);
  }
  std::span<const graph::PropertyMap::Entry> EdgeProperties(
      graph::EdgeId id) const override {
    return store_.PropsAt(/*is_edge=*/true, id, version_);
  }

  void ForEachEdge(graph::NodeId id, graph::Direction dir,
                   const EdgeVisitor& fn) const override {
    if (!NodeExists(id)) return;
    store_.store_.ForEachEdge(id, dir,
                              [&](graph::EdgeId e, graph::NodeId n) {
                                if (!EdgeExists(e)) return true;
                                return fn(e, n);
                              });
  }

  size_t OutDegree(graph::NodeId id) const override {
    size_t count = 0;
    ForEachEdge(id, graph::Direction::kOut,
                [&](graph::EdgeId, graph::NodeId) {
                  ++count;
                  return true;
                });
    return count;
  }
  size_t InDegree(graph::NodeId id) const override {
    size_t count = 0;
    ForEachEdge(id, graph::Direction::kIn,
                [&](graph::EdgeId, graph::NodeId) {
                  ++count;
                  return true;
                });
    return count;
  }
  // A committed version's visible topology is fixed, but ids added later
  // grow the upper bounds its packed adjacency is sized by.
  uint64_t TopologyVersion() const override {
    return store_.store_.TopologyVersion();
  }

  Version version() const { return version_; }

 private:
  const VersionStore& store_;
  Version version_;
};

}  // namespace frappe::temporal

#endif  // FRAPPE_TEMPORAL_VERSION_STORE_H_
