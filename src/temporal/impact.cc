#include "temporal/impact.h"

#include <algorithm>
#include <unordered_set>

#include "analysis/slicing.h"
#include "graph/csr_view.h"

namespace frappe::temporal {

using graph::NodeId;
using model::NodeKind;

Result<ImpactReport> ChangeImpact(const VersionStore& store,
                                  const model::Schema& schema, Version from,
                                  Version to) {
  FRAPPE_ASSIGN_OR_RETURN(VersionStore::Diff diff,
                          store.ComputeDiff(from, to));
  FRAPPE_ASSIGN_OR_RETURN(std::unique_ptr<VersionView> view,
                          store.ViewAt(to));

  graph::TypeId fn_type = schema.node_type(NodeKind::kFunction);
  std::unordered_set<NodeId> changed;
  auto consider = [&](NodeId id) {
    if (id < store.raw_store().NodeIdUpperBound() &&
        store.raw_store().NodeType(id) == fn_type) {
      changed.insert(id);
    }
  };
  for (NodeId id : diff.added_nodes) consider(id);
  for (NodeId id : diff.property_changed_nodes) consider(id);
  // Edge changes implicate their function endpoints.
  for (graph::EdgeId e : diff.added_edges) {
    graph::Edge edge = store.raw_store().GetEdge(e);
    consider(edge.src);
  }
  for (graph::EdgeId e : diff.removed_edges) {
    graph::Edge edge = store.raw_store().GetEdge(e);
    consider(edge.src);
  }
  // A removed function impacts its (still existing) callers too; seed the
  // slice from its callers at `to`.
  std::vector<NodeId> seeds(changed.begin(), changed.end());
  for (NodeId removed : diff.removed_nodes) {
    if (store.raw_store().NodeType(removed) != fn_type) continue;
    view->ForEachEdge(removed, graph::Direction::kIn,
                      [&](graph::EdgeId, NodeId) { return true; });
    // Callers at `from` that survive at `to`:
    FRAPPE_ASSIGN_OR_RETURN(std::unique_ptr<VersionView> old_view,
                            store.ViewAt(from));
    old_view->ForEachEdge(
        removed, graph::Direction::kIn, [&](graph::EdgeId e, NodeId from_n) {
          if (schema.edge_kind(old_view->GetEdge(e).type) ==
                  model::EdgeKind::kCalls &&
              view->NodeExists(from_n)) {
            seeds.push_back(from_n);
            changed.insert(from_n);
          }
          return true;
        });
  }

  ImpactReport report;
  report.changed_functions.assign(changed.begin(), changed.end());
  std::sort(report.changed_functions.begin(),
            report.changed_functions.end());

  // Forward slice at `to`: transitive callers of every changed function,
  // restricted to nodes that exist at `to`.
  std::vector<NodeId> live_seeds;
  for (NodeId id : seeds) {
    if (view->NodeExists(id)) live_seeds.push_back(id);
  }
  // The direction-optimizing CSR kernel beats the sequential visited-set
  // walk.
  graph::CsrView csr = graph::CsrView::Build(*view);
  report.impacted_functions = analysis::ParallelImpactSet(
      csr, schema, live_seeds, {model::EdgeKind::kCalls},
      graph::Direction::kIn, /*threads=*/1);
  return report;
}

}  // namespace frappe::temporal
