#include "temporal/impact.h"

#include <algorithm>
#include <unordered_set>

#include "graph/analytics.h"

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
  // A removed function's incident edges end with it, so each of its
  // callers is the source of a removed edge above.
  for (graph::EdgeId e : diff.removed_edges) {
    graph::Edge edge = store.raw_store().GetEdge(e);
    consider(edge.src);
  }

  ImpactReport report;
  report.changed_functions.assign(changed.begin(), changed.end());
  std::sort(report.changed_functions.begin(),
            report.changed_functions.end());

  // Forward slice at `to`: transitive callers of every changed function,
  // restricted to nodes that exist at `to`.
  std::vector<NodeId> live_seeds;
  for (NodeId id : report.changed_functions) {
    if (view->NodeExists(id)) live_seeds.push_back(id);
  }
  // One kernel closure, not analysis::ImpactSet: `view` lives for this
  // call only, so a condensation built on it would serve a single closure
  // and cost more than the kernel walk it replaces.
  FRAPPE_ASSIGN_OR_RETURN(
      report.impacted_functions,
      graph::analytics::ParallelClosure(
          view->Packed(), live_seeds,
          graph::EdgeFilter::Of({schema.edge_type(model::EdgeKind::kCalls)},
                                graph::Direction::kIn)));
  return report;
}

}  // namespace frappe::temporal
