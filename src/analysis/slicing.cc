#include "analysis/slicing.h"

#include <algorithm>
#include <unordered_set>

#include "graph/analytics.h"
#include "graph/traversal.h"

namespace frappe::analysis {

using graph::Direction;
using graph::EdgeFilter;
using graph::NodeId;
using model::EdgeKind;

namespace {

EdgeFilter CallFilter(const model::Schema& schema, Direction dir) {
  return EdgeFilter::Of({schema.edge_type(EdgeKind::kCalls)}, dir);
}

// Unbudgeted kernel run: without max_steps/deadline the closure cannot
// fail, so an empty set stands in for the unreachable error arm.
std::vector<NodeId> RunClosure(const graph::CsrView& csr,
                               const std::vector<NodeId>& seeds,
                               EdgeFilter filter, size_t max_depth) {
  graph::analytics::Options options;
  options.max_depth = max_depth;
  return graph::analytics::ParallelClosure(csr, seeds, filter, options)
      .value_or({});
}

}  // namespace

std::vector<NodeId> BackwardSlice(const graph::GraphView& view,
                                  const model::Schema& schema,
                                  NodeId function, size_t max_depth) {
  return graph::TransitiveClosure(view, function,
                                  CallFilter(schema, Direction::kOut),
                                  max_depth);
}

std::vector<NodeId> ForwardSlice(const graph::GraphView& view,
                                 const model::Schema& schema,
                                 NodeId function, size_t max_depth) {
  return graph::TransitiveClosure(view, function,
                                  CallFilter(schema, Direction::kIn),
                                  max_depth);
}

std::vector<NodeId> ImpactSet(const graph::GraphView& view,
                              const model::Schema& schema,
                              const std::vector<NodeId>& seeds,
                              const std::vector<EdgeKind>& kinds,
                              Direction direction, size_t max_depth) {
  std::vector<graph::TypeId> types;
  types.reserve(kinds.size());
  for (EdgeKind kind : kinds) types.push_back(schema.edge_type(kind));
  return graph::TransitiveClosure(
      view, seeds, EdgeFilter::Of(std::move(types), direction), max_depth);
}

std::vector<NodeId> MacroImpact(const graph::GraphView& view,
                                const model::Schema& schema,
                                NodeId macro) {
  // Direct users: sources of expands_macro / interrogates_macro edges.
  graph::TypeId expands = schema.edge_type(EdgeKind::kExpandsMacro);
  graph::TypeId interrogates =
      schema.edge_type(EdgeKind::kInterrogatesMacro);
  std::unordered_set<NodeId> impacted;
  std::vector<NodeId> users;
  view.ForEachEdge(macro, Direction::kIn,
                   [&](graph::EdgeId e, NodeId from) {
                     graph::TypeId type = view.GetEdge(e).type;
                     if (type == expands || type == interrogates) {
                       if (impacted.insert(from).second) {
                         users.push_back(from);
                       }
                     }
                     return true;
                   });
  // Widen through the forward call slice of each user.
  for (NodeId user : ImpactSet(view, schema, users, {EdgeKind::kCalls},
                               Direction::kIn)) {
    impacted.insert(user);
  }
  std::vector<NodeId> out(impacted.begin(), impacted.end());
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<NodeId> IncludeImpact(const graph::GraphView& view,
                                  const model::Schema& schema,
                                  NodeId header) {
  return graph::TransitiveClosure(
      view, header,
      EdgeFilter::Of({schema.edge_type(EdgeKind::kIncludes)},
                     Direction::kIn));
}

std::vector<NodeId> ParallelBackwardSlice(const graph::CsrView& csr,
                                          const model::Schema& schema,
                                          NodeId function,
                                          size_t /*threads*/,
                                          size_t max_depth) {
  return RunClosure(csr, {function}, CallFilter(schema, Direction::kOut),
                    max_depth);
}

std::vector<NodeId> ParallelForwardSlice(const graph::CsrView& csr,
                                         const model::Schema& schema,
                                         NodeId function,
                                         size_t /*threads*/,
                                         size_t max_depth) {
  return RunClosure(csr, {function}, CallFilter(schema, Direction::kIn),
                    max_depth);
}

std::vector<NodeId> ParallelImpactSet(const graph::CsrView& csr,
                                      const model::Schema& schema,
                                      const std::vector<NodeId>& seeds,
                                      const std::vector<EdgeKind>& kinds,
                                      Direction direction,
                                      size_t /*threads*/, size_t max_depth) {
  std::vector<graph::TypeId> types;
  types.reserve(kinds.size());
  for (EdgeKind kind : kinds) types.push_back(schema.edge_type(kind));
  return RunClosure(csr, seeds, EdgeFilter::Of(std::move(types), direction),
                    max_depth);
}

}  // namespace frappe::analysis
