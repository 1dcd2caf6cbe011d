#include "analysis/slicing.h"

#include <algorithm>
#include <iterator>

#include "graph/analytics.h"

namespace frappe::analysis {

using graph::Direction;
using graph::NodeId;
using model::EdgeKind;

namespace {

constexpr size_t kNoLimit = std::numeric_limits<size_t>::max();

// The one body behind every slice, over `kinds` edges. An unbounded
// directed closure walks the view's condensation for those types. A set
// with `calls` edges builds it on a miss: call closures walk the call
// graph's cycles, so the build (~25 ms at scale 0.25) pays for itself
// within a few slices on one view (~0.3 ms each against 5-10 ms on the
// kernel). Other sets (build, directory and include edges) form trees a
// kernel closure walks in 0.04-0.3 ms against ~15 ms for a build, so they
// only read one already built, as FQL closures do, and take no slot the
// `calls` set needs. A depth bound, kBoth, or no condensation runs the
// frontier kernel. Without max_steps/deadline neither path can fail, so
// an empty set stands in for the unreachable error arm.
std::vector<NodeId> RunClosure(const graph::CsrView& csr,
                               const model::Schema& schema,
                               const std::vector<NodeId>& seeds,
                               const std::vector<EdgeKind>& kinds,
                               Direction direction, size_t max_depth) {
  std::vector<graph::TypeId> types;
  types.reserve(kinds.size());
  for (EdgeKind kind : kinds) types.push_back(schema.edge_type(kind));
  if (max_depth == kNoLimit && direction != Direction::kBoth) {
    const graph::Condensation* condensation = nullptr;
    if (std::find(kinds.begin(), kinds.end(), EdgeKind::kCalls) !=
        kinds.end()) {
      condensation =
          graph::analytics::Condense(csr, types).value_or(nullptr);
    } else {
      condensation = graph::analytics::FindCondensation(csr, types);
    }
    if (condensation != nullptr) {
      return graph::analytics::CondensedClosure(*condensation, seeds,
                                                direction)
          .value_or({});
    }
  }
  graph::analytics::Options options;
  options.max_depth = max_depth;
  return graph::analytics::ParallelClosure(
             csr, seeds, graph::EdgeFilter::Of(std::move(types), direction),
             options)
      .value_or({});
}

}  // namespace

std::vector<NodeId> BackwardSlice(const graph::GraphView& view,
                                  const model::Schema& schema,
                                  NodeId function, size_t max_depth) {
  return ParallelBackwardSlice(view.Packed(), schema, function, 0,
                               max_depth);
}

std::vector<NodeId> ForwardSlice(const graph::GraphView& view,
                                 const model::Schema& schema,
                                 NodeId function, size_t max_depth) {
  return RunClosure(view.Packed(), schema, {function}, {EdgeKind::kCalls},
                    Direction::kIn, max_depth);
}

std::vector<NodeId> ImpactSet(const graph::GraphView& view,
                              const model::Schema& schema,
                              const std::vector<NodeId>& seeds,
                              const std::vector<EdgeKind>& kinds,
                              Direction direction, size_t max_depth) {
  return RunClosure(view.Packed(), schema, seeds, kinds, direction,
                    max_depth);
}

std::vector<NodeId> MacroImpact(const graph::GraphView& view,
                                const model::Schema& schema,
                                NodeId macro) {
  const graph::CsrView& csr = view.Packed();
  // Direct users: sources of expands_macro / interrogates_macro edges,
  // widened through the forward call slice of each.
  std::vector<NodeId> users = RunClosure(
      csr, schema, {macro},
      {EdgeKind::kExpandsMacro, EdgeKind::kInterrogatesMacro},
      Direction::kIn, 1);
  std::vector<NodeId> callers = RunClosure(
      csr, schema, users, {EdgeKind::kCalls}, Direction::kIn, kNoLimit);
  std::vector<NodeId> out;
  std::set_union(users.begin(), users.end(), callers.begin(), callers.end(),
                 std::back_inserter(out));
  return out;
}

std::vector<NodeId> IncludeImpact(const graph::GraphView& view,
                                  const model::Schema& schema,
                                  NodeId header) {
  return RunClosure(view.Packed(), schema, {header}, {EdgeKind::kIncludes},
                    Direction::kIn, kNoLimit);
}

std::vector<NodeId> ParallelBackwardSlice(const graph::CsrView& csr,
                                          const model::Schema& schema,
                                          NodeId function,
                                          size_t /*threads*/,
                                          size_t max_depth) {
  return RunClosure(csr, schema, {function}, {EdgeKind::kCalls},
                    Direction::kOut, max_depth);
}

}  // namespace frappe::analysis
