#include "analysis/debugging.h"

#include <algorithm>

#include "analysis/slicing.h"

namespace frappe::analysis {

using graph::Direction;
using graph::EdgeId;
using graph::NodeId;
using model::EdgeKind;
using model::PropKey;

std::vector<SuspectWrite> FindSuspectWrites(const graph::GraphView& view,
                                            const model::Schema& schema,
                                            NodeId known_good_fn,
                                            NodeId known_bad_fn,
                                            NodeId field,
                                            int64_t bounding_call_line) {
  graph::TypeId calls = schema.edge_type(EdgeKind::kCalls);
  graph::TypeId writes_member = schema.edge_type(EdgeKind::kWritesMember);
  graph::KeyId line_key = schema.key(PropKey::kUseStartLine);

  // Verify the bounding call exists (known_good -> known_bad at the line).
  bool bound_found = false;
  view.ForEachEdge(known_good_fn, Direction::kOut,
                   [&](EdgeId e, NodeId target) {
                     if (target == known_bad_fn &&
                         view.GetEdge(e).type == calls &&
                         view.GetEdgeProperty(e, line_key).AsInt() ==
                             bounding_call_line) {
                       bound_found = true;
                       return false;
                     }
                     return true;
                   });
  if (!bound_found) return {};

  // Call sites in known_good_fn at or before the bound.
  std::vector<NodeId> early_callees;
  view.ForEachEdge(known_good_fn, Direction::kOut,
                   [&](EdgeId e, NodeId target) {
                     if (view.GetEdge(e).type != calls) return true;
                     graph::Value line = view.GetEdgeProperty(e, line_key);
                     if (!line.is_null() &&
                         line.AsInt() <= bounding_call_line) {
                       early_callees.push_back(target);
                     }
                     return true;
                   });

  // Everything reachable from those call sites (including the callees
  // themselves). Both lists are ascending, so membership is two binary
  // searches rather than a hash set of the whole reachable set.
  std::vector<NodeId> reachable = ImpactSet(
      view, schema, early_callees, {EdgeKind::kCalls}, Direction::kOut);
  std::sort(early_callees.begin(), early_callees.end());
  auto reached = [&](NodeId n) {
    return std::binary_search(reachable.begin(), reachable.end(), n) ||
           std::binary_search(early_callees.begin(), early_callees.end(), n);
  };

  // Writers of the field among the reachable set.
  std::vector<SuspectWrite> out;
  view.ForEachEdge(field, Direction::kIn, [&](EdgeId e, NodeId writer) {
    if (view.GetEdge(e).type != writes_member) return true;
    if (!reached(writer)) return true;
    SuspectWrite suspect;
    suspect.writer = writer;
    suspect.write_edge = e;
    suspect.write_line = view.GetEdgeProperty(e, line_key).AsInt();
    out.push_back(suspect);
    return true;
  });
  std::sort(out.begin(), out.end(),
            [](const SuspectWrite& a, const SuspectWrite& b) {
              return a.write_line < b.write_line;
            });
  return out;
}

}  // namespace frappe::analysis
