#ifndef FRAPPE_ANALYSIS_SLICING_H_
#define FRAPPE_ANALYSIS_SLICING_H_

#include <limits>
#include <vector>

#include "graph/csr_view.h"
#include "graph/graph_view.h"
#include "model/schema.h"

namespace frappe::analysis {

// Program-slicing approximations over the dependency graph (paper Section
// 4.4): the transitive closure of the call graph, the paper's simplest
// slice, plus generalizations over other edge kinds. This is the embedded
// API the paper fell back to when Cypher's transitive closure "does not
// terminate within 15 minutes" (Section 6.1 footnote). Every function here
// is a closure over the view's packed adjacency (GraphView::Packed()), the
// same CSR the query executor's fast paths read. An unbounded directed
// closure walks that CSR's condensation (graph::Condensation) for its edge
// types when one is built. A type set with `calls` edges builds it on the
// first such call on a view, so later calls never walk the call graph's
// cycles; other sets form trees and only read one already built. A
// `max_depth` bound, kBoth, or no condensation runs the frontier kernel.
// Results equal graph::TransitiveClosure on the view, which stays the
// store-walking reference. Every function here returns node ids in
// strictly ascending order, so callers may binary-search a result.

// Backward slice of `function`: everything it transitively calls — all
// functions that, if modified, could alter its behaviour.
std::vector<graph::NodeId> BackwardSlice(
    const graph::GraphView& view, const model::Schema& schema,
    graph::NodeId function,
    size_t max_depth = std::numeric_limits<size_t>::max());

// Forward slice: everything that transitively calls `function` — all code
// that may be affected if it changes.
std::vector<graph::NodeId> ForwardSlice(
    const graph::GraphView& view, const model::Schema& schema,
    graph::NodeId function,
    size_t max_depth = std::numeric_limits<size_t>::max());

// Generalized impact set over caller-supplied edge kinds and direction.
std::vector<graph::NodeId> ImpactSet(
    const graph::GraphView& view, const model::Schema& schema,
    const std::vector<graph::NodeId>& seeds,
    const std::vector<model::EdgeKind>& kinds, graph::Direction direction,
    size_t max_depth = std::numeric_limits<size_t>::max());

// "How much code could be affected if I change this macro?" — functions
// and files that expand or interrogate `macro`, widened through the
// forward call slice of each expanding function.
std::vector<graph::NodeId> MacroImpact(const graph::GraphView& view,
                                       const model::Schema& schema,
                                       graph::NodeId macro);

// Files transitively including `header` (include-impact).
std::vector<graph::NodeId> IncludeImpact(const graph::GraphView& view,
                                         const model::Schema& schema,
                                         graph::NodeId header);

// BackwardSlice over a caller-supplied CSR; the view overload calls it
// with view.Packed(). `threads` is ignored; it stays so that positional
// calls such as `(csr, schema, fn, 0)` in perfbench/ do not bind to
// max_depth.
std::vector<graph::NodeId> ParallelBackwardSlice(
    const graph::CsrView& csr, const model::Schema& schema,
    graph::NodeId function, size_t threads,
    size_t max_depth = std::numeric_limits<size_t>::max());

}  // namespace frappe::analysis

#endif  // FRAPPE_ANALYSIS_SLICING_H_
