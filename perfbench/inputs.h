#ifndef FRAPPE_PERFBENCH_INPUTS_H_
#define FRAPPE_PERFBENCH_INPUTS_H_

// Seeded inputs, generated once per (scale, seed) into the cache directory
// and reused by every later run: the synthetic kernel snapshot with the
// query instances chosen on it, and the generated C source tree with its
// build commands. Generation happens before any timed region.

#include <cstdint>
#include <string>
#include <vector>

#include "extractor/synthetic.h"
#include "extractor/vfs.h"
#include "model/code_graph.h"
#include "query/database.h"

namespace frappe::perfbench {

// Query instances: short_name values for node_auto_index STARTs.
struct SearchInstance {  // Fig. 3: a field name searched within a module
  std::string module, field;
};
struct XrefInstance {  // Fig. 4: go-to-definition at one call site
  std::string callee;
  int64_t file = 0, line = 0, col = 0;
};
struct DebugInstance {  // Fig. 5: writes of a field between two calls
  std::string from, to, record, field;
  int64_t line = 0;
};
struct ClosureInstance {  // Fig. 6: transitive callees of a function
  std::string function;
};

struct Instances {
  std::vector<SearchInstance> search;
  std::vector<XrefInstance> xref;
  std::vector<DebugInstance> debug;
  std::vector<ClosureInstance> closure;
  std::vector<std::string> lookup;  // exact node_auto_index terms
  std::vector<std::string> group;   // Table 6 group-label struct names
};

std::string SearchQuery(const SearchInstance& i);
std::string XrefQuery(const XrefInstance& i);
std::string DebugQuery(const DebugInstance& i);
std::string ClosureQuery(const ClosureInstance& i);
std::string LookupQuery(const std::string& name);
std::string GroupQuery(const std::string& name);

// Seeded instances of every class on a Frappé graph. Fig. 5/6 names are
// always unique; point-query names only with `unique_points`.
Instances ChooseInstances(const graph::GraphStore& store,
                          const model::Schema& schema,
                          const graph::NameIndex& index, uint64_t seed,
                          size_t per_class, size_t point_per_class,
                          bool unique_points);

struct KernelInput {
  std::string snapshot_path;
  Instances instances;
};

// The synthetic kernel's generator seed for a run seed: seeds 0-999 share
// one kernel graph and differ in query instances, seeds 1000-1999 use a
// second graph (held-out inputs), and so on. At equal probe work, Fig. 5
// latency differs by up to a third between graphs of different generator
// seeds — more than a run's noise — so runs that are compared share a
// graph.
uint64_t KernelGraphSeed(uint64_t seed);

// Generates (or reuses) the kernel snapshot for (scale, KernelGraphSeed)
// and the seed's query instances on it: 16 of Fig. 5 and Fig. 6 and 64 of
// each point class (Fig. 3 included). Returns false on failure.
bool EnsureKernel(const std::string& cache_dir, double scale, uint64_t seed,
                  KernelInput* out);

struct SourceInput {
  extractor::Vfs vfs;
  std::vector<std::string> build_commands;
  uint64_t total_lines = 0;
};

// The ingest source tree for `seed`, sized by `scale` (1.0 = the tree the
// ingest-publish workload uses).
bool EnsureSourceTree(const std::string& cache_dir, double scale,
                      uint64_t seed, SourceInput* out);

// Node ids for a unique short name through the database's auto index.
graph::NodeId UniqueNode(const query::Database& db, const std::string& name);

// Pieces of a Fig. 5 instance on a loaded graph: the callees of `from` at
// call sites on or before the bounding line (the query's `direct` nodes,
// plus `to` through the bounding call itself), the field node, and the
// field's writers.
struct DebugParts {
  graph::NodeId from, to, field;
  std::vector<graph::NodeId> early_callees;
  std::vector<graph::NodeId> writers;
};
DebugParts ResolveDebug(const graph::GraphView& view,
                        const model::Schema& schema,
                        const query::Database& db, const DebugInstance& d);

}  // namespace frappe::perfbench

#endif  // FRAPPE_PERFBENCH_INPUTS_H_
