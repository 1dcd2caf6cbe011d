#ifndef FRAPPE_QUERY_SESSION_H_
#define FRAPPE_QUERY_SESSION_H_

#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include <vector>

#include "common/status.h"
#include "graph/indexes.h"
#include "graph/snapshot_manager.h"
#include "model/code_graph.h"
#include "query/database.h"
#include "query/executor.h"

namespace frappe::query {

// Parses and executes `query_text` against a wired Database: EXPLAIN
// returns the plan without executing, PROFILE annotates it with operator
// stats, and the FRAPPE_SLOW_QUERY_MS slow-query log applies. Session and
// SnapshotSession both run queries through this. When `fingerprint` is
// given it receives the query's workload fingerprint (the key of its
// /stats row) on every path, parse and execution failures included.
Result<QueryResult> RunQuery(const Database& db, std::string_view query_text,
                             const ExecOptions& options = {},
                             uint64_t* fingerprint = nullptr);

// End-to-end query session over a Frappé code graph: owns the auto name
// index and label index, wires schema-aware label/property resolution
// (group labels like `symbol`/`container` expand per paper Table 6, and
// paper property aliases like NAME_START_COLUMN resolve), and runs FQL
// strings.
//
// The indexes are built eagerly at construction, mirroring a database whose
// index files already exist on disk.
class Session {
 public:
  explicit Session(const model::CodeGraph& code_graph);

  // Parses and executes `query_text`. `EXPLAIN <query>` returns the plan
  // in QueryResult::plan without executing; `PROFILE <query>` executes for
  // real and returns rows plus the plan annotated with per-operator stats.
  // When FRAPPE_SLOW_QUERY_MS is set (obs::Config().slow_query_ms), any
  // execution at or over that many milliseconds is logged with its plan —
  // to stderr, or to the sink installed below.
  Result<QueryResult> Run(std::string_view query_text,
                          const ExecOptions& options = {}) const;

  const Database& database() const { return db_; }
  const graph::NameIndex& name_index() const { return name_index_; }
  const graph::LabelIndex& label_index() const { return label_index_; }

 private:
  const model::CodeGraph& code_graph_;
  graph::NameIndex name_index_;
  graph::LabelIndex label_index_;
  Database db_;
};

// A query session over a snapshot family on disk: loads the newest
// verifying generation through graph::SnapshotManager (falling back past a
// corrupt current file), rebuilds the name index when the snapshot didn't
// embed one (or embedded a corrupt one — see LoadedSnapshot::warnings),
// installs the Frappé schema, and wires a Database.
//
// Heap-allocated via Open() because Database captures raw pointers into
// the owned store/indexes; the unique_ptr keeps those addresses stable.
class SnapshotSession {
 public:
  static Result<std::unique_ptr<SnapshotSession>> Open(
      const std::string& path,
      const graph::SnapshotManager::Options& options = {});

  Result<QueryResult> Run(std::string_view query_text,
                          const ExecOptions& options = {}) const {
    return RunQuery(db_, query_text, options);
  }

  const Database& database() const { return db_; }
  const graph::GraphView& view() const { return *store_; }
  // The owned store itself, e.g. for EstimateMemory() (Table 4 sections on
  // /debug/storagez).
  const graph::GraphStore& store() const { return *store_; }
  const graph::NameIndex& name_index() const { return name_index_; }
  const model::Schema& schema() const { return schema_; }

  // Which file actually loaded: generation 0 is `path` itself, higher
  // generations mean the current snapshot was unusable.
  int generation() const { return generation_; }
  const std::string& loaded_path() const { return loaded_path_; }
  // Non-fatal degradations from the load (checksum fallbacks, index
  // rebuilds). Callers should surface these to the operator.
  const std::vector<std::string>& warnings() const { return warnings_; }

 private:
  SnapshotSession() = default;

  std::unique_ptr<graph::GraphStore> store_;
  graph::NameIndex name_index_;
  graph::LabelIndex label_index_;
  model::Schema schema_;
  Database db_;
  std::vector<std::string> warnings_;
  int generation_ = 0;
  std::string loaded_path_;
};

// Wires a schema-aware Database over arbitrary components (used when the
// graph was loaded from a snapshot rather than built through CodeGraph).
// Group labels expand using `schema`; property names canonicalize through
// model::CanonicalPropertyName.
Database MakeFrappeDatabase(const graph::GraphView& view,
                            const model::Schema& schema,
                            const graph::NameIndex* name_index,
                            const graph::LabelIndex* label_index);

// Redirects the slow-query log (FRAPPE_SLOW_QUERY_MS) from stderr into
// `sink`; pass nullptr to restore stderr. Not thread-safe with concurrent
// Session::Run — install before running queries (test hook).
void SetSlowQueryLogSinkForTesting(
    std::function<void(const std::string&)> sink);

}  // namespace frappe::query

#endif  // FRAPPE_QUERY_SESSION_H_
