#ifndef FRAPPE_QUERY_ESTIMATOR_H_
#define FRAPPE_QUERY_ESTIMATOR_H_

#include <vector>

#include "query/ast.h"
#include "query/database.h"

namespace frappe::query {

// Per-clause cardinality estimates for one query, computed before
// execution from the ANALYZE stats catalog (db.stats) with live
// label-index / node-count fallbacks when no catalog exists.
//
// This is deliberately a *naive* System-R-style estimator — independence
// and uniformity assumptions, fixed selectivities for predicates — because
// its job is observability, not optimality: no plan decision reads it.
// Only EXPLAIN and PROFILE call it: every plan step carries `est_rows`,
// and PROFILE compares it against actual rows as a q-error (`q=`).
struct ClauseEstimates {
  // Estimated rows *after* each clause has run, indexed by clause
  // position in Query::clauses. Same length as Query::clauses.
  std::vector<double> rows;
  // Estimate for the full query (rows of the last clause, or 0 when the
  // query has no clauses).
  double final_rows = 0.0;
  // Whether a stats catalog informed the estimate (false = structural
  // fallbacks only; expect larger q-errors).
  bool used_catalog = false;
};

ClauseEstimates EstimateQuery(const Database& db, const Query& query);

// The standard misestimate metric: max((est+1)/(act+1), (act+1)/(est+1)).
// Symmetric, >= 1.0, and smoothed so zero-row results stay finite.
double QError(double est_rows, double actual_rows);

}  // namespace frappe::query

#endif  // FRAPPE_QUERY_ESTIMATOR_H_
