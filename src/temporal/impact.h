#ifndef FRAPPE_TEMPORAL_IMPACT_H_
#define FRAPPE_TEMPORAL_IMPACT_H_

#include <vector>

#include "model/schema.h"
#include "temporal/version_store.h"

namespace frappe::temporal {

// Software change impact analysis across versions (paper Section 6.3:
// "understanding what has changed between versions and the wider effects
// of those changes is a common and difficult task in large codebases").
struct ImpactReport {
  // Functions added, removed, or with changed properties/edges.
  std::vector<graph::NodeId> changed_functions;
  // Everything that transitively calls a changed function at `to` —
  // the code whose behaviour the change can affect.
  std::vector<graph::NodeId> impacted_functions;
};

// The impact slice runs the frontier kernel over a CSR snapshot of the
// `to` view.
Result<ImpactReport> ChangeImpact(const VersionStore& store,
                                  const model::Schema& schema, Version from,
                                  Version to);

}  // namespace frappe::temporal

#endif  // FRAPPE_TEMPORAL_IMPACT_H_
