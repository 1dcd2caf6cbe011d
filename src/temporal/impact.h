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

// The impact slice is one frontier-kernel closure over the `to` view's
// packed call edges; that view is made for the call, so no condensation
// is built for it (see analysis::ImpactSet).
Result<ImpactReport> ChangeImpact(const VersionStore& store,
                                  const model::Schema& schema, Version from,
                                  Version to);

}  // namespace frappe::temporal

#endif  // FRAPPE_TEMPORAL_IMPACT_H_
