// Environment knobs read by more than one layer (the query session, the
// query server and the stats server), one strict parser each. Every knob is
// read per call, so operators and tests can flip it at runtime via setenv.
// A value that is not wholly a number (e.g. "64MB") counts as unset.

#ifndef FRAPPE_OBS_KNOBS_H_
#define FRAPPE_OBS_KNOBS_H_

#include <cstdint>

namespace frappe::obs {

// FRAPPE_SLOW_QUERY_MS: the slow-query threshold in ms, or -1 when unset or
// invalid.
int64_t SlowQueryThresholdMs();

// FRAPPE_QUERY_MEM_BYTES: the per-query memory budget in bytes, or 0
// (unlimited) when unset or invalid.
uint64_t QueryMemBudgetBytes();

}  // namespace frappe::obs

#endif  // FRAPPE_OBS_KNOBS_H_
