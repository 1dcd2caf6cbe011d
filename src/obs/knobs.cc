#include "obs/knobs.h"

#include <cstdlib>

#include "common/string_util.h"

namespace frappe::obs {

namespace {

// The knob's value as an integer >= 0, or -1 when unset or invalid.
int64_t NonNegativeInt(const char* name) {
  const char* env = std::getenv(name);
  int64_t value = 0;
  if (env == nullptr || !ParseInt64(env, &value) || value < 0) return -1;
  return value;
}

}  // namespace

int64_t SlowQueryThresholdMs() {
  return NonNegativeInt("FRAPPE_SLOW_QUERY_MS");
}

uint64_t QueryMemBudgetBytes() {
  int64_t value = NonNegativeInt("FRAPPE_QUERY_MEM_BYTES");
  return value > 0 ? static_cast<uint64_t>(value) : 0;
}

}  // namespace frappe::obs
