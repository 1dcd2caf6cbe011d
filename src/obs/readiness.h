#ifndef FRAPPE_OBS_READINESS_H_
#define FRAPPE_OBS_READINESS_H_

#include <mutex>
#include <string>

namespace frappe::obs {

// Process-wide readiness state backing the /readyz endpoint — the split
// between liveness (/healthz: the process is up) and readiness (/readyz:
// the process should receive traffic).
//
// Three independent conditions, reported worst-first:
//   draining    the query server is shutting down (503 — stop routing)
//   overloaded  the admission controller is shedding (503 — back off)
//   degraded    serving, but impaired: e.g. the snapshot loaded via a
//               fallback generation (200 — traffic ok, operator should look)
//
// Writers are the owning binary (degraded, at startup) and the query
// server's admission controller (draining/overloaded, live). Readers are
// the /readyz handlers on both the stats server and the query server.
class Readiness {
 public:
  enum class State { kReady = 0, kDegraded, kOverloaded, kDraining };

  static Readiness& Global();

  // Sticky for the life of the process: a fallback-generation load stays
  // visible.
  void SetDegraded(std::string reason);

  void SetOverloaded(bool on, std::string reason = "shedding load");
  void SetDraining(bool on, std::string reason = "draining");

  // Worst state wins: draining > overloaded > degraded > ready.
  State state(std::string* reason = nullptr) const;

  static const char* Name(State state);

  // {"state": "...", "reason": ...} with reason null when ready.
  std::string Json() const;
  // Load-balancer semantics: ready/degraded serve (200), overloaded and
  // draining should be taken out of rotation (503).
  int HttpCode() const;

  // Clears every condition (tests share the global instance).
  void ResetForTesting();

 private:
  Readiness() = default;

  mutable std::mutex mu_;
  bool draining_ = false;
  bool overloaded_ = false;
  bool degraded_ = false;
  std::string draining_reason_;
  std::string overloaded_reason_;
  std::string degraded_reason_;
};

}  // namespace frappe::obs

#endif  // FRAPPE_OBS_READINESS_H_
