#include "obs/readiness.h"

#include "common/string_util.h"

namespace frappe::obs {

Readiness& Readiness::Global() {
  static Readiness* instance = new Readiness();
  return *instance;
}

void Readiness::SetDegraded(std::string reason) {
  std::lock_guard<std::mutex> lock(mu_);
  degraded_ = true;
  degraded_reason_ = std::move(reason);
}

void Readiness::SetOverloaded(bool on, std::string reason) {
  std::lock_guard<std::mutex> lock(mu_);
  overloaded_ = on;
  overloaded_reason_ = on ? std::move(reason) : std::string();
}

void Readiness::SetDraining(bool on, std::string reason) {
  std::lock_guard<std::mutex> lock(mu_);
  draining_ = on;
  draining_reason_ = on ? std::move(reason) : std::string();
}

Readiness::State Readiness::state(std::string* reason) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (draining_) {
    if (reason != nullptr) *reason = draining_reason_;
    return State::kDraining;
  }
  if (overloaded_) {
    if (reason != nullptr) *reason = overloaded_reason_;
    return State::kOverloaded;
  }
  if (degraded_) {
    if (reason != nullptr) *reason = degraded_reason_;
    return State::kDegraded;
  }
  if (reason != nullptr) reason->clear();
  return State::kReady;
}

const char* Readiness::Name(State state) {
  switch (state) {
    case State::kReady:
      return "ready";
    case State::kDegraded:
      return "degraded";
    case State::kOverloaded:
      return "overloaded";
    case State::kDraining:
      return "draining";
  }
  return "unknown";
}

std::string Readiness::Json() const {
  std::string reason;
  State s = state(&reason);
  std::string out = "{\"state\": \"";
  out += Name(s);
  out += "\", \"reason\": ";
  out += reason.empty() ? "null" : JsonQuote(reason);
  out += "}\n";
  return out;
}

int Readiness::HttpCode() const {
  State s = state(nullptr);
  return (s == State::kDraining || s == State::kOverloaded) ? 503 : 200;
}

void Readiness::ResetForTesting() {
  std::lock_guard<std::mutex> lock(mu_);
  draining_ = overloaded_ = degraded_ = false;
  draining_reason_.clear();
  overloaded_reason_.clear();
  degraded_reason_.clear();
}

}  // namespace frappe::obs
