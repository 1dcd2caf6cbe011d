#ifndef FRAPPE_OBS_RING_H_
#define FRAPPE_OBS_RING_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

namespace frappe::obs {

// Fixed-capacity retention buffer behind every "recent N" view the stats
// server serves (the log tail on /debug/logz, the retained traces on
// /debug/tracez and their slow subset on /stats): a push past capacity
// evicts the oldest entry and counts it. Iteration and Snapshot run
// oldest first.
//
// Not synchronized: each owner already guards its ring with the mutex
// that covers its other state.
template <typename T>
class Ring {
 public:
  explicit Ring(size_t capacity) : capacity_(capacity) {}

  void Push(T value) {
    if (items_.size() >= capacity_) {
      items_.pop_front();
      ++evicted_;
    }
    items_.push_back(std::move(value));
  }

  std::vector<T> Snapshot() const { return {items_.begin(), items_.end()}; }

  // Drops every entry and resets the eviction count.
  void Clear() {
    items_.clear();
    evicted_ = 0;
  }

  size_t size() const { return items_.size(); }
  // Entries evicted by pushes past capacity since construction or Clear.
  uint64_t evicted() const { return evicted_; }

  auto begin() { return items_.begin(); }
  auto end() { return items_.end(); }
  auto begin() const { return items_.begin(); }
  auto end() const { return items_.end(); }
  auto rbegin() const { return items_.rbegin(); }
  auto rend() const { return items_.rend(); }

 private:
  size_t capacity_;
  std::deque<T> items_;  // oldest at front
  uint64_t evicted_ = 0;
};

}  // namespace frappe::obs

#endif  // FRAPPE_OBS_RING_H_
