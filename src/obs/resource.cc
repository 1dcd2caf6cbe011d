#include "obs/resource.h"

#include <malloc.h>
#include <time.h>

#include <cstdlib>
#include <new>

namespace frappe {
namespace obs {
namespace internal {

// Constant-initialized POD TLS: safe to read from any thread at any point
// in the process lifetime, including inside the allocation hooks below.
//
// The allocation hook buffers into the plain counters here and only
// touches the tracker's shared atomics when the live-byte delta crosses
// `flush_at` (or the owning scope closes), keeping per-event atomics off
// the allocation path.
struct TlsAccounting {
  ResourceTracker* tracker;
  uint64_t alloc_count;
  uint64_t alloc_bytes;
  uint64_t freed_bytes;
  int64_t live_bytes;
  int64_t live_peak;  // max live_bytes since the last flush (>= 0)
  uint64_t flush_at;  // flush when |live_bytes| reaches this

  void Flush() {
    tracker->AddAllocDeltas(alloc_count, alloc_bytes, freed_bytes,
                            live_bytes, live_peak);
    alloc_count = 0;
    alloc_bytes = 0;
    freed_bytes = 0;
    live_bytes = 0;
    live_peak = 0;
  }
};
thread_local TlsAccounting tls_acct = {nullptr, 0, 0, 0, 0, 0, 0};

}  // namespace internal
namespace {

using internal::tls_acct;
using internal::TlsAccounting;

std::atomic<bool> g_enabled{true};

// Large enough that alloc-heavy queries flush rarely, small enough that a
// single oversized allocation (or a budget check shortly after one) sees
// the tracker's live bytes move promptly.
constexpr uint64_t kDefaultFlushBytes = 256 * 1024;

// A budgeted query must not hide budget/1 worth of live bytes in TLS
// buffers: tighten the flush threshold to a quarter of the budget (which
// can reach 0 — flush on every event — for pathologically small budgets).
uint64_t FlushThresholdFor(const ResourceTracker* tracker) {
  uint64_t budget = tracker->budget_bytes();
  if (budget > 0 && budget / 4 < kDefaultFlushBytes) return budget / 4;
  return kDefaultFlushBytes;
}

void FlushTls() {
  TlsAccounting& t = tls_acct;
  if (t.tracker == nullptr) return;
  if (t.alloc_count == 0 && t.freed_bytes == 0 && t.live_peak == 0) return;
  t.Flush();
}

void InstallTracker(ResourceTracker* tracker) {
  FlushTls();  // buffered deltas belong to the outgoing tracker
  tls_acct.tracker = tracker;
  tls_acct.flush_at = tracker != nullptr ? FlushThresholdFor(tracker) : 0;
}

}  // namespace

ResourceTracker* ResourceTracker::Current() { return tls_acct.tracker; }

void ResourceTracker::SetEnabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

bool ResourceTracker::Enabled() {
  return g_enabled.load(std::memory_order_relaxed);
}

uint64_t ThreadCpuNs() {
  struct timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

ResourceScope::ResourceScope(ResourceTracker* tracker) {
  if (tracker == nullptr || !ResourceTracker::Enabled()) return;
  if (tls_acct.tracker == tracker) return;  // already attached (nested scope)
  tracker_ = tracker;
  prev_ = tls_acct.tracker;
  InstallTracker(tracker);
  cpu_base_ns_ = ThreadCpuNs();
  active_ = true;
}

void ResourceScope::SyncCpu() {
  if (!active_) return;
  FlushTls();
  uint64_t now = ThreadCpuNs();
  if (now > cpu_base_ns_) tracker_->AddCpuNs(now - cpu_base_ns_);
  cpu_base_ns_ = now;
}

ResourceScope::~ResourceScope() {
  if (!active_) return;
  SyncCpu();
  InstallTracker(prev_);
  active_ = false;
}

}  // namespace obs
}  // namespace frappe

// ---------------------------------------------------------------------------
// Global allocation seam. Linked into any binary that references the obs
// resource layer (the query session does), these replace the C++ runtime's
// operator new/delete with thin malloc/free wrappers that charge the current
// thread's tracker. Going through malloc keeps sanitizer interceptors (ASan,
// TSan) fully in the loop. Bytes are malloc_usable_size() so alloc and free
// charge the same amount regardless of allocator rounding.
// ---------------------------------------------------------------------------

namespace {

using frappe::obs::internal::tls_acct;
using frappe::obs::internal::TlsAccounting;

inline uint64_t AbsLive(int64_t live) {
  return static_cast<uint64_t>(live < 0 ? -live : live);
}

inline void AccountAlloc(void* ptr) {
  TlsAccounting& t = tls_acct;
  if (t.tracker != nullptr && ptr != nullptr) {
    uint64_t bytes = malloc_usable_size(ptr);
    t.alloc_count += 1;
    t.alloc_bytes += bytes;
    t.live_bytes += static_cast<int64_t>(bytes);
    if (t.live_bytes > t.live_peak) t.live_peak = t.live_bytes;
    if (AbsLive(t.live_bytes) >= t.flush_at) t.Flush();
  }
}

inline void AccountFree(void* ptr) {
  TlsAccounting& t = tls_acct;
  if (t.tracker != nullptr && ptr != nullptr) {
    uint64_t bytes = malloc_usable_size(ptr);
    t.freed_bytes += bytes;
    t.live_bytes -= static_cast<int64_t>(bytes);
    if (AbsLive(t.live_bytes) >= t.flush_at) t.Flush();
  }
}

void* AllocOrHandler(size_t size) {
  if (size == 0) size = 1;
  void* ptr = std::malloc(size);
  while (ptr == nullptr) {
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) return nullptr;
    handler();
    ptr = std::malloc(size);
  }
  return ptr;
}

void* AlignedAllocOrHandler(size_t size, size_t alignment) {
  if (size == 0) size = 1;
  void* ptr = nullptr;
  while (posix_memalign(&ptr, alignment, size) != 0) {
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) return nullptr;
    handler();
    ptr = nullptr;
  }
  return ptr;
}

}  // namespace

void* operator new(size_t size) {
  void* ptr = AllocOrHandler(size);
  if (ptr == nullptr) throw std::bad_alloc();
  AccountAlloc(ptr);
  return ptr;
}

void* operator new[](size_t size) { return operator new(size); }

void* operator new(size_t size, const std::nothrow_t&) noexcept {
  void* ptr = AllocOrHandler(size);
  AccountAlloc(ptr);
  return ptr;
}

void* operator new[](size_t size, const std::nothrow_t&) noexcept {
  return operator new(size, std::nothrow);
}

void* operator new(size_t size, std::align_val_t alignment) {
  void* ptr = AlignedAllocOrHandler(size, static_cast<size_t>(alignment));
  if (ptr == nullptr) throw std::bad_alloc();
  AccountAlloc(ptr);
  return ptr;
}

void* operator new[](size_t size, std::align_val_t alignment) {
  return operator new(size, alignment);
}

void* operator new(size_t size, std::align_val_t alignment,
                   const std::nothrow_t&) noexcept {
  void* ptr = AlignedAllocOrHandler(size, static_cast<size_t>(alignment));
  AccountAlloc(ptr);
  return ptr;
}

void* operator new[](size_t size, std::align_val_t alignment,
                     const std::nothrow_t&) noexcept {
  return operator new(size, alignment, std::nothrow);
}

void operator delete(void* ptr) noexcept {
  AccountFree(ptr);
  std::free(ptr);
}

void operator delete[](void* ptr) noexcept { operator delete(ptr); }

void operator delete(void* ptr, size_t) noexcept { operator delete(ptr); }

void operator delete[](void* ptr, size_t) noexcept { operator delete(ptr); }

void operator delete(void* ptr, const std::nothrow_t&) noexcept {
  operator delete(ptr);
}

void operator delete[](void* ptr, const std::nothrow_t&) noexcept {
  operator delete(ptr);
}

void operator delete(void* ptr, std::align_val_t) noexcept {
  operator delete(ptr);
}

void operator delete[](void* ptr, std::align_val_t) noexcept {
  operator delete(ptr);
}

void operator delete(void* ptr, size_t, std::align_val_t) noexcept {
  operator delete(ptr);
}

void operator delete[](void* ptr, size_t, std::align_val_t) noexcept {
  operator delete(ptr);
}

void operator delete(void* ptr, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  operator delete(ptr);
}

void operator delete[](void* ptr, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  operator delete(ptr);
}
