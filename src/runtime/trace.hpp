// Per-worker binary event tracing: fixed-size single-writer ring buffers of
// TSC-stamped 24-byte records, drained at region/drain boundaries into a
// Chrome-trace/perfetto JSON exporter.
//
// Design constraints:
//   - record() is owner-only: plain stores into the ring, so the hot path is
//     one predictable null check + a handful of stores. No RMW, no fence.
//   - The ring holds records, not counts. Event totals live in the worker's
//     counter block (stats.hpp), which is exact and readable live whether
//     tracing is on or off; records overwritten before a drain are only
//     counted as dropped.
//   - Rings are drained by their OWNING worker at region exit (participate),
//     never concurrently with writes — TSAN-clean by construction.
//   - Compile-out: -DBOTS_RT_NO_TRACE turns trace_record() into a no-op so
//     the branch itself can be removed for minimal builds.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstddef>
#include <memory>
#include <vector>

namespace bots::rt {

enum class TraceEvent : std::uint8_t {
  spawn = 0,       // arg = depth (or task count for bulk replay), arg2 = 1 if deferred / 0 if inlined
  steal_attempt,   // arg = victim worker id
  steal_hit,       // arg = tasks taken, arg2 = (victim_node << 16) | thief_node
  park,            // arg = generation/epoch observed
  unpark,          // arg = claimed worker id
  split,           // arg = remaining iterations at split point
  mailbox,         // arg = descriptor birth (home) node, arg2 = (target_node << 16) | sender_node
  request_start,   // arg = region ctx id
  request_end,     // arg = region ctx id
  hungry,          // fruitless full find_work round
};

inline const char* trace_event_name(TraceEvent ev) noexcept {
  switch (ev) {
    case TraceEvent::spawn: return "spawn";
    case TraceEvent::steal_attempt: return "steal_attempt";
    case TraceEvent::steal_hit: return "steal_hit";
    case TraceEvent::park: return "park";
    case TraceEvent::unpark: return "unpark";
    case TraceEvent::split: return "split";
    case TraceEvent::mailbox: return "mailbox";
    case TraceEvent::request_start: return "request_start";
    case TraceEvent::request_end: return "request_end";
    case TraceEvent::hungry: return "hungry";
  }
  return "?";
}

// Packed node pair for steal_hit / mailbox payloads.
inline std::uint32_t trace_pack_nodes(unsigned a, unsigned b) noexcept {
  return (static_cast<std::uint32_t>(a) << 16) | (b & 0xffffu);
}
inline unsigned trace_node_hi(std::uint32_t packed) noexcept { return packed >> 16; }
inline unsigned trace_node_lo(std::uint32_t packed) noexcept { return packed & 0xffffu; }

struct TraceRecord {
  std::uint64_t tsc;
  std::uint64_t arg;
  std::uint32_t arg2;
  std::uint8_t type;
  std::uint8_t pad_[3];
};
static_assert(sizeof(TraceRecord) == 24, "trace records must stay packed");

inline std::uint64_t trace_now() noexcept {
#if defined(__x86_64__) || defined(_M_X64)
  return __builtin_ia32_rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

// One ring per worker. All record-array and cursor accesses are owner-only.
class TraceRing {
 public:
  explicit TraceRing(std::uint32_t capacity) {
    std::uint32_t cap = 16;
    while (cap < capacity && cap < (1u << 26)) cap <<= 1;
    buf_.resize(cap);
    mask_ = cap - 1;
  }
  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  void record(TraceEvent ev, std::uint64_t arg = 0,
              std::uint32_t arg2 = 0) noexcept {
    TraceRecord& r = buf_[head_ & mask_];
    r.tsc = trace_now();
    r.arg = arg;
    r.arg2 = arg2;
    r.type = static_cast<std::uint8_t>(ev);
    ++head_;
  }

  // Owner-only (or quiescent): appends every not-yet-consumed record to out,
  // exactly once. Records overwritten before the drain are counted as dropped.
  void drain(std::vector<TraceRecord>& out) {
    const std::uint64_t h = head_;
    std::uint64_t t = tail_;
    const std::uint64_t cap = static_cast<std::uint64_t>(mask_) + 1;
    if (h - t > cap) {
      dropped_ += (h - t) - cap;
      t = h - cap;
    }
    for (; t != h; ++t) out.push_back(buf_[t & mask_]);
    tail_ = h;
  }

  std::uint64_t dropped() const noexcept { return dropped_; }
  std::uint32_t capacity() const noexcept { return mask_ + 1; }

 private:
  std::vector<TraceRecord> buf_;
  std::uint32_t mask_ = 0;
  std::uint64_t head_ = 0;    // owner-only
  std::uint64_t tail_ = 0;    // owner-only (drain cursor)
  std::uint64_t dropped_ = 0;
};

// trace_record(): the per-site helper. When tracing is knob-off the worker's
// ring pointer is nullptr, so the entire cost is one predictable branch.
#if defined(BOTS_RT_NO_TRACE)
inline void trace_record(TraceRing*, TraceEvent, std::uint64_t = 0,
                         std::uint32_t = 0) noexcept {}
#else
inline void trace_record(TraceRing* ring, TraceEvent ev, std::uint64_t arg = 0,
                         std::uint32_t arg2 = 0) noexcept {
  if (ring != nullptr) ring->record(ev, arg, arg2);
}
#endif

// Owns the per-worker rings plus the drained event archive; converts TSC to
// wall-clock microseconds for export using a start/export calibration pair.
class TraceCollector {
 public:
  TraceCollector(unsigned workers, std::uint32_t ring_capacity);

  unsigned num_workers() const noexcept {
    return static_cast<unsigned>(rings_.size());
  }
  TraceRing* ring(unsigned i) noexcept { return rings_[i].get(); }
  const TraceRing* ring(unsigned i) const noexcept { return rings_[i].get(); }

  // Called by worker i itself at a region/drain boundary.
  void drain_worker(unsigned i) { rings_[i]->drain(drained_[i]); }
  // Called between regions (all workers quiescent).
  void drain_all() {
    for (unsigned i = 0; i < num_workers(); ++i) drain_worker(i);
  }

  const std::vector<TraceRecord>& events(unsigned i) const {
    return drained_[i];
  }
  std::uint64_t total_events_drained() const noexcept {
    std::uint64_t sum = 0;
    for (const auto& d : drained_) sum += d.size();
    return sum;
  }
  std::uint64_t dropped() const noexcept {
    std::uint64_t sum = 0;
    for (const auto& r : rings_) sum += r->dropped();
    return sum;
  }

  // Chrome-trace ("traceEvents") JSON, loadable by ui.perfetto.dev and
  // chrome://tracing. Call between regions. Returns false on I/O failure.
  bool export_chrome_trace(const char* path) const;

  // Microseconds since collector construction for a raw timestamp.
  double tsc_to_us(std::uint64_t tsc) const noexcept;

 private:
  std::vector<std::unique_ptr<TraceRing>> rings_;
  std::vector<std::vector<TraceRecord>> drained_;
  std::uint64_t t0_tsc_;
  std::chrono::steady_clock::time_point t0_wall_;
};

}  // namespace bots::rt
