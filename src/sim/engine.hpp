// Discrete-event engine: a cancellable priority queue of timestamped
// callbacks plus the virtual clock.
//
// Ties are broken by insertion sequence number, so simulations are fully
// deterministic for a given sequence of schedule calls.
//
// Storage layout: the heap holds small POD entries (time, seq, slot index)
// while callbacks live in a recycled slot arena. Cancellation flags the
// slot; a generation counter makes stale EventIds (fired or recycled
// events) harmless. This keeps schedule/cancel churn allocation-free once
// the arena has warmed up — the engine.timer_churn benchmark tracks it.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace nowlb::sim {

class Engine {
 public:
  using Callback = std::function<void()>;

  /// Opaque handle for cancelling a scheduled event. Copyable; any copy
  /// cancels, and cancelling a fired or already-cancelled event is a no-op.
  struct EventId {
    static constexpr std::uint32_t kNoSlot = 0xffffffffu;
    std::uint64_t seq = 0;
    std::uint32_t slot = kNoSlot;
    std::uint32_t gen = 0;
  };

  Time now() const { return now_; }

  EventId schedule_at(Time t, Callback cb);
  EventId schedule_after(Time dt, Callback cb) {
    return schedule_at(now_ + dt, std::move(cb));
  }

  /// Cancel a pending event. Safe to call after the event has fired.
  void cancel(EventId& id);

  /// Run until the queue drains, stop() is called, or an error is noted.
  void run();

  /// Run until virtual time `t` (events at exactly t are executed).
  void run_until(Time t);

  void stop() { stopped_ = true; }
  bool stopped() const { return stopped_; }

  /// Record a fatal error; the run loop exits and run() rethrows it.
  void fail(std::exception_ptr e) {
    if (!error_) error_ = e;
    stopped_ = true;
  }

  std::size_t pending_events() const { return live_events_; }
  std::uint64_t dispatched_events() const { return dispatched_; }

  /// Rolling hash over the (time, sequence) pair of every dispatched event.
  /// Two runs of the same seeded simulation must produce identical hashes;
  /// any divergence is a determinism bug (or a perturbing observer).
  std::uint64_t trace_hash() const { return trace_hash_; }

 private:
  /// Heap entry: POD, cheap to sift. The callback lives in slots_[slot].
  struct Ev {
    Time t;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct Later {
    bool operator()(const Ev& a, const Ev& b) const {
      return a.t != b.t ? a.t > b.t : a.seq > b.seq;
    }
  };
  struct Slot {
    Callback cb;
    std::uint32_t gen = 0;   // bumped on recycle; stale EventIds mismatch
    bool cancelled = false;  // flagged by cancel(); entry skipped at pop
  };

  bool step();  // dispatch one event; false if queue empty

  /// Destroy the slot's callback and return it to the free list. Called at
  /// pop time (fired or cancelled alike), so callback destruction order
  /// matches the old one-owner-per-heap-entry layout.
  void recycle(std::uint32_t slot) {
    Slot& s = slots_[slot];
    s.cb = nullptr;
    ++s.gen;
    s.cancelled = false;
    free_slots_.push_back(slot);
  }

  std::priority_queue<Ev, std::vector<Ev>, Later> q_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  Time now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t dispatched_ = 0;
  std::uint64_t trace_hash_ = 0xcbf29ce484222325ull;  // FNV offset basis
  std::size_t live_events_ = 0;
  bool stopped_ = false;
  std::exception_ptr error_;
};

}  // namespace nowlb::sim
