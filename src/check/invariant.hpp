// Runtime invariant layer: passive observers over the load-balancing
// protocol and the distributed-data layer.
//
// An Invariant sees every status report, instruction, work transfer and
// slice-ownership change of a run, stamped with virtual time, and records
// Failures into the owning InvariantSet instead of throwing — a fuzzing
// run wants every violated invariant of a seed, not just the first.
//
// The InvariantSet is the wiring hub. It implements lb::RuntimeHooks, the
// lb layer's abstract observer interface, so the lb runtime reports to it
// without any include of check/ (lb carries only a nullable RuntimeHooks*
// in LbConfig); all hookpoints fire synchronously at zero virtual cost,
// so an instrumented run dispatches the exact same event sequence as a
// bare one.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "data/ownership.hpp"
#include "data/slice.hpp"
#include "lb/hooks.hpp"
#include "lb/plan.hpp"
#include "lb/protocol.hpp"
#include "sim/engine.hpp"
#include "sim/time.hpp"
#include "util/check.hpp"

namespace nowlb::check {

/// One recorded invariant violation.
struct Failure {
  std::string checker;
  std::string message;
  sim::Time at = 0;
};

class InvariantSet;

class Invariant {
 public:
  virtual ~Invariant() = default;
  virtual const char* name() const = 0;

  // ---- master-side hookpoints (lb/master.cpp) ----
  /// One full collection: reports[r] is valid where mask[r] is set.
  virtual void on_master_reports(sim::Time /*t*/, int /*round*/,
                                 const std::vector<lb::StatusReport>&,
                                 const std::vector<bool>& /*mask*/) {}
  /// The per-round balancing decision over the remaining distribution.
  virtual void on_master_decision(sim::Time /*t*/, const lb::Decision&,
                                  const std::vector<int>& /*remaining*/) {}
  /// Instructions handed to one rank (observed at send time).
  virtual void on_master_instructions(sim::Time /*t*/, int /*rank*/,
                                      const lb::Instructions&) {}

  // ---- slave-side hookpoints (lb/slave.cpp) ----
  virtual void on_slave_report(sim::Time /*t*/, int /*rank*/,
                               const lb::StatusReport&) {}
  /// Instructions applied by a slave (normal, polled, or pre-paid path).
  virtual void on_slave_instructions(sim::Time /*t*/, int /*rank*/,
                                     const lb::Instructions&) {}
  /// A transfer's send half completed: `actual` units packed of the
  /// `ordered` target and put on the wire towards `to_rank`.
  virtual void on_units_packed(sim::Time /*t*/, int /*from_rank*/,
                               int /*to_rank*/, int /*ordered*/,
                               int /*actual*/) {}
  /// A transfer's receive half completed: `actual` units integrated.
  virtual void on_units_unpacked(sim::Time /*t*/, int /*rank*/,
                                 int /*from_rank*/, int /*ordered*/,
                                 int /*actual*/) {}

  // ---- fault-tolerance hookpoints (lb/master.cpp, lb/transport.cpp) ----
  /// Master evicted `rank` (pid) after a missed-report heartbeat deadline.
  virtual void on_rank_evicted(sim::Time /*t*/, int /*rank*/,
                               sim::Pid /*pid*/) {}
  /// Master assigned orphaned unit ids from an evicted rank to `rank`.
  virtual void on_orphans_assigned(sim::Time /*t*/, int /*rank*/,
                                   const std::vector<int>& /*ids*/) {}
  /// Slave `rank` reconstructed and integrated adopted unit ids.
  virtual void on_adopted(sim::Time /*t*/, int /*rank*/,
                          const std::vector<int>& /*ids*/) {}
  /// Reliable transport delivered (src, tag, seq) to dst's application.
  virtual void on_transport_deliver(sim::Time /*t*/, sim::Pid /*src*/,
                                    sim::Pid /*dst*/, int /*tag*/,
                                    std::uint32_t /*seq*/) {}
  /// Sender exhausted retransmit attempts for a message towards dst.
  virtual void on_transport_gave_up(sim::Time /*t*/, sim::Pid /*src*/,
                                    sim::Pid /*dst*/, int /*tag*/) {}

  // ---- application hookpoints (apps/sor.cpp) ----
  /// Owned slices' progress markers in id order, with the minimum and the
  /// count below `limit` the application derived without scanning them.
  virtual void on_slice_markers(sim::Time /*t*/, int /*rank*/,
                                const std::vector<int>& /*markers*/,
                                int /*limit*/, int /*min_marker*/,
                                int /*below_limit*/) {}

  // ---- data-layer hookpoints (data/dist_array.hpp via SliceLedger) ----
  virtual void on_slice_added(sim::Time /*t*/, int /*rank*/,
                              data::SliceId /*id*/) {}
  virtual void on_slice_removed(sim::Time /*t*/, int /*rank*/,
                                data::SliceId /*id*/) {}

  // ---- lifecycle ----
  virtual void on_run_end(sim::Time /*t*/) {}

 protected:
  /// Record a violation (defined after InvariantSet).
  void fail(sim::Time t, std::string message);

 private:
  friend class InvariantSet;
  InvariantSet* set_ = nullptr;
};

class InvariantSet : public data::SliceLedger, public lb::RuntimeHooks {
 public:
  /// Observation-layer fault injection: corrupt the event stream fed to the
  /// checkers to prove the failure path fires (the simulated system itself
  /// stays correct). kSkipCredit drops one transfer's packed credit;
  /// kWrongRound mislabels one applied instruction's round. kThrow raises
  /// a CheckFailure from the first slave report, inside the run, as a
  /// failing NOWLB_CHECK in a process would.
  enum class Fault { kNone, kSkipCredit, kWrongRound, kThrow };

  Invariant& add(std::unique_ptr<Invariant> checker) {
    checker->set_ = this;
    checkers_.push_back(std::move(checker));
    return *checkers_.back();
  }

  /// Stamp data-layer events (which carry no time) with this clock.
  void bind_clock(const sim::Engine* clock) { clock_ = clock; }

  void inject_fault(Fault f) { fault_ = f; }

  const std::vector<Failure>& failures() const { return failures_; }
  bool ok() const { return failures_.empty(); }

  void record(Failure f) {
    // Cap collection: one bad seed can violate an invariant per event.
    if (failures_.size() < kMaxFailures) failures_.push_back(std::move(f));
  }

  /// Multi-line human-readable failure summary.
  std::string report() const {
    std::string out;
    for (const Failure& f : failures_) {
      out += "  [" + f.checker + "] t=" +
             std::to_string(sim::to_seconds(f.at)) + "s: " + f.message + "\n";
    }
    return out;
  }

  // ---- lb::RuntimeHooks dispatch (called from lb/master.cpp,
  // lb/slave.cpp, lb/transport.cpp) ----
  void on_master_reports(sim::Time t, int round,
                         const std::vector<lb::StatusReport>& reports,
                         const std::vector<bool>& mask) override {
    for (auto& c : checkers_) c->on_master_reports(t, round, reports, mask);
  }
  void on_master_decision(sim::Time t, const lb::Decision& d,
                          const std::vector<int>& remaining) override {
    for (auto& c : checkers_) c->on_master_decision(t, d, remaining);
  }
  void on_master_instructions(sim::Time t, int rank,
                              const lb::Instructions& ins) override {
    for (auto& c : checkers_) c->on_master_instructions(t, rank, ins);
  }
  void on_slave_report(sim::Time t, int rank,
                       const lb::StatusReport& rep) override {
    if (fault_ == Fault::kThrow && !fault_fired_) {
      fault_fired_ = true;
      NOWLB_CHECK(false, "injected fault at rank " << rank << "'s report");
    }
    for (auto& c : checkers_) c->on_slave_report(t, rank, rep);
  }
  void on_slave_instructions(sim::Time t, int rank,
                             const lb::Instructions& ins) override {
    if (fault_ == Fault::kWrongRound && !fault_fired_) {
      fault_fired_ = true;
      lb::Instructions wrong = ins;
      // +2, not +1: a pre-paid instruction legitimately runs one round
      // ahead, so +1 could land inside the allowed window.
      wrong.round += 2;
      for (auto& c : checkers_) c->on_slave_instructions(t, rank, wrong);
      return;
    }
    for (auto& c : checkers_) c->on_slave_instructions(t, rank, ins);
  }
  void on_units_packed(sim::Time t, int from_rank, int to_rank, int ordered,
                       int actual) override {
    if (fault_ == Fault::kSkipCredit && !fault_fired_) {
      fault_fired_ = true;
      return;  // the transfer's credit never reaches the checkers
    }
    for (auto& c : checkers_) {
      c->on_units_packed(t, from_rank, to_rank, ordered, actual);
    }
  }
  void on_units_unpacked(sim::Time t, int rank, int from_rank, int ordered,
                         int actual) override {
    for (auto& c : checkers_) {
      c->on_units_unpacked(t, rank, from_rank, ordered, actual);
    }
  }
  void on_rank_evicted(sim::Time t, int rank, sim::Pid pid) override {
    for (auto& c : checkers_) c->on_rank_evicted(t, rank, pid);
  }
  void on_orphans_assigned(sim::Time t, int rank,
                           const std::vector<int>& ids) override {
    for (auto& c : checkers_) c->on_orphans_assigned(t, rank, ids);
  }
  void on_adopted(sim::Time t, int rank, const std::vector<int>& ids) override {
    for (auto& c : checkers_) c->on_adopted(t, rank, ids);
  }
  void on_transport_deliver(sim::Time t, sim::Pid src, sim::Pid dst, int tag,
                            std::uint32_t seq) override {
    for (auto& c : checkers_) c->on_transport_deliver(t, src, dst, tag, seq);
  }
  void on_transport_gave_up(sim::Time t, sim::Pid src, sim::Pid dst,
                            int tag) override {
    for (auto& c : checkers_) c->on_transport_gave_up(t, src, dst, tag);
  }
  void on_slice_markers(sim::Time t, int rank,
                        const std::vector<int>& markers, int limit,
                        int min_marker, int below_limit) override {
    for (auto& c : checkers_) {
      c->on_slice_markers(t, rank, markers, limit, min_marker, below_limit);
    }
  }
  void on_run_end(sim::Time t) {
    for (auto& c : checkers_) c->on_run_end(t);
  }

  // ---- data::SliceLedger (installed via data::SliceLedgerScope) ----
  void on_slice_added(int rank, data::SliceId id) override {
    const sim::Time t = clock_ ? clock_->now() : 0;
    for (auto& c : checkers_) c->on_slice_added(t, rank, id);
  }
  void on_slice_removed(int rank, data::SliceId id) override {
    const sim::Time t = clock_ ? clock_->now() : 0;
    for (auto& c : checkers_) c->on_slice_removed(t, rank, id);
  }

 private:
  static constexpr std::size_t kMaxFailures = 64;

  std::vector<std::unique_ptr<Invariant>> checkers_;
  std::vector<Failure> failures_;
  const sim::Engine* clock_ = nullptr;
  Fault fault_ = Fault::kNone;
  bool fault_fired_ = false;
};

inline void Invariant::fail(sim::Time t, std::string message) {
  if (set_ != nullptr) set_->record({name(), std::move(message), t});
}

}  // namespace nowlb::check
