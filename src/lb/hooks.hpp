// Runtime hook interface: the lb layer's view of an attached observer.
//
// The master, slaves and transport report every protocol event through
// this abstract base; src/check's InvariantSet implements it (and more).
// Keeping the interface in the lb layer lets the runtime stay free of
// upward includes into check/ — the layering contract (DESIGN.md §11) —
// while check/ still receives every event it used to.
//
// Every hook is a no-op by default and fires synchronously at zero
// virtual cost, so a hooked run dispatches the exact same event sequence
// as a bare one.
#pragma once

#include <cstdint>
#include <vector>

#include "lb/plan.hpp"
#include "lb/protocol.hpp"
#include "sim/message.hpp"
#include "sim/time.hpp"

namespace nowlb::lb {

class RuntimeHooks {
 public:
  virtual ~RuntimeHooks() = default;

  // ---- master-side hookpoints (lb/master.cpp) ----
  /// One full collection: reports[r] is valid where mask[r] is set.
  virtual void on_master_reports(sim::Time /*t*/, int /*round*/,
                                 const std::vector<StatusReport>&,
                                 const std::vector<bool>& /*mask*/) {}
  /// The per-round balancing decision over the remaining distribution.
  virtual void on_master_decision(sim::Time /*t*/, const Decision&,
                                  const std::vector<int>& /*remaining*/) {}
  /// Instructions handed to one rank (observed at send time).
  virtual void on_master_instructions(sim::Time /*t*/, int /*rank*/,
                                      const Instructions&) {}

  // ---- slave-side hookpoints (lb/slave.cpp) ----
  virtual void on_slave_report(sim::Time /*t*/, int /*rank*/,
                               const StatusReport&) {}
  /// Instructions applied by a slave (normal, polled, or pre-paid path).
  virtual void on_slave_instructions(sim::Time /*t*/, int /*rank*/,
                                     const Instructions&) {}
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
  /// A pipelined slave's per-slice progress markers, in slice-id order,
  /// with the shortcuts it derives from their shape instead of scanning
  /// them: the minimum marker and the count of slices below `limit`.
  virtual void on_slice_markers(sim::Time /*t*/, int /*rank*/,
                                const std::vector<int>& /*markers*/,
                                int /*limit*/, int /*min_marker*/,
                                int /*below_limit*/) {}
};

}  // namespace nowlb::lb
