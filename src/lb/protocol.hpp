// Master <-> slave wire protocol (§3.2, §3.3).
//
// Each balancing round, every slave sends one StatusReport and receives one
// Instructions message. In pipelined mode (Fig. 2b) the instructions a slave
// receives at round r were computed from round r-1's reports; in synchronous
// mode (Fig. 2a) from round r's.
#pragma once

#include <cstdint>
#include <vector>

#include "msg/serialize.hpp"
#include "sim/message.hpp"

namespace nowlb::lb {

// Message tags used by the load-balancing runtime.
inline constexpr sim::Tag kTagReport = 9001;  // slave -> master status
inline constexpr sim::Tag kTagInstr = 9002;   // master -> slave instructions
inline constexpr sim::Tag kTagMove = 9003;    // slave -> slave work movement
inline constexpr sim::Tag kTagAck = 9004;     // transport acknowledgement

// Optional trailers ride behind the classic fixed fields, each introduced
// by a one-byte marker; decode loops until the payload is exhausted. The
// fault-tolerance marker value doubles as its legacy presence flag (the ft
// trailer has always started with the byte 1), so old payloads parse
// unchanged. With every trailer disabled the wire bytes are bit-identical
// to the classic format.
inline constexpr std::uint8_t kTrailerFt = 1;      // fault-tolerance census
inline constexpr std::uint8_t kTrailerCausal = 2;  // causal round context

/// Slave performance since the last information exchange, measured in the
/// application-specific unit of "work units per second" — iterations of the
/// distributed loop — so heterogeneous or loaded processors need no
/// explicit weighting (§3.2).
struct StatusReport {
  std::int32_t round = 0;
  /// Work units completed since the previous report.
  double units_done = 0;
  /// Wall-clock seconds since the previous report (the whole window,
  /// including communication — competing load shows up here).
  double elapsed_s = 0;
  /// Active work units still held locally.
  std::int32_t remaining = 0;
  /// Seconds spent blocked in the previous balance round (interaction cost).
  double lb_blocked_s = 0;
  /// Seconds spent packing/sending/receiving/unpacking moved work since the
  /// previous report, and the units involved (movement cost measurement).
  double move_time_s = 0;
  std::int32_t moved_units = 0;
  /// Final report: this slave has finished its whole computation and will
  /// not participate in further rounds (done-flag termination mode).
  std::uint8_t done = 0;

  // ---- fault-tolerance trailer (absent from the classic wire format) ----
  /// Trailer present. Set by slaves running under a heartbeat regime.
  std::uint8_t ft = 0;
  /// Census: the unit ids this slave holds after applying the previous
  /// round's instructions. The master reconstructs orphaned work from the
  /// survivors' inventories after an eviction (DESIGN.md §9).
  std::vector<std::int32_t> inventory;

  // ---- causal trailer (LbConfig::causal; absent when off) ----
  /// Trailer present.
  std::uint8_t causal = 0;
  /// Wire round of the last Instructions this slave applied before sending
  /// this report (0 = none yet): the report's causal parent edge.
  std::int32_t ctx_round = 0;

  /// Exact wire size; pass to msg::encode(v, size_hint) on hot paths.
  std::size_t encoded_size() const {
    std::size_t n = sizeof(round) + sizeof(units_done) + sizeof(elapsed_s) +
                    sizeof(remaining) + sizeof(lb_blocked_s) +
                    sizeof(move_time_s) + sizeof(moved_units) + sizeof(done);
    if (ft) {
      n += sizeof(kTrailerFt) + sizeof(std::uint64_t) +
           inventory.size() * sizeof(std::int32_t);
    }
    if (causal) n += sizeof(kTrailerCausal) + sizeof(ctx_round);
    return n;
  }

  void encode(msg::Writer& w) const {
    w.put(round).put(units_done).put(elapsed_s).put(remaining)
        .put(lb_blocked_s).put(move_time_s).put(moved_units).put(done);
    if (ft) {
      w.put(kTrailerFt);
      w.put_vec(inventory);
    }
    if (causal) {
      w.put(kTrailerCausal);
      w.put(ctx_round);
    }
  }
  static StatusReport decode(msg::Reader& r) {
    StatusReport s;
    s.round = r.get<std::int32_t>();
    s.units_done = r.get<double>();
    s.elapsed_s = r.get<double>();
    s.remaining = r.get<std::int32_t>();
    s.lb_blocked_s = r.get<double>();
    s.move_time_s = r.get<double>();
    s.moved_units = r.get<std::int32_t>();
    s.done = r.get<std::uint8_t>();
    while (r.remaining() > 0) {
      const auto marker = r.get<std::uint8_t>();
      if (marker == kTrailerFt) {
        s.ft = 1;
        s.inventory = r.get_vec<std::int32_t>();
      } else if (marker == kTrailerCausal) {
        s.causal = 1;
        s.ctx_round = r.get<std::int32_t>();
      } else {
        NOWLB_CHECK(false, "StatusReport: unknown trailer marker");
      }
    }
    return s;
  }
};

/// One work transfer order: this slave sends `count` units to `peer_rank`,
/// or expects up to `count` units from it. Counts are targets computed from
/// (possibly one round old) reports; the sender ships min(count, on hand)
/// and always ships a message so the receiver's blocking receive completes.
struct MoveOrder {
  std::int32_t peer_rank = 0;
  std::int32_t count = 0;
  std::uint8_t is_send = 0;

  static constexpr std::size_t encoded_size() {
    return sizeof(peer_rank) + sizeof(count) + sizeof(is_send);
  }

  void encode(msg::Writer& w) const { w.put(peer_rank).put(count).put(is_send); }
  static MoveOrder decode(msg::Reader& r) {
    MoveOrder m;
    m.peer_rank = r.get<std::int32_t>();
    m.count = r.get<std::int32_t>();
    m.is_send = r.get<std::uint8_t>();
    return m;
  }
};

/// Master instructions for one slave for one round.
struct Instructions {
  std::int32_t round = 0;
  /// The current distributed-loop invocation has completed globally.
  std::uint8_t phase_done = 0;
  /// Work units to complete before the next balance round (frequency
  /// control, §4.3 — converted from the target period via this slave's
  /// predicted rate).
  double units_until_next = 0;
  std::vector<MoveOrder> orders;

  // ---- fault-tolerance trailer (absent from the classic wire format) ----
  /// Trailer present.
  std::uint8_t ft = 0;
  /// Ranks evicted since the previous instructions. Recipients must stop
  /// expecting traffic from them and settle in-flight survivor moves.
  std::vector<std::int32_t> evicted;
  /// Orphaned unit ids this slave must reconstruct and take over.
  std::vector<std::int32_t> adopt;

  // ---- causal trailer (LbConfig::causal; absent when off) ----
  /// Trailer present.
  std::uint8_t causal = 0;
  /// Decision-ledger round whose plan these instructions carry (0 = none:
  /// pipelined priming or a pure phase_done notification).
  std::int32_t decision_round = 0;

  /// Exact wire size; pass to msg::encode(v, size_hint) on hot paths.
  std::size_t encoded_size() const {
    std::size_t n = sizeof(round) + sizeof(phase_done) +
                    sizeof(units_until_next) + sizeof(std::uint32_t) +
                    orders.size() * MoveOrder::encoded_size();
    if (ft) {
      n += sizeof(kTrailerFt) + 2 * sizeof(std::uint64_t) +
           (evicted.size() + adopt.size()) * sizeof(std::int32_t);
    }
    if (causal) n += sizeof(kTrailerCausal) + sizeof(decision_round);
    return n;
  }

  void encode(msg::Writer& w) const {
    w.put(round).put(phase_done).put(units_until_next);
    w.put<std::uint32_t>(static_cast<std::uint32_t>(orders.size()));
    for (const auto& o : orders) o.encode(w);
    if (ft) {
      w.put(kTrailerFt);
      w.put_vec(evicted);
      w.put_vec(adopt);
    }
    if (causal) {
      w.put(kTrailerCausal);
      w.put(decision_round);
    }
  }
  static Instructions decode(msg::Reader& r) {
    Instructions ins;
    ins.round = r.get<std::int32_t>();
    ins.phase_done = r.get<std::uint8_t>();
    ins.units_until_next = r.get<double>();
    const auto n = r.get<std::uint32_t>();
    ins.orders.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i)
      ins.orders.push_back(MoveOrder::decode(r));
    while (r.remaining() > 0) {
      const auto marker = r.get<std::uint8_t>();
      if (marker == kTrailerFt) {
        ins.ft = 1;
        ins.evicted = r.get_vec<std::int32_t>();
        ins.adopt = r.get_vec<std::int32_t>();
      } else if (marker == kTrailerCausal) {
        ins.causal = 1;
        ins.decision_round = r.get<std::int32_t>();
      } else {
        NOWLB_CHECK(false, "Instructions: unknown trailer marker");
      }
    }
    return ins;
  }
};

/// Causal context prefixed to every kTagMove payload when LbConfig::causal
/// is on: the wire round whose instructions ordered the transfer and the
/// sending rank. Lets the analyzer attribute a migration to its decision
/// even when the message is stashed out-of-band or reordered by faults.
/// Off the wire entirely (raw application payload) when causal is off.
struct MoveContext {
  std::int32_t round = 0;
  std::int32_t from_rank = -1;
};

/// The application payload's owned buffers move into the envelope.
inline sim::Payload wrap_move(const MoveContext& mc, sim::Payload&& payload) {
  msg::Writer w;
  w.reserve(sizeof(mc.round) + sizeof(mc.from_rank) + sizeof(std::uint64_t) +
            payload.bytes.size());
  w.put(mc.round).put(mc.from_rank).put_bytes(std::move(payload));
  return w.take();
}

/// Inverse of wrap_move: returns the context and replaces `payload` with
/// the inner application payload (its owned buffers moved along).
inline MoveContext unwrap_move(sim::Payload& payload) {
  msg::Reader r(payload);
  MoveContext mc;
  mc.round = r.get<std::int32_t>();
  mc.from_rank = r.get<std::int32_t>();
  sim::Payload inner = r.get_bytes();
  NOWLB_CHECK(r.done(), "kTagMove causal envelope: trailing bytes");
  payload = std::move(inner);
  return mc;
}

}  // namespace nowlb::lb
