// Wire-format tests for the causal trailers (DESIGN.md §13): byte-level
// compatibility with the classic format when causal propagation is off,
// round-trip of the causal fields when on, composition with the
// fault-tolerance trailer, strict rejection of unknown markers, and the
// kTagMove causal envelope.
#include "lb/protocol.hpp"

#include <gtest/gtest.h>

#include "data/dist_array.hpp"
#include "msg/serialize.hpp"
#include "util/check.hpp"

namespace nowlb::lb {
namespace {

StatusReport sample_report() {
  StatusReport s;
  s.round = 12;
  s.units_done = 34.5;
  s.elapsed_s = 1.75;
  s.remaining = 99;
  s.lb_blocked_s = 0.002;
  s.move_time_s = 0.125;
  s.moved_units = 8;
  return s;
}

Instructions sample_instr() {
  Instructions ins;
  ins.round = 3;
  ins.units_until_next = 17.25;
  ins.orders = {{2, 5, 1}, {0, 3, 0}};
  return ins;
}

// The acceptance bar for the feature gate: with causal off, the payload
// must be bit-identical to the classic encoding even when the causal
// fields hold stale values.
TEST(CausalTrailer, OffMeansBitIdenticalBytes) {
  const StatusReport classic = sample_report();
  StatusReport stale = sample_report();
  stale.ctx_round = 7;  // never encoded while causal == 0
  EXPECT_EQ(msg::encode(classic).bytes, msg::encode(stale).bytes);

  const Instructions classic_ins = sample_instr();
  Instructions stale_ins = sample_instr();
  stale_ins.decision_round = 4;
  EXPECT_EQ(msg::encode(classic_ins).bytes, msg::encode(stale_ins).bytes);
}

TEST(CausalTrailer, StatusReportRoundtrip) {
  StatusReport s = sample_report();
  s.causal = 1;
  s.ctx_round = 11;
  EXPECT_EQ(msg::encode(s).size(), s.encoded_size());
  const auto out = msg::decode<StatusReport>(msg::encode(s));
  EXPECT_EQ(out.causal, 1);
  EXPECT_EQ(out.ctx_round, 11);
  EXPECT_EQ(out.round, s.round);
  EXPECT_EQ(out.remaining, s.remaining);
}

TEST(CausalTrailer, InstructionsRoundtrip) {
  Instructions ins = sample_instr();
  ins.causal = 1;
  ins.decision_round = 6;
  EXPECT_EQ(msg::encode(ins).size(), ins.encoded_size());
  const auto out = msg::decode<Instructions>(msg::encode(ins));
  EXPECT_EQ(out.causal, 1);
  EXPECT_EQ(out.decision_round, 6);
  ASSERT_EQ(out.orders.size(), 2u);
  EXPECT_EQ(out.orders[0].count, 5);
}

// Both trailers ride together: ft first (its marker doubles as the legacy
// presence flag), causal behind it.
TEST(CausalTrailer, ComposesWithFtTrailer) {
  StatusReport s = sample_report();
  s.ft = 1;
  s.inventory = {4, 9, 13};
  s.causal = 1;
  s.ctx_round = 2;
  EXPECT_EQ(msg::encode(s).size(), s.encoded_size());
  const auto out = msg::decode<StatusReport>(msg::encode(s));
  EXPECT_EQ(out.ft, 1);
  EXPECT_EQ(out.inventory, (std::vector<std::int32_t>{4, 9, 13}));
  EXPECT_EQ(out.causal, 1);
  EXPECT_EQ(out.ctx_round, 2);

  Instructions ins = sample_instr();
  ins.ft = 1;
  ins.evicted = {1};
  ins.adopt = {17, 18};
  ins.causal = 1;
  ins.decision_round = 5;
  EXPECT_EQ(msg::encode(ins).size(), ins.encoded_size());
  const auto iout = msg::decode<Instructions>(msg::encode(ins));
  EXPECT_EQ(iout.ft, 1);
  EXPECT_EQ(iout.evicted, (std::vector<std::int32_t>{1}));
  EXPECT_EQ(iout.adopt, (std::vector<std::int32_t>{17, 18}));
  EXPECT_EQ(iout.causal, 1);
  EXPECT_EQ(iout.decision_round, 5);
}

// A legacy ft payload (pre-trailer encoding: flag byte 1 then the
// inventory) decodes unchanged — the marker value was chosen to match.
TEST(CausalTrailer, LegacyFtPayloadStillDecodes) {
  msg::Writer w;
  const StatusReport s = sample_report();
  w.put(s.round).put(s.units_done).put(s.elapsed_s).put(s.remaining)
      .put(s.lb_blocked_s).put(s.move_time_s).put(s.moved_units).put(s.done);
  w.put<std::uint8_t>(1);  // the legacy ft presence flag
  w.put_vec(std::vector<std::int32_t>{7, 8});
  auto b = w.take();
  const auto out = msg::decode<StatusReport>(b);
  EXPECT_EQ(out.ft, 1);
  EXPECT_EQ(out.inventory, (std::vector<std::int32_t>{7, 8}));
  EXPECT_EQ(out.causal, 0);
}

TEST(CausalTrailer, UnknownMarkerIsRejected) {
  StatusReport s = sample_report();
  msg::Writer w;
  s.encode(w);
  w.put<std::uint8_t>(99);  // no such trailer
  auto b = w.take();
  EXPECT_THROW(msg::decode<StatusReport>(b), CheckFailure);

  Instructions ins = sample_instr();
  msg::Writer wi;
  ins.encode(wi);
  wi.put<std::uint8_t>(99);
  auto bi = wi.take();
  EXPECT_THROW(msg::decode<Instructions>(bi), CheckFailure);
}

TEST(MoveEnvelope, WrapUnwrapRoundtrip) {
  const sim::Bytes payload = {std::byte{1}, std::byte{2}, std::byte{3}};
  sim::Payload wire = wrap_move({14, 2}, sim::Payload(payload));
  EXPECT_NE(wire.bytes, payload);
  const MoveContext mc = unwrap_move(wire);
  EXPECT_EQ(mc.round, 14);
  EXPECT_EQ(mc.from_rank, 2);
  EXPECT_EQ(wire.bytes, payload);  // unwrap restores the application bytes
}

// The envelope moves the slices' owned buffers along in both directions:
// the bytes are those of wrapping the serialised payload, and the
// receiver ends up with the sender's storage.
TEST(MoveEnvelope, WrapUnwrapCarriesOwnedBuffers) {
  data::DistArray<double> src(3, 6), dst(3, 6);
  src.add(2, {1, 2, 3}, 1);
  src.add(4, {4, 5, 6}, 2);
  const double* data = src.slice(4).data();
  sim::Payload inner = src.pack_and_remove({2, 4});
  const sim::Bytes inner_flat = inner.flatten();
  sim::Payload wire = wrap_move({9, 3}, std::move(inner));
  EXPECT_EQ(wire.size(), 2 * sizeof(std::int32_t) + sizeof(std::uint64_t) +
                             inner_flat.size());
  EXPECT_EQ(wire.flatten(),
            wrap_move({9, 3}, sim::Payload(inner_flat)).flatten());

  const MoveContext mc = unwrap_move(wire);
  EXPECT_EQ(mc.round, 9);
  EXPECT_EQ(mc.from_rank, 3);
  EXPECT_EQ(wire.flatten(), inner_flat);
  EXPECT_EQ(dst.unpack_and_add(wire), (std::vector<data::SliceId>{2, 4}));
  EXPECT_EQ(dst.slice(4).data(), data);
  EXPECT_EQ(dst.marker(4), 2);
}

TEST(MoveEnvelope, TrailingBytesAreRejected) {
  sim::Payload wire = wrap_move({1, 0}, sim::Bytes{std::byte{5}});
  wire.bytes.push_back(std::byte{0});
  EXPECT_THROW(unwrap_move(wire), CheckFailure);
}

}  // namespace
}  // namespace nowlb::lb
