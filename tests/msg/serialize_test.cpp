#include "msg/serialize.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "lb/protocol.hpp"
#include "util/rng.hpp"

namespace nowlb::msg {
namespace {

using nowlb::Rng;

TEST(Serialize, PodRoundtrip) {
  Writer w;
  w.put<std::int32_t>(-7).put<double>(3.25).put<std::uint8_t>(255);
  Payload b = w.take();
  Reader r(b);
  EXPECT_EQ(r.get<std::int32_t>(), -7);
  EXPECT_DOUBLE_EQ(r.get<double>(), 3.25);
  EXPECT_EQ(r.get<std::uint8_t>(), 255);
  EXPECT_TRUE(r.done());
}

TEST(Serialize, StringRoundtrip) {
  Writer w;
  w.put(std::string("hello world")).put(std::string(""));
  Payload b = w.take();
  Reader r(b);
  EXPECT_EQ(r.get_string(), "hello world");
  EXPECT_EQ(r.get_string(), "");
  EXPECT_TRUE(r.done());
}

TEST(Serialize, VectorRoundtrip) {
  Writer w;
  std::vector<double> v{1.5, -2.5, 0.0};
  w.put_vec(v);
  w.put_vec(std::vector<int>{});
  Payload b = w.take();
  Reader r(b);
  EXPECT_EQ(r.get_vec<double>(), v);
  EXPECT_TRUE(r.get_vec<int>().empty());
  EXPECT_TRUE(r.done());
}

TEST(Serialize, NestedBytes) {
  Writer inner;
  inner.put<int>(42);
  Writer outer;
  outer.put_bytes(inner.take());
  Payload b = outer.take();
  Reader r(b);
  Payload extracted = r.get_bytes();
  Reader r2(extracted);
  EXPECT_EQ(r2.get<int>(), 42);
}

// put_owned writes what put_vec writes, as far as the logical stream goes,
// and the vector comes back without a copy.
TEST(Serialize, OwnedVectorRoundtripsWithoutCopy) {
  const std::vector<double> values{1.5, -2.5, 4.0};
  std::vector<double> v = values;
  const double* data = v.data();
  Writer w;
  w.put<std::int32_t>(7).put_owned(std::move(v)).put<std::int32_t>(9);
  Payload p = w.take();
  Writer flat;
  flat.put<std::int32_t>(7).put_vec(values).put<std::int32_t>(9);
  const Bytes expected = flat.take().bytes;
  EXPECT_EQ(p.size(), expected.size());
  EXPECT_EQ(p.bytes.size(), expected.size() - values.size() * sizeof(double));
  EXPECT_EQ(p.flatten(), expected);

  Reader r(p);
  EXPECT_EQ(r.remaining(), expected.size());
  EXPECT_EQ(r.get<std::int32_t>(), 7);
  std::vector<double> out = r.take_owned<double>();
  EXPECT_EQ(out.data(), data);
  EXPECT_EQ(out, values);
  EXPECT_EQ(r.get<std::int32_t>(), 9);
  EXPECT_TRUE(r.done());
}

TEST(Serialize, OwnedVectorNeedsAMatchingTake) {
  Writer w;
  w.put_owned(std::vector<double>{1, 2});
  Payload p = w.take();
  {
    // Read-only readers cannot adopt buffers...
    const Payload& view = p;
    Reader r(view);
    EXPECT_THROW(r.take_owned<double>(), CheckFailure);
  }
  {
    // ...plain reads stop in front of one...
    Reader r(p);
    EXPECT_THROW(r.get_vec<double>(), CheckFailure);
  }
  {
    // ...and the element type must match.
    Reader r(p);
    EXPECT_THROW(r.take_owned<float>(), CheckFailure);
  }
  Reader r(p);
  EXPECT_EQ(r.take_owned<double>(), (std::vector<double>{1, 2}));
}

// A nested payload keeps its buffers at their place in the logical stream:
// moved in, moved out, and the same bytes as if they had been serialised.
TEST(Serialize, NestedPayloadCarriesOwnedBuffers) {
  std::vector<std::int32_t> v{4, 5, 6};
  const std::int32_t* data = v.data();
  Writer inner;
  inner.put<std::uint8_t>(1).put_owned(std::move(v)).put<std::uint8_t>(2);
  Payload in = inner.take();
  const Bytes in_flat = in.flatten();
  Writer outer;
  outer.put<std::uint16_t>(3).put_bytes(std::move(in)).put<std::uint16_t>(4);
  Payload p = outer.take();
  Writer legacy;
  legacy.put<std::uint16_t>(3).put_bytes(in_flat).put<std::uint16_t>(4);
  EXPECT_EQ(p.flatten(), legacy.take().bytes);

  Reader r(p);
  EXPECT_EQ(r.get<std::uint16_t>(), 3);
  Payload got = r.get_bytes();
  EXPECT_EQ(r.get<std::uint16_t>(), 4);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(got.flatten(), in_flat);
  Reader r2(got);
  EXPECT_EQ(r2.get<std::uint8_t>(), 1);
  std::vector<std::int32_t> out = r2.take_owned<std::int32_t>();
  EXPECT_EQ(out.data(), data);
  EXPECT_EQ(r2.get<std::uint8_t>(), 2);
  EXPECT_TRUE(r2.done());
}

// Copying a payload (a network duplicate, a retransmit copy) gives the
// copy buffers of its own.
TEST(Serialize, CopiedPayloadOwnsIndependentBuffers) {
  Writer w;
  w.put_owned(std::vector<double>{1, 2, 3});
  Payload a = w.take();
  Payload b = a;
  EXPECT_EQ(a.flatten(), b.flatten());
  Reader ra(a);
  Reader rb(b);
  std::vector<double> va = ra.take_owned<double>();
  std::vector<double> vb = rb.take_owned<double>();
  EXPECT_NE(va.data(), vb.data());
  va[0] = 42;
  EXPECT_EQ(vb, (std::vector<double>{1, 2, 3}));
}

TEST(Serialize, TruncatedPayloadThrows) {
  Writer w;
  w.put<std::int64_t>(1);
  Payload b = w.take();
  b.bytes.resize(4);  // cut in half
  Reader r(b);
  EXPECT_THROW(r.get<std::int64_t>(), CheckFailure);
}

TEST(Serialize, TruncatedVectorThrows) {
  Writer w;
  w.put_vec(std::vector<double>{1, 2, 3});
  Payload b = w.take();
  b.bytes.resize(b.bytes.size() - 8);
  Reader r(b);
  EXPECT_THROW(r.get_vec<double>(), CheckFailure);
}

TEST(Serialize, StatusReportRoundtrip) {
  lb::StatusReport s;
  s.round = 12;
  s.units_done = 34.5;
  s.elapsed_s = 1.75;
  s.remaining = 99;
  s.lb_blocked_s = 0.002;
  s.move_time_s = 0.125;
  s.moved_units = 8;
  auto b = encode(s);
  auto out = decode<lb::StatusReport>(b);
  EXPECT_EQ(out.round, 12);
  EXPECT_DOUBLE_EQ(out.units_done, 34.5);
  EXPECT_DOUBLE_EQ(out.elapsed_s, 1.75);
  EXPECT_EQ(out.remaining, 99);
  EXPECT_DOUBLE_EQ(out.lb_blocked_s, 0.002);
  EXPECT_DOUBLE_EQ(out.move_time_s, 0.125);
  EXPECT_EQ(out.moved_units, 8);
}

TEST(Serialize, InstructionsRoundtrip) {
  lb::Instructions ins;
  ins.round = 3;
  ins.phase_done = 1;
  ins.units_until_next = 17.25;
  ins.orders = {{2, 5, 1}, {0, 3, 0}};
  auto b = encode(ins);
  auto out = decode<lb::Instructions>(b);
  EXPECT_EQ(out.round, 3);
  EXPECT_EQ(out.phase_done, 1);
  EXPECT_DOUBLE_EQ(out.units_until_next, 17.25);
  ASSERT_EQ(out.orders.size(), 2u);
  EXPECT_EQ(out.orders[0].peer_rank, 2);
  EXPECT_EQ(out.orders[0].count, 5);
  EXPECT_EQ(out.orders[0].is_send, 1);
  EXPECT_EQ(out.orders[1].peer_rank, 0);
  EXPECT_EQ(out.orders[1].is_send, 0);
}

// ---- randomized round-trip properties over every protocol message ----

double random_double(Rng& rng) {
  // Mix ordinary magnitudes with exact-bit-pattern extremes (the wire
  // format must preserve doubles bit-for-bit, not just approximately).
  switch (rng.below(4)) {
    case 0:
      return rng.uniform(-1e6, 1e6);
    case 1:
      return rng.uniform(-1e-300, 1e-300);  // subnormal territory
    case 2:
      return std::numeric_limits<double>::max() * rng.uniform(-1.0, 1.0);
    default:
      return static_cast<double>(rng.next_u64()) * 1e-3;
  }
}

std::int32_t random_i32(Rng& rng) {
  switch (rng.below(3)) {
    case 0:
      return static_cast<std::int32_t>(rng.below(1000));
    case 1:
      return std::numeric_limits<std::int32_t>::max() -
             static_cast<std::int32_t>(rng.below(2));
    default:
      return std::numeric_limits<std::int32_t>::min() +
             static_cast<std::int32_t>(rng.below(2));
  }
}

TEST(Serialize, StatusReportRandomizedRoundtrip) {
  Rng rng(101);
  for (int iter = 0; iter < 500; ++iter) {
    lb::StatusReport s;
    s.round = random_i32(rng);
    s.units_done = random_double(rng);
    s.elapsed_s = random_double(rng);
    s.remaining = random_i32(rng);
    s.lb_blocked_s = random_double(rng);
    s.move_time_s = random_double(rng);
    s.moved_units = random_i32(rng);
    s.done = static_cast<std::uint8_t>(rng.below(256));
    const auto out = decode<lb::StatusReport>(encode(s));
    EXPECT_EQ(out.round, s.round);
    EXPECT_EQ(out.units_done, s.units_done);
    EXPECT_EQ(out.elapsed_s, s.elapsed_s);
    EXPECT_EQ(out.remaining, s.remaining);
    EXPECT_EQ(out.lb_blocked_s, s.lb_blocked_s);
    EXPECT_EQ(out.move_time_s, s.move_time_s);
    EXPECT_EQ(out.moved_units, s.moved_units);
    EXPECT_EQ(out.done, s.done);
  }
}

TEST(Serialize, MoveOrderRandomizedRoundtrip) {
  Rng rng(102);
  for (int iter = 0; iter < 500; ++iter) {
    lb::MoveOrder m;
    m.peer_rank = random_i32(rng);
    m.count = random_i32(rng);
    m.is_send = static_cast<std::uint8_t>(rng.below(256));
    Writer w;
    m.encode(w);
    const Payload b = w.take();
    Reader r(b);
    const auto out = lb::MoveOrder::decode(r);
    EXPECT_TRUE(r.done());
    EXPECT_EQ(out.peer_rank, m.peer_rank);
    EXPECT_EQ(out.count, m.count);
    EXPECT_EQ(out.is_send, m.is_send);
  }
}

TEST(Serialize, InstructionsRandomizedRoundtrip) {
  Rng rng(103);
  for (int iter = 0; iter < 300; ++iter) {
    lb::Instructions ins;
    ins.round = random_i32(rng);
    ins.phase_done = static_cast<std::uint8_t>(rng.below(2));
    ins.units_until_next = random_double(rng);
    const int norders = static_cast<int>(rng.below(17));  // includes empty
    for (int i = 0; i < norders; ++i) {
      ins.orders.push_back({random_i32(rng), random_i32(rng),
                            static_cast<std::uint8_t>(rng.below(2))});
    }
    const auto out = decode<lb::Instructions>(encode(ins));
    EXPECT_EQ(out.round, ins.round);
    EXPECT_EQ(out.phase_done, ins.phase_done);
    EXPECT_EQ(out.units_until_next, ins.units_until_next);
    ASSERT_EQ(out.orders.size(), ins.orders.size());
    for (std::size_t i = 0; i < ins.orders.size(); ++i) {
      EXPECT_EQ(out.orders[i].peer_rank, ins.orders[i].peer_rank);
      EXPECT_EQ(out.orders[i].count, ins.orders[i].count);
      EXPECT_EQ(out.orders[i].is_send, ins.orders[i].is_send);
    }
  }
}

}  // namespace
}  // namespace nowlb::msg
