#include <gtest/gtest.h>

#include <cstring>
#include <tuple>

#include "data/activity.hpp"
#include "data/dist_array.hpp"
#include "data/index_set.hpp"
#include "data/slice.hpp"
#include "sim/world.hpp"

namespace nowlb::data {
namespace {

// ------------------------------------------------------------- BlockMap

TEST(BlockMap, EvenDistributionSplitsRemainder) {
  auto m = BlockMap::even(10, 3);
  EXPECT_EQ(m.counts(), (std::vector<int>{4, 3, 3}));
  EXPECT_EQ(m.total(), 10);
  EXPECT_EQ(m.range(0), (SliceRange{0, 4}));
  EXPECT_EQ(m.range(2), (SliceRange{7, 10}));
}

TEST(BlockMap, OwnerLookup) {
  auto m = BlockMap::from_counts({2, 0, 3});
  EXPECT_EQ(m.owner(0), 0);
  EXPECT_EQ(m.owner(1), 0);
  EXPECT_EQ(m.owner(2), 2);  // rank 1 owns nothing
  EXPECT_EQ(m.owner(4), 2);
  EXPECT_THROW(m.owner(5), CheckFailure);
  EXPECT_THROW(m.owner(-1), CheckFailure);
}

TEST(BlockMap, EmptyRanksAllowed) {
  auto m = BlockMap::from_counts({0, 5, 0});
  EXPECT_EQ(m.count(0), 0);
  EXPECT_EQ(m.count(1), 5);
  EXPECT_EQ(m.range(2).count(), 0);
}

class BlockMapEvenProperty
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(BlockMapEvenProperty, PartitionInvariants) {
  const auto [total, slaves] = GetParam();
  auto m = BlockMap::even(total, slaves);
  // Counts sum to total and differ by at most one.
  int sum = 0, lo = total, hi = 0;
  for (int c : m.counts()) {
    sum += c;
    lo = std::min(lo, c);
    hi = std::max(hi, c);
  }
  EXPECT_EQ(sum, total);
  EXPECT_LE(hi - lo, 1);
  // Every slice has exactly one owner and lies in that owner's range.
  for (SliceId s = 0; s < total; ++s) {
    const int r = m.owner(s);
    EXPECT_TRUE(m.range(r).contains(s));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BlockMapEvenProperty,
    ::testing::Values(std::pair{0, 1}, std::pair{1, 1}, std::pair{1, 7},
                      std::pair{7, 7}, std::pair{500, 7}, std::pair{2000, 6},
                      std::pair{13, 5}, std::pair{100, 3}));

// ------------------------------------------------------------- IndexSet

TEST(IndexSet, ConstructFromRange) {
  IndexSet s(SliceRange{3, 7});
  EXPECT_EQ(s.size(), 4);
  EXPECT_TRUE(s.contains(3));
  EXPECT_TRUE(s.contains(6));
  EXPECT_FALSE(s.contains(7));
  EXPECT_TRUE(s.is_contiguous());
}

TEST(IndexSet, InsertEraseMaintainOrder) {
  IndexSet s;
  s.insert(5);
  s.insert(1);
  s.insert(3);
  EXPECT_EQ(s.ids(), (std::vector<SliceId>{1, 3, 5}));
  s.erase(3);
  EXPECT_EQ(s.ids(), (std::vector<SliceId>{1, 5}));
  EXPECT_FALSE(s.is_contiguous());
}

TEST(IndexSet, DuplicateInsertThrows) {
  IndexSet s(SliceRange{0, 3});
  EXPECT_THROW(s.insert(1), CheckFailure);
}

TEST(IndexSet, EraseMissingThrows) {
  IndexSet s(SliceRange{0, 3});
  EXPECT_THROW(s.erase(9), CheckFailure);
}

TEST(IndexSet, TakeHighestAndLowest) {
  IndexSet s(SliceRange{0, 10});
  auto hi = s.take_highest(3);
  EXPECT_EQ(hi, (std::vector<SliceId>{7, 8, 9}));
  auto lo = s.take_lowest(2);
  EXPECT_EQ(lo, (std::vector<SliceId>{0, 1}));
  EXPECT_EQ(s.size(), 5);
  EXPECT_EQ(s.min(), 2);
  EXPECT_EQ(s.max(), 6);
  EXPECT_TRUE(s.is_contiguous());
}

TEST(IndexSet, TakeTooManyThrows) {
  IndexSet s(SliceRange{0, 2});
  EXPECT_THROW(s.take_highest(3), CheckFailure);
}

// ------------------------------------------------------------ DistArray

TEST(DistArray, AddRemoveAccess) {
  DistArray<double> a(4, 10);
  a.add(7, {1, 2, 3, 4});
  EXPECT_TRUE(a.owns(7));
  EXPECT_FALSE(a.owns(8));
  a.slice(7)[2] = 99;
  auto [contents, marker] = a.remove(7);
  EXPECT_EQ(contents, (std::vector<double>{1, 2, 99, 4}));
  EXPECT_EQ(marker, 0);
  EXPECT_FALSE(a.owns(7));
}

TEST(DistArray, WrongLengthThrows) {
  DistArray<double> a(4, 10);
  EXPECT_THROW(a.add(0, {1, 2}), CheckFailure);
}

TEST(DistArray, DuplicateAddThrows) {
  DistArray<double> a(2, 10);
  a.add(0, {1, 2});
  EXPECT_THROW(a.add(0, {3, 4}), CheckFailure);
}

TEST(DistArray, AccessMissingThrows) {
  DistArray<double> a(2, 10);
  EXPECT_THROW(a.slice(5), CheckFailure);
  EXPECT_THROW(a.remove(5), CheckFailure);
  EXPECT_THROW(a.marker(5), CheckFailure);
  EXPECT_THROW(a.set_marker(5, 1), CheckFailure);
  // Ids outside the extent are never owned and cannot be added.
  EXPECT_FALSE(a.owns(-1));
  EXPECT_FALSE(a.owns(10));
  EXPECT_THROW(a.slice(10), CheckFailure);
  EXPECT_THROW(a.add(10, {1, 2}), CheckFailure);
  EXPECT_THROW(a.add(-1, {1, 2}), CheckFailure);
}

TEST(DistArray, MarkersSurvivePackUnpack) {
  DistArray<double> src(3, 4), dst(3, 4);
  src.add(1, {1, 1, 1}, /*marker=*/5);
  src.add(2, {2, 2, 2}, /*marker=*/6);
  src.add(3, {3, 3, 3});
  auto payload = src.pack_and_remove({1, 3});
  EXPECT_FALSE(src.owns(1));
  EXPECT_FALSE(src.owns(3));
  EXPECT_TRUE(src.owns(2));
  auto ids = dst.unpack_and_add(payload);
  EXPECT_EQ(ids, (std::vector<SliceId>{1, 3}));
  EXPECT_EQ(dst.marker(1), 5);
  EXPECT_EQ(dst.marker(3), 0);
  EXPECT_EQ(dst.slice(3), (std::vector<double>{3, 3, 3}));
}

TEST(DistArray, EmptyPackRoundtrip) {
  DistArray<float> src(2, 0), dst(2, 0);
  auto payload = src.pack_and_remove({});
  EXPECT_TRUE(dst.unpack_and_add(payload).empty());
}

TEST(DistArray, OwnedIdsSorted) {
  DistArray<int> a(1, 6);
  a.add(5, {0});
  a.add(1, {0});
  a.add(3, {0});
  EXPECT_EQ(a.owned_ids(), (std::vector<SliceId>{1, 3, 5}));
}

TEST(DistArray, IdOrderSurvivesEdgeAddsAndRemoves) {
  // The shape work movement gives a block: columns leave and arrive at
  // both edges, and iteration must stay in id order throughout.
  DistArray<int> a(1, 20);
  const std::vector<SliceId>& view = a.owned_ids();
  for (SliceId id = 8; id < 12; ++id) a.add(id, {id});
  a.add(7, {7});    // left edge
  a.add(12, {12});  // right edge
  EXPECT_EQ(view, (std::vector<SliceId>{7, 8, 9, 10, 11, 12}));
  a.remove(7);
  a.remove(12);
  a.remove(11);
  EXPECT_EQ(view, (std::vector<SliceId>{8, 9, 10}));
  a.add(6, {6});
  a.add(7, {7});
  a.add(11, {11});
  EXPECT_EQ(view, (std::vector<SliceId>{6, 7, 8, 9, 10, 11}));
  EXPECT_EQ(a.owned_count(), 6);
  for (SliceId id : view) EXPECT_EQ(a.slice(id)[0], id);
  // The view is the live list, not a snapshot.
  a.remove(9);
  EXPECT_EQ(view, (std::vector<SliceId>{6, 7, 8, 10, 11}));
  EXPECT_EQ(&view, &a.owned_ids());
}

TEST(DistArray, SliceReferencesStayValidAcrossAdd) {
  DistArray<double> a(3, 100);
  a.add(50, {1, 2, 3});
  std::vector<double>& ref = a.slice(50);
  const double* data = ref.data();
  for (SliceId id = 0; id < 100; ++id) {
    if (id != 50) a.add(id, {0, 0, 0});
  }
  a.remove(49);
  a.remove(51);
  EXPECT_EQ(&ref, &a.slice(50));
  EXPECT_EQ(data, a.slice(50).data());
  ref[1] = 7;
  EXPECT_EQ(a.slice(50), (std::vector<double>{1, 7, 3}));
}

// The movement payload layout is a wire format shared by every app: the
// flat table must encode exactly what the map-backed array did.
msg::Bytes legacy_payload(
    const std::vector<std::tuple<SliceId, int, std::vector<double>>>& s) {
  msg::Writer w;
  w.put<std::uint32_t>(static_cast<std::uint32_t>(s.size()));
  for (const auto& [id, marker, data] : s) {
    w.put<std::int32_t>(id);
    w.put<std::int32_t>(marker);
    w.put_vec(data);
  }
  return w.take().bytes;
}

TEST(DistArray, PackBytesMatchLegacyEncoding) {
  DistArray<double> a(2, 8);
  a.add(3, {1.5, 2.5}, 4);
  a.add(4, {3.5, 4.5}, 2);
  a.add(6, {5.5, 6.5});
  const msg::Bytes expected =
      legacy_payload({{6, 0, {5.5, 6.5}}, {3, 4, {1.5, 2.5}}});
  // Slices travel as owned buffers; the logical stream is what counts.
  EXPECT_EQ(a.pack_and_remove({6, 3}).flatten(), expected);
  EXPECT_EQ(a.owned_ids(), (std::vector<SliceId>{4}));

  // Writer& overload: the same bytes behind a u64 length prefix, i.e.
  // what Writer::put_bytes of the standalone payload produced.
  DistArray<double> b(2, 8);
  b.add(3, {1.5, 2.5}, 4);
  b.add(6, {5.5, 6.5});
  msg::Writer w;
  w.put<std::uint8_t>(9);
  b.pack_and_remove({6, 3}, w);
  w.put<std::uint8_t>(8);
  msg::Writer legacy;
  legacy.put<std::uint8_t>(9).put_bytes(expected).put<std::uint8_t>(8);
  EXPECT_EQ(w.take().flatten(), legacy.take().flatten());
  EXPECT_EQ(b.owned_count(), 0);
}

TEST(DistArray, WriterReaderOverloadsRoundTrip) {
  DistArray<double> src(3, 10), dst(3, 10);
  for (SliceId id = 2; id < 7; ++id) {
    src.add(id, {id * 1.0, id * 2.0, id * 3.0}, 10 - id);
  }
  dst.add(7, {0, 0, 0}, 1);
  msg::Writer w;
  w.put<std::int32_t>(-5);
  src.pack_and_remove({5, 6}, w);
  src.pack_and_remove({}, w);
  w.put<std::int32_t>(42);
  msg::Payload payload = w.take();

  msg::Reader r(payload);
  EXPECT_EQ(r.get<std::int32_t>(), -5);
  EXPECT_EQ(dst.unpack_and_add(r), (std::vector<SliceId>{5, 6}));
  EXPECT_TRUE(dst.unpack_and_add(r).empty());
  EXPECT_EQ(r.get<std::int32_t>(), 42);
  EXPECT_TRUE(r.done());

  EXPECT_EQ(src.owned_ids(), (std::vector<SliceId>{2, 3, 4}));
  EXPECT_EQ(dst.owned_ids(), (std::vector<SliceId>{5, 6, 7}));
  EXPECT_EQ(dst.marker(5), 5);
  EXPECT_EQ(dst.marker(6), 4);
  EXPECT_EQ(dst.slice(6), (std::vector<double>{6, 12, 18}));
}

TEST(DistArray, PackOfMissingSliceRemovesNothing) {
  DistArray<double> a(1, 4);
  a.add(1, {1});
  a.add(2, {2});
  msg::Writer w;
  EXPECT_THROW(a.pack_and_remove({1, 3}, w), CheckFailure);
  EXPECT_EQ(a.owned_ids(), (std::vector<SliceId>{1, 2}));
}

TEST(DistArray, UnpackRejectsWrongBlockLength) {
  DistArray<double> src(1, 4), dst(1, 4);
  src.add(1, {1});
  msg::Writer w;
  src.pack_and_remove({1}, w);
  w.put<std::uint8_t>(0);
  msg::Payload payload = w.take();
  // The u64 length prefix claims one byte more than the block holds.
  std::uint64_t size = 0;
  std::memcpy(&size, payload.bytes.data(), sizeof size);
  ++size;
  std::memcpy(payload.bytes.data(), &size, sizeof size);
  msg::Reader r(payload);
  EXPECT_THROW(dst.unpack_and_add(r), CheckFailure);
}

// ------------------------------------------------------------ SliceMove
// Moved slices ride in the message as owned buffers: the simulator must
// see the same logical sizes as before, and the receiver must end up with
// the sender's own storage.

sim::WorldConfig move_world() {
  sim::WorldConfig cfg;
  cfg.host.context_switch = 0;
  cfg.net.latency = sim::kMillisecond;
  return cfg;
}

TEST(SliceMove, WireSizeAndPayloadBytesAreLogical) {
  DistArray<double> a(3, 8);
  for (SliceId id = 0; id < 4; ++id) a.add(id, {id * 1.0, 2.0, 3.0}, id);
  const msg::Bytes legacy =
      legacy_payload({{1, 1, {1, 2, 3}}, {2, 2, {2, 2, 3}}});
  msg::Payload p = a.pack_and_remove({1, 2});
  EXPECT_EQ(p.size(), legacy.size());
  sim::Message m;
  m.payload = std::move(p);
  EXPECT_EQ(m.wire_size(40), legacy.size() + 40);

  sim::World w(move_world());
  auto& h0 = w.add_host();
  auto& h1 = w.add_host();
  const sim::Pid rx = w.spawn(h1, "rx", [&](sim::Context& ctx) -> sim::Task<> {
    co_await ctx.recv(7);
  });
  w.spawn(h0, "tx", [&](sim::Context& ctx) -> sim::Task<> {
    const std::vector<SliceId> ids{0, 3};
    co_await ctx.send(rx, 7, a.pack_and_remove(ids));
  });
  w.run();
  const msg::Bytes sent =
      legacy_payload({{0, 0, {0, 2, 3}}, {3, 3, {3, 2, 3}}});
  EXPECT_EQ(w.network().payload_bytes_sent(), sent.size());
}

TEST(SliceMove, ReceivedSliceIsTheSendersBuffer) {
  DistArray<double> src(2, 4), dst(2, 4);
  src.add(1, {1, 2}, 5);
  src.add(2, {3, 4}, 6);
  const double* d1 = src.slice(1).data();
  const double* d2 = src.slice(2).data();
  sim::World w(move_world());
  auto& h0 = w.add_host();
  auto& h1 = w.add_host();
  const sim::Pid rx = w.spawn(h1, "rx", [&](sim::Context& ctx) -> sim::Task<> {
    sim::Message m = co_await ctx.recv(7);
    EXPECT_EQ(dst.unpack_and_add(m.payload), (std::vector<SliceId>{1, 2}));
  });
  w.spawn(h0, "tx", [&](sim::Context& ctx) -> sim::Task<> {
    const std::vector<SliceId> ids{1, 2};
    co_await ctx.send(rx, 7, src.pack_and_remove(ids));
  });
  w.run();
  EXPECT_EQ(dst.slice(1).data(), d1);
  EXPECT_EQ(dst.slice(2).data(), d2);
  EXPECT_EQ(dst.slice(2), (std::vector<double>{3, 4}));
  EXPECT_EQ(dst.marker(2), 6);
}

TEST(SliceMove, NetworkDuplicateOwnsAnIndependentCopy) {
  sim::WorldConfig cfg = move_world();
  cfg.net.dup_prob = 1.0;
  DistArray<double> src(2, 4), first(2, 4), second(2, 4);
  src.add(3, {7, 8});
  const double* data = src.slice(3).data();
  sim::World w(cfg);
  auto& h0 = w.add_host();
  auto& h1 = w.add_host();
  const sim::Pid rx = w.spawn(h1, "rx", [&](sim::Context& ctx) -> sim::Task<> {
    sim::Message m1 = co_await ctx.recv(7);
    sim::Message m2 = co_await ctx.recv(7);
    first.unpack_and_add(m1.payload);
    second.unpack_and_add(m2.payload);
  });
  w.spawn(h0, "tx", [&](sim::Context& ctx) -> sim::Task<> {
    const std::vector<SliceId> ids{3};
    co_await ctx.send(rx, 7, src.pack_and_remove(ids));
  });
  w.run();
  ASSERT_EQ(w.network().messages_duplicated(), 1u);
  // The original arrives first and still holds the sender's storage.
  EXPECT_EQ(first.slice(3).data(), data);
  EXPECT_NE(second.slice(3).data(), data);
  first.slice(3)[0] = -1;
  EXPECT_EQ(second.slice(3), (std::vector<double>{7, 8}));
}

// --------------------------------------------------------- ActivityMask

TEST(ActivityMask, DeactivateBelow) {
  ActivityMask m(5);
  EXPECT_EQ(m.active_count(), 5);
  m.deactivate_below(3);
  EXPECT_FALSE(m.active(0));
  EXPECT_FALSE(m.active(2));
  EXPECT_TRUE(m.active(3));
  EXPECT_EQ(m.active_count(), 2);
}

TEST(ActivityMask, ActiveInOwnedSet) {
  ActivityMask m(10);
  m.deactivate_below(4);
  IndexSet owned(SliceRange{2, 8});
  EXPECT_EQ(m.active_in(owned), 4);  // 4,5,6,7
}

TEST(ActivityMask, HighestLowestActiveSkipInactive) {
  ActivityMask m(10);
  m.deactivate(5);
  m.deactivate(8);
  IndexSet owned(SliceRange{4, 10});
  EXPECT_EQ(m.highest_active(owned, 2), (std::vector<SliceId>{9, 7}));
  EXPECT_EQ(m.lowest_active(owned, 2), (std::vector<SliceId>{4, 6}));
}

TEST(ActivityMask, RequestingTooManyActiveThrows) {
  ActivityMask m(4);
  m.deactivate_below(3);
  IndexSet owned(SliceRange{0, 4});
  EXPECT_THROW(m.highest_active(owned, 2), CheckFailure);
}

}  // namespace
}  // namespace nowlb::data
