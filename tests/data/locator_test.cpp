// §4.6 broadcast-and-discard locator: accessing distributed elements whose
// owner is unknown locally because the distribution changes at run time.
#include "data/locator.hpp"

#include <gtest/gtest.h>

#include "sim/world.hpp"

namespace nowlb::data {
namespace {

using sim::Context;
using sim::Pid;
using sim::Task;
using sim::World;

TEST(Locator, FetchReplicatesFromUnknownOwner) {
  World w;
  constexpr int kN = 3;
  std::vector<Pid> group{0, 1, 2};
  std::vector<double> got(kN, 0.0);

  for (int rank = 0; rank < kN; ++rank) {
    auto& h = w.add_host();
    w.spawn(h, "s" + std::to_string(rank),
            [&, rank](Context& ctx) -> Task<> {
              DistArray<double> arr(4, kN);
              // Rank r owns slice r; nobody knows the others' ownership.
              arr.add(rank, {10.0 * rank, 1, 2, 3});
              got[rank] = co_await locate_fetch(ctx, group, 77, arr,
                                                /*slice=*/2, /*offset=*/0);
            });
  }
  w.run();
  EXPECT_EQ(got, (std::vector<double>{20.0, 20.0, 20.0}));
}

TEST(Locator, AssignCrossesUnknownOwners) {
  World w;
  constexpr int kN = 3;
  std::vector<Pid> group{0, 1, 2};
  std::vector<double> final_value(kN, -1.0);

  for (int rank = 0; rank < kN; ++rank) {
    auto& h = w.add_host();
    w.spawn(h, "s" + std::to_string(rank),
            [&, rank](Context& ctx) -> Task<> {
              DistArray<double> arr(2, kN);
              arr.add(rank, {100.0 + rank, 0.0});
              // arr[slice 2][1] = arr[slice 0][0]: source owned by rank 0,
              // destination by rank 2; neither owner known to the others.
              co_await locate_assign(ctx, group, 78, arr, /*src=*/0,
                                     /*src_off=*/0, /*dst=*/2, /*dst_off=*/1);
              if (arr.owns(2)) final_value[rank] = arr.slice(2)[1];
            });
  }
  w.run();
  EXPECT_DOUBLE_EQ(final_value[2], 100.0);
  EXPECT_DOUBLE_EQ(final_value[0], -1.0);  // non-owners unchanged
}

TEST(Locator, OwnerAlsoReceivesItsOwnValue) {
  World w;
  std::vector<Pid> group{0, 1};
  double owner_got = 0;
  auto& h0 = w.add_host();
  auto& h1 = w.add_host();
  w.spawn(h0, "owner", [&](Context& ctx) -> Task<> {
    DistArray<double> arr(1, 1);
    arr.add(0, {42.0});
    owner_got = co_await locate_fetch(ctx, group, 79, arr, 0, 0);
  });
  w.spawn(h1, "other", [&](Context& ctx) -> Task<> {
    DistArray<double> arr(1, 1);
    co_await locate_fetch(ctx, group, 79, arr, 0, 0);
  });
  w.run();
  EXPECT_DOUBLE_EQ(owner_got, 42.0);
}

}  // namespace
}  // namespace nowlb::data
