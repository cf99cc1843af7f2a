// Lossy-network regressions: seeds the fuzzer once failed on, replayed
// with the fault plan they failed under (5% drop, 2% duplication, 500 us
// reordering jitter). Each must now pass every checker and the oracle.
//
//   LU 7039, 9811, 219746: a move delayed by retransmission delivered
//     column n-1 during finalize(), after the last step, and its missing
//     steps were never applied (factors differed from the oracle).
//   SOR 50122, 118074, 124391, 168237, 207155: a rank donated to a peer
//     while a transfer from that peer, ordered a round earlier, was still
//     in flight; both blocks split (non-contiguous blocks, a hang, or the
//     right-ghost NOWLB_CHECK).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <type_traits>

#include "check/scenario.hpp"

namespace nowlb::check {
namespace {

// gtest names each case after the raw bytes of its parameter, so the struct
// may have no padding: `reserved` takes the four bytes after `app`, which
// otherwise held whatever the copy left there and changed the case names
// from one build to the next.
struct Regression {
  App app;
  std::uint32_t reserved = 0;
  std::uint64_t seed;
};
static_assert(std::has_unique_object_representations_v<Regression>);

std::string case_name(const ::testing::TestParamInfo<Regression>& info) {
  return std::string(app_name(info.param.app)) + "_" +
         std::to_string(info.param.seed);
}

class LossySeed : public ::testing::TestWithParam<Regression> {};

TEST_P(LossySeed, PassesAllCheckers) {
  Scenario sc = generate_scenario(GetParam().seed, GetParam().app);
  FaultPlan plan;
  plan.drop_rate = 0.05;
  plan.dup_rate = 0.02;
  plan.reorder_delay = 500 * sim::kMicrosecond;
  apply_fault_plan(sc, plan);
  const FuzzResult res = run_scenario(sc);
  std::string why;
  for (const Failure& f : res.failures) {
    why += "[" + f.checker + "] " + f.message + "\n";
  }
  EXPECT_TRUE(res.ok) << sc.describe() << "\n" << why;
}

INSTANTIATE_TEST_SUITE_P(
    FuzzRegressions, LossySeed,
    ::testing::Values(Regression{.app = App::kLu, .seed = 7039},
                      Regression{.app = App::kLu, .seed = 9811},
                      Regression{.app = App::kLu, .seed = 219746},
                      Regression{.app = App::kSor, .seed = 50122},
                      Regression{.app = App::kSor, .seed = 118074},
                      Regression{.app = App::kSor, .seed = 124391},
                      Regression{.app = App::kSor, .seed = 168237},
                      Regression{.app = App::kSor, .seed = 207155}),
    case_name);

}  // namespace
}  // namespace nowlb::check
