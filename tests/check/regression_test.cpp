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

#include "check/scenario.hpp"

namespace nowlb::check {
namespace {

struct Regression {
  App app;
  std::uint64_t seed;
};

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
    ::testing::Values(Regression{App::kLu, 7039}, Regression{App::kLu, 9811},
                      Regression{App::kLu, 219746},
                      Regression{App::kSor, 50122},
                      Regression{App::kSor, 118074},
                      Regression{App::kSor, 124391},
                      Regression{App::kSor, 168237},
                      Regression{App::kSor, 207155}),
    case_name);

}  // namespace
}  // namespace nowlb::check
