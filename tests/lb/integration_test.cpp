// End-to-end master/slave protocol tests over a synthetic workload:
// abstract work units with a fixed CPU cost, a hook after every unit.
#include <gtest/gtest.h>

#include <numeric>

#include "lb/master.hpp"
#include "lb/slave.hpp"
#include "msg/serialize.hpp"
#include "sim/world.hpp"

namespace nowlb::lb {
namespace {

using sim::Context;
using sim::Pid;
using sim::Task;
using sim::Time;
using sim::World;
using sim::kMillisecond;
using sim::kSecond;

struct RunResult {
  double makespan_s = 0;
  std::vector<int> units_computed;    // per rank
  std::vector<int> received_from;     // flattened peer matrix [rank*n+peer]
  MasterStats stats;
};

struct Scenario {
  std::vector<int> initial;  // per-rank unit counts
  // CPU per work unit: 5x the scheduling quantum, honouring the paper's
  // grain-size rule (blocks >= 1.5 quanta) so rate windows measure cleanly.
  Time unit_cost = 50 * kMillisecond;
  int phases = 1;
  bool use_lb = true;
  LbConfig lb;
  std::vector<int> loaded_ranks;       // ranks with an infinite competing task
};

LbConfig fast_lb() {
  LbConfig cfg;
  cfg.min_period = 250 * kMillisecond;
  cfg.quantum = 10 * kMillisecond;
  cfg.initial_move_cost = 2 * kMillisecond;
  cfg.initial_interaction_cost = kMillisecond;
  return cfg;
}

sim::WorldConfig fast_world() {
  sim::WorldConfig wc;
  wc.host.quantum = 10 * kMillisecond;
  wc.host.context_switch = 10 * sim::kMicrosecond;
  return wc;
}

RunResult run_scenario(const Scenario& sc) {
  const int n = static_cast<int>(sc.initial.size());
  World w(fast_world());
  RunResult result;
  result.units_computed.assign(n, 0);
  result.received_from.assign(n * n, 0);
  auto stats = std::make_shared<MasterStats>();

  std::vector<Pid> slave_pids(n);
  std::iota(slave_pids.begin(), slave_pids.end(), 0);
  // Pids follow spawn order: slaves 0..n-1, then load generators, then the
  // master.
  const Pid master_pid = n + static_cast<Pid>(sc.loaded_ranks.size());

  // Work state per rank lives in the test scope so the closures in WorkOps
  // can reference it beyond the spawn call.
  std::vector<int> units = sc.initial;

  for (int rank = 0; rank < n; ++rank) {
    auto& host = w.add_host();
    w.spawn(host, "slave" + std::to_string(rank),
            [&, rank](Context& ctx) -> Task<> {
              SlaveAgent::WorkOps ops;
              ops.remaining = [&, rank] { return units[rank]; };
              ops.pack = [&, rank](int count,
                                   int) -> Task<std::pair<sim::Payload, int>> {
                const int actual = std::min(count, units[rank]);
                units[rank] -= actual;
                msg::Writer wr;
                wr.put(actual);
                co_return std::make_pair(wr.take(), actual);
              };
              ops.unpack = [&, rank](sim::Payload& b,
                                     int peer) -> Task<int> {
                msg::Reader r(b);
                const int c = r.get<int>();
                units[rank] += c;
                result.received_from[rank * n + peer] += c;
                co_return c;
              };
              if (!sc.use_lb) {
                while (units[rank] * sc.phases > 0) {
                  for (int phase = 0; phase < sc.phases; ++phase) {
                    for (int u = sc.initial[rank]; u > 0; --u) {
                      co_await ctx.compute(sc.unit_cost);
                      ++result.units_computed[rank];
                    }
                  }
                  break;
                }
                co_return;
              }
              SlaveAgent agent(
                  ctx, master_pid, rank, slave_pids, sc.lb, ops,
                  std::max(1.0, 0.25 * sc.initial[rank]));
              for (int phase = 0; phase < sc.phases; ++phase) {
                agent.begin_phase();
                for (;;) {
                  while (units[rank] > 0) {
                    co_await ctx.compute(sc.unit_cost);
                    --units[rank];
                    ++result.units_computed[rank];
                    agent.add_units(1);
                    co_await agent.hook();
                  }
                  co_await agent.drain();
                  if (agent.phase_done()) break;
                }
                if (phase + 1 < sc.phases) units[rank] = sc.initial[rank];
              }
            });
  }
  // Load generators are spawned after all slaves so that slave pids stay
  // 0..n-1 (pids are assigned in spawn order).
  for (int lr : sc.loaded_ranks) {
    w.spawn(w.host(lr), "load" + std::to_string(lr),
            [](Context& ctx) -> Task<> {
              for (;;) co_await ctx.compute(kSecond);
            },
            /*essential=*/false);
  }

  if (sc.use_lb) {
    auto& mh = w.add_host();
    w.spawn(mh, "master", [&, stats](Context& ctx) -> Task<> {
      MasterConfig mc;
      mc.slaves = slave_pids;
      mc.initial_counts = sc.initial;
      mc.phases = sc.phases;
      mc.lb = sc.lb;
      mc.stats = stats;
      Master m(ctx, mc);
      co_await m.run();
    });
  }

  w.run();
  result.makespan_s = sim::to_seconds(w.now());
  result.stats = *stats;
  return result;
}

int total(const std::vector<int>& v) {
  return std::accumulate(v.begin(), v.end(), 0);
}

TEST(LbIntegration, DedicatedTwoSlavesCompleteAllWork) {
  Scenario sc;
  sc.initial = {50, 50};
  sc.lb = fast_lb();
  auto r = run_scenario(sc);
  EXPECT_EQ(total(r.units_computed), 100);
  EXPECT_GT(r.stats.rounds, 0);
  // Balanced dedicated system: no movement should be ordered.
  EXPECT_EQ(r.stats.units_moved, 0);
}

TEST(LbIntegration, OverheadIsSmallInDedicatedSystem) {
  Scenario with;
  with.initial = {50, 50, 50, 50};
  with.lb = fast_lb();
  auto r_with = run_scenario(with);

  Scenario without = with;
  without.use_lb = false;
  auto r_without = run_scenario(without);

  EXPECT_EQ(total(r_with.units_computed), total(r_without.units_computed));
  // Load balancing overhead under 10 % in the dedicated homogeneous case.
  EXPECT_LT(r_with.makespan_s, r_without.makespan_s * 1.10);
}

TEST(LbIntegration, LoadedSlaveShedsWork) {
  Scenario sc;
  sc.initial = {60, 60};
  sc.lb = fast_lb();
  sc.loaded_ranks = {0};
  auto r = run_scenario(sc);
  EXPECT_EQ(total(r.units_computed), 120);
  // The loaded slave computes materially less than the free one.
  EXPECT_LT(r.units_computed[0], r.units_computed[1]);
  EXPECT_GT(r.stats.units_moved, 0);
}

TEST(LbIntegration, LoadBalancingBeatsStaticOnLoadedSystem) {
  // Long enough that balancing transients (the first measurement window,
  // instruction lag) amortize, as in the paper's 100 s-scale runs.
  Scenario base;
  base.initial = {100, 100, 100, 100};
  base.lb = fast_lb();
  base.loaded_ranks = {0};

  auto with = run_scenario(base);
  Scenario static_sc = base;
  static_sc.use_lb = false;
  auto without = run_scenario(static_sc);

  // Static: the loaded slave takes ~2x its dedicated time (10 s) and
  // everyone waits for it. Dynamic: work shifts away; the bound is ~5.7 s
  // plus balancing overhead and the endgame tail.
  EXPECT_LT(with.makespan_s, without.makespan_s * 0.78);
}

TEST(LbIntegration, SynchronousModeAlsoCompletes) {
  Scenario sc;
  sc.initial = {40, 40, 40};
  sc.lb = fast_lb();
  sc.lb.pipelined = false;
  sc.loaded_ranks = {1};
  auto r = run_scenario(sc);
  EXPECT_EQ(total(r.units_computed), 120);
  EXPECT_GT(r.stats.units_moved, 0);
}

TEST(LbIntegration, RestrictedModeMovesOnlyBetweenNeighbors) {
  Scenario sc;
  sc.initial = {60, 60, 60, 60};
  sc.lb = fast_lb();
  sc.lb.movement = Movement::kRestricted;
  sc.loaded_ranks = {0};
  auto r = run_scenario(sc);
  const int n = 4;
  EXPECT_EQ(total(r.units_computed), 240);
  for (int rank = 0; rank < n; ++rank) {
    for (int peer = 0; peer < n; ++peer) {
      if (r.received_from[rank * n + peer] > 0) {
        EXPECT_EQ(std::abs(rank - peer), 1)
            << "rank " << rank << " received from non-neighbor " << peer;
      }
    }
  }
}

TEST(LbIntegration, MultiPhaseRunsStayAligned) {
  Scenario sc;
  sc.initial = {20, 20};
  sc.phases = 4;
  sc.lb = fast_lb();
  auto r = run_scenario(sc);
  EXPECT_EQ(total(r.units_computed), 160);  // 40 units x 4 phases
}

TEST(LbIntegration, EmptySlaveReceivesWork) {
  Scenario sc;
  sc.initial = {100, 0};
  sc.lb = fast_lb();
  auto r = run_scenario(sc);
  EXPECT_EQ(total(r.units_computed), 100);
  EXPECT_GT(r.units_computed[1], 0)
      << "idle slave never received any work";
}

TEST(LbIntegration, ThresholdPreventsThrashingWhenBalanced) {
  Scenario sc;
  sc.initial = {50, 50, 50};
  sc.phases = 2;
  sc.lb = fast_lb();
  auto r = run_scenario(sc);
  EXPECT_EQ(r.stats.units_moved, 0);
  EXPECT_GT(r.stats.cancelled_threshold, 0);
}

TEST(LbIntegration, SingleSlaveDegenerateCase) {
  Scenario sc;
  sc.initial = {25};
  sc.lb = fast_lb();
  auto r = run_scenario(sc);
  EXPECT_EQ(total(r.units_computed), 25);
  EXPECT_EQ(r.stats.units_moved, 0);
}

}  // namespace
}  // namespace nowlb::lb
