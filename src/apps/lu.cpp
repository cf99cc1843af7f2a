#include "apps/lu.hpp"

#include <algorithm>
#include <map>

#include "data/dist_array.hpp"
#include "data/slice.hpp"
#include "msg/serialize.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace nowlb::apps {

using data::BlockMap;
using data::DistArray;
using data::SliceId;
using sim::Context;
using sim::Message;
using sim::Payload;
using sim::Task;
using sim::Time;

namespace {

constexpr sim::Tag kTagPivot = 8101;  // multipliers broadcast for step k

}  // namespace

loop::LoopNestSpec lu_spec(const LuConfig& cfg) {
  loop::LoopNestSpec spec;
  spec.name = "LU";
  spec.distributed_extent = cfg.n;
  spec.inner_extent = cfg.n;
  spec.outer_iters = cfg.n - 1;  // steps k = 0 .. n-2
  spec.loop_carried_dependences = false;  // column updates are independent
  spec.communication_outside_loop = true;  // pivot broadcast per step
  spec.bounds = [n = cfg.n](int k) { return data::SliceRange{k + 1, n}; };
  spec.index_dependent_iteration_size = true;  // n-k rows per column
  spec.data_dependent_iteration_size = false;
  spec.iteration_cost = [cfg](int k, SliceId) {
    return static_cast<Time>(cfg.n - k - 1) * cfg.update_cost;
  };
  return spec;
}

double lu_seq_time_s(const LuConfig& cfg) {
  // sum over k of (n-k-1) columns x (n-k-1) rows
  double total = 0;
  for (int k = 0; k < cfg.n - 1; ++k) {
    const double m = cfg.n - k - 1;
    total += m * m;
  }
  return total * sim::to_seconds(cfg.update_cost);
}

void lu_make_inputs(const LuConfig& cfg, LuShared& shared) {
  Rng rng(cfg.seed);
  const std::size_t n = static_cast<std::size_t>(cfg.n);
  shared.a.assign(n, std::vector<double>(n));
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      shared.a[j][i] = rng.uniform(-1.0, 1.0);
    }
    // Diagonal dominance keeps the factorization stable without pivoting.
    shared.a[j][j] += static_cast<double>(n);
  }
  shared.final_owner.assign(n, -1);
}

void lu_sequential(const LuConfig& cfg, std::vector<std::vector<double>>& a) {
  const int n = cfg.n;
  for (int k = 0; k < n - 1; ++k) {
    auto& ck = a[static_cast<std::size_t>(k)];
    const double dk = ck[static_cast<std::size_t>(k)];
    for (int i = k + 1; i < n; ++i) {
      ck[static_cast<std::size_t>(i)] /= dk;
    }
    for (int j = k + 1; j < n; ++j) {
      auto& cj = a[static_cast<std::size_t>(j)];
      const double akj = cj[static_cast<std::size_t>(k)];
      for (int i = k + 1; i < n; ++i) {
        cj[static_cast<std::size_t>(i)] -=
            ck[static_cast<std::size_t>(i)] * akj;
      }
    }
  }
}

lb::ClusterConfig lu_cluster_config(const LuConfig& cfg, int slaves,
                                    const lb::LbConfig& lb) {
  lb::ClusterConfig cc;
  cc.slaves = slaves;
  cc.phases = 1;  // unused: termination by done flags
  cc.termination = lb::Termination::kDoneFlags;
  cc.lb = lb;
  cc.lb.movement = lb::Movement::kUnrestricted;
  cc.initial_counts = BlockMap::even(cfg.n, slaves).counts();
  cc.use_master = cfg.use_lb;
  return cc;
}

void lu_build(lb::Cluster& cluster, const LuConfig& cfg,
              std::shared_ptr<LuShared> shared) {
  shared->units_by_rank.assign(cluster.slaves(), 0.0);
  shared->probe.assign(cluster.slaves(), "start");

  cluster.spawn([cfg, shared](Context& ctx, int rank,
                              const lb::Cluster& c) -> Task<> {
    const int n = cfg.n;
    const int R = c.slaves();

    const auto block = BlockMap::even(n, R).range(rank);
    // Column marker = number of steps already applied to it.
    DistArray<double> cols(static_cast<std::size_t>(n), n);
    cols.enable_ownership_checks(rank);
    for (SliceId j = block.begin; j < block.end; ++j) {
      cols.add(j, shared->a[static_cast<std::size_t>(j)]);
    }

    // Full pivot history: work movement can hand us a column that lags the
    // local step, and catching it up needs the missed multipliers (§4.5
    // applied to LU). pivots[k] holds rows k+1..n-1.
    std::vector<std::vector<double>> pivots(static_cast<std::size_t>(n));

    int k_now = 0;  // current outer step

    const auto apply_step = [&](SliceId j, int k) {
      // cols[j] -= pivots[k] * a[k][j] on rows k+1..n-1 (marker k -> k+1).
      if (!cfg.real_compute) return;
      auto& cj = cols.slice(j);
      const auto& piv = pivots[static_cast<std::size_t>(k)];
      const double akj = cj[static_cast<std::size_t>(k)];
      for (int i = k + 1; i < n; ++i) {
        cj[static_cast<std::size_t>(i)] -=
            piv[static_cast<std::size_t>(i - k - 1)] * akj;
      }
    };

    lb::SlaveAgent::WorkOps ops;
    ops.remaining = [&cols, &k_now] {
      int r = 0;
      for (SliceId id : cols.owned_ids()) r += id > k_now;
      return r;
    };
    ops.pack = [&](int count, int) -> Task<std::pair<Payload, int>> {
      // Only active columns move (§4.7): inactive data stays put.
      std::vector<SliceId> active;
      for (SliceId id : cols.owned_ids()) {
        if (id > k_now) active.push_back(id);
      }
      const int actual =
          std::min(count, static_cast<int>(active.size()));
      const std::vector<SliceId> ids(active.end() - actual, active.end());
      co_return std::make_pair(cols.pack_and_remove(ids), actual);
    };
    ops.unpack = [&](Payload& payload, int) -> Task<int> {
      const auto ids = cols.unpack_and_add(payload);
      if (k_now == n - 1) {
        // Past the last step no update reaches a lagging column any more:
        // bring each to its final marker (column j takes steps 0..j-1)
        // here. Only column n-1 can lag then, delivered during finalize()
        // by a move the network delayed.
        Time cost = 0;
        int steps = 0;
        for (SliceId j : ids) {
          int m = cols.marker(j);
          for (; m < j; ++m, ++steps) {
            apply_step(j, m);
            cost += static_cast<Time>(n - m - 1) * cfg.update_cost;
          }
          cols.set_marker(j, m);
        }
        if (steps > 0) {
          co_await ctx.compute(cost);
          shared->units_by_rank[static_cast<std::size_t>(rank)] += steps;
        }
      }
      co_return static_cast<int>(ids.size());
    };

    std::optional<lb::SlaveAgent> agent;
    if (cfg.use_lb) agent.emplace(c.make_agent(ctx, rank, std::move(ops)));

    for (int k = 0; k < n - 1; ++k) {
      k_now = k;

      // A freshly moved-in column k may lag (its donor was at an earlier
      // step); catch it up before it can serve as the pivot column.
      if (cols.owns(k) && cols.marker(k) < k) {
        Time cost = 0;
        int m = cols.marker(k);
        while (m < k) {
          apply_step(k, m);
          cost += static_cast<Time>(n - m - 1) * cfg.update_cost;
          ++m;
          shared->units_by_rank[static_cast<std::size_t>(rank)] += 1;
          if (agent) agent->add_units(1);
        }
        cols.set_marker(k, m);
        co_await ctx.compute(cost);
      }

      // --- obtain the multipliers for step k ---
      if (cols.owns(k) && cols.marker(k) == k) {
        // We own an up-to-date column k: compute and broadcast.
        auto& ck = cols.slice(k);
        co_await ctx.compute(static_cast<Time>(n - k - 1) * cfg.update_cost);
        std::vector<double> piv(static_cast<std::size_t>(n - k - 1));
        const double dk = ck[static_cast<std::size_t>(k)];
        for (int i = k + 1; i < n; ++i) {
          if (cfg.real_compute) ck[static_cast<std::size_t>(i)] /= dk;
          piv[static_cast<std::size_t>(i - k - 1)] =
              ck[static_cast<std::size_t>(i)];
        }
        pivots[static_cast<std::size_t>(k)] = std::move(piv);
        msg::Writer w;
        w.put<std::int32_t>(k);
        w.put_vec(pivots[static_cast<std::size_t>(k)]);
        const Payload payload = w.take();
        for (int r2 = 0; r2 < R; ++r2) {
          if (r2 == rank) continue;
          co_await ctx.send(c.slave_pid(r2), kTagPivot, payload);
        }
      } else {
        // Someone else owns column k (possibly after a recent transfer):
        // wait for the broadcast, pumping runtime messages meanwhile.
        while (pivots[static_cast<std::size_t>(k)].empty()) {
          if (cols.owns(k)) {
            // Ownership arrived mid-wait — possibly lagging (the donor was
            // behind step k). Restart the step as owner: the catch-up at
            // the step top brings the column to marker == k first. Waiting
            // on would deadlock: no one else can broadcast this pivot.
            break;
          }
          shared->probe[rank] = "pivot k=" + std::to_string(k);
          const Time w0 = ctx.now();
          Message m = co_await ctx.recv(sim::kAnyTag, sim::kAnyPid);
          shared->probe[rank] = "pivot-got k=" + std::to_string(k) +
                                " tag=" + std::to_string(m.tag);
          if (agent) agent->note_blocked(ctx.now() - w0);
          if (m.tag == kTagPivot) {
            msg::Reader r(m.payload);
            const int kp = r.get<std::int32_t>();
            pivots[static_cast<std::size_t>(kp)] = r.get_vec<double>();
          } else {
            NOWLB_CHECK(agent.has_value(), "runtime message without balancer");
            co_await agent->accept_runtime(std::move(m));
          }
        }
        if (pivots[static_cast<std::size_t>(k)].empty()) {
          --k;  // became owner of column k; redo this step in that role
          continue;
        }
      }

      // --- update owned active columns; catch up any that lag (moved
      // in); columns already past step k (moved from a slave that is
      // ahead) are left alone until k reaches them — set-aside. ---
      int steps_applied = 0;
      Time cost = 0;
      for (SliceId j : cols.owned_ids()) {
        if (j <= k) continue;
        int m = cols.marker(j);
        while (m <= k) {
          apply_step(j, m);
          cost += static_cast<Time>(n - m - 1) * cfg.update_cost;
          ++m;
          ++steps_applied;
        }
        cols.set_marker(j, m);
      }
      if (steps_applied > 0) {
        co_await ctx.compute(cost);
        shared->units_by_rank[static_cast<std::size_t>(rank)] +=
            steps_applied;
        if (agent) agent->add_units(steps_applied);
      }

      // Hook at the end of each distributed-loop invocation (§4.2; §4.7's
      // frequency adaptation spaces the actual balances out in units).
      if (agent) {
        shared->probe[rank] = "hook k=" + std::to_string(k);
        co_await agent->hook();
      }
    }

    k_now = n - 1;  // column n-1 needs no further work
    if (agent) {
      shared->probe[rank] = "finalize";
      co_await agent->finalize();
      shared->probe[rank] = "done";
    }

    for (SliceId id : cols.owned_ids()) {
      shared->a[static_cast<std::size_t>(id)] = cols.slice(id);
      shared->final_owner[static_cast<std::size_t>(id)] = rank;
    }
  });
}

}  // namespace nowlb::apps
