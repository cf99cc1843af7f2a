#include "apps/mm.hpp"

#include <algorithm>

#include "data/dist_array.hpp"
#include "data/index_set.hpp"
#include "data/slice.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace nowlb::apps {

using data::BlockMap;
using data::DistArray;
using data::IndexSet;
using data::SliceId;
using sim::Context;
using sim::Task;
using sim::Time;

loop::LoopNestSpec mm_spec(const MmConfig& cfg) {
  loop::LoopNestSpec spec;
  spec.name = "MM";
  spec.distributed_extent = cfg.n;
  spec.inner_extent = cfg.n;  // rows of the output column
  spec.outer_iters = cfg.repeats;
  spec.loop_carried_dependences = false;
  spec.communication_outside_loop = false;
  spec.index_dependent_iteration_size = false;
  spec.data_dependent_iteration_size = false;
  const Time column_cost =
      static_cast<Time>(cfg.n) * static_cast<Time>(cfg.n) * cfg.mac_cost;
  spec.iteration_cost = [column_cost](int, SliceId) { return column_cost; };
  return spec;
}

double mm_seq_time_s(const MmConfig& cfg) {
  const double macs = static_cast<double>(cfg.n) * cfg.n * cfg.n;
  return macs * sim::to_seconds(cfg.mac_cost) * cfg.repeats;
}

void mm_make_inputs(const MmConfig& cfg, MmShared& shared) {
  Rng rng(cfg.seed);
  const std::size_t n = static_cast<std::size_t>(cfg.n);
  shared.a.resize(n * n);
  for (auto& v : shared.a) v = rng.uniform(-1.0, 1.0);
  shared.b.assign(n, {});
  for (auto& col : shared.b) {
    col.resize(n);
    for (auto& v : col) v = rng.uniform(-1.0, 1.0);
  }
  shared.c.assign(n, std::vector<double>(n, 0.0));
  shared.compute_count_per_column.assign(n, 0);
}

std::vector<std::vector<double>> mm_sequential(const MmConfig& cfg,
                                               const MmShared& shared) {
  const int n = cfg.n;
  std::vector<std::vector<double>> c(n, std::vector<double>(n, 0.0));
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) {
      double sum = 0.0;
      for (int k = 0; k < n; ++k) {
        sum += shared.a[static_cast<std::size_t>(i) * n + k] *
               shared.b[j][static_cast<std::size_t>(k)];
      }
      c[j][static_cast<std::size_t>(i)] = sum;
    }
  }
  return c;
}

lb::ClusterConfig mm_cluster_config(const MmConfig& cfg, int slaves,
                                    const lb::LbConfig& lb) {
  lb::ClusterConfig cc;
  cc.slaves = slaves;
  cc.phases = cfg.repeats;
  cc.termination = lb::Termination::kPhases;
  cc.lb = lb;
  cc.lb.movement = lb::Movement::kUnrestricted;  // no carried dependences
  cc.initial_counts = BlockMap::even(cfg.n, slaves).counts();
  cc.use_master = cfg.use_lb;
  cc.unit_ids_begin = 0;  // work unit j = column j of B/C
  cc.unit_ids_end = cfg.n;
  return cc;
}

namespace {

// Compute one column of C (cost always; arithmetic when real_compute).
Task<> compute_column(Context& ctx, const MmConfig& cfg, MmShared& shared,
                      const std::vector<double>& b_col, SliceId j) {
  const Time cost =
      static_cast<Time>(cfg.n) * static_cast<Time>(cfg.n) * cfg.mac_cost;
  co_await ctx.compute(cost);
  ++shared.compute_count_per_column[static_cast<std::size_t>(j)];
  if (!cfg.real_compute) co_return;
  const int n = cfg.n;
  auto& out = shared.c[static_cast<std::size_t>(j)];
  for (int i = 0; i < n; ++i) {
    double sum = 0.0;
    for (int k = 0; k < n; ++k) {
      sum += shared.a[static_cast<std::size_t>(i) * n + k] *
             b_col[static_cast<std::size_t>(k)];
    }
    out[static_cast<std::size_t>(i)] = sum;
  }
}

}  // namespace

void mm_build(lb::Cluster& cluster, const MmConfig& cfg,
              std::shared_ptr<MmShared> shared) {
  shared->columns_computed.assign(cluster.slaves(), 0);

  cluster.spawn([cfg, shared](Context& ctx, int rank,
                              const lb::Cluster& c) -> Task<> {
    const int n = cfg.n;
    const auto block = BlockMap::even(n, c.slaves()).range(rank);

    // Local distributed data: this slave's columns of B. The compiler's
    // generated initialization distributes by block; at run time ownership
    // follows work movement through the index structure (§4.5).
    DistArray<double> local_b(static_cast<std::size_t>(n), n);
    local_b.enable_ownership_checks(rank);
    for (SliceId j = block.begin; j < block.end; ++j) {
      local_b.add(j, shared->b[static_cast<std::size_t>(j)]);
    }

    if (!cfg.use_lb) {
      // Static distribution (the paper's plain parallel baseline): no
      // master, no hooks, no movement.
      for (int phase = 0; phase < cfg.repeats; ++phase) {
        for (SliceId j : local_b.owned_ids()) {
          co_await compute_column(ctx, cfg, *shared, local_b.slice(j), j);
          ++shared->columns_computed[static_cast<std::size_t>(rank)];
        }
      }
      co_return;
    }

    // Per-phase work list: columns still to compute in this invocation.
    IndexSet todo;
    // Hoisted so the fault-recovery adopt op (which captures by reference)
    // knows the current invocation.
    int phase = 0;

    lb::SlaveAgent::WorkOps ops;
    ops.remaining = [&todo] { return todo.size(); };
    ops.pack = [&](int count, int) -> Task<std::pair<sim::Payload, int>> {
      // Unrestricted movement: hand off the highest pending columns.
      const int actual = std::min(count, todo.size());
      const auto ids = todo.take_highest(actual);
      co_return std::make_pair(local_b.pack_and_remove(ids), actual);
    };
    ops.unpack = [&](sim::Payload& payload, int) -> Task<int> {
      const auto ids = local_b.unpack_and_add(payload);
      for (SliceId j : ids) todo.insert(j);
      co_return static_cast<int>(ids.size());
    };
    ops.inventory = [&] {
      const auto ids = local_b.owned_ids();
      return std::vector<std::int32_t>(ids.begin(), ids.end());
    };
    ops.adopt = [&](const std::vector<std::int32_t>& ids) -> Task<> {
      // Reconstruct orphaned columns from the replicated input B (a real
      // generated program would reload or recompute them the same way) and
      // redo whatever the dead rank had not finished this invocation:
      // compute_column's count increment is atomic with its output write,
      // so a column is either fully done (count == phase + 1) or must be
      // recomputed.
      for (const std::int32_t j : ids) {
        local_b.add(j, shared->b[static_cast<std::size_t>(j)]);
        if (shared->compute_count_per_column[static_cast<std::size_t>(j)] <
            phase + 1) {
          todo.insert(j);
        }
      }
      co_return;
    };

    lb::SlaveAgent agent = c.make_agent(ctx, rank, std::move(ops));

    for (phase = 0; phase < cfg.repeats; ++phase) {
      // New invocation: every owned column is pending again.
      for (SliceId j : local_b.owned_ids()) todo.insert(j);
      agent.begin_phase();
      for (;;) {
        while (!todo.empty()) {
          // Hook at the end of each distributed iteration: the distributed
          // loop is outermost (§4.2 rule 1).
          const SliceId j = todo.min();
          co_await compute_column(ctx, cfg, *shared, local_b.slice(j), j);
          todo.erase(j);
          ++shared->columns_computed[static_cast<std::size_t>(rank)];
          agent.add_units(1);
          co_await agent.hook();
        }
        co_await agent.drain();
        if (agent.phase_done()) break;
      }
    }
  });
}

}  // namespace nowlb::apps
