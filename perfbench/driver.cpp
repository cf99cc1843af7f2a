// nowlb-perfbench: the batch driver behind perfbench/run.py.
//
// Assembles every measured run from the library's public layer calls —
// apps::*_make_inputs, lb::Cluster + apps::*_build, sim::World::run,
// apps::*_sequential, check::generate_scenario / run_scenario and
// obs::build_causal_graph / critical_path — and times those calls from
// outside. Nothing inside src/ is instrumented for the benchmark.
//
// One process, one thread. Each mode prints one JSON object on its last
// stdout line; run.py turns those into the benchmark's metrics.
//
//   --mode=timed    untraced runs for --seconds: setup and host time of
//                   the balanced simulation, plus one static run and the
//                   cross-check against exp::run_*
//   --mode=verify   the figure config with real arithmetic, every
//                   invariant checker and the sequential oracle
//   --mode=hub      flight-recorder pass: counters, decision-ledger gates,
//                   causal loss budget and tracing overhead
//   --mode=profile  untraced runs for --seconds (built with -pg by run.py)
//   --mode=selftest cross-check the assembly against exp::run_* and the
//                   hub-attached trace hash; exit 1 on any mismatch
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "apps/lu.hpp"
#include "apps/mm.hpp"
#include "apps/sor.hpp"
#include "check/scenario.hpp"
#include "exp/harness.hpp"
#include "lb/cluster.hpp"
#include "load/generators.hpp"
#include "obs/attach.hpp"
#include "obs/causal.hpp"
#include "obs/critical_path.hpp"
#include "obs/obs.hpp"
#include "sim/world.hpp"

namespace {

using namespace nowlb;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Peak resident set of this process, in MiB.
double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Flat JSON object writer: numbers keep all their digits.
class Json {
 public:
  Json& num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(key, buf);
  }
  Json& count(const std::string& key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  Json& str(const std::string& key, const std::string& v) {
    return raw(key, "\"" + v + "\"");
  }
  Json& nums(const std::string& key, const std::vector<double>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%s%.17g", i ? "," : "", v[i]);
      s += buf;
    }
    return raw(key, s + "]");
  }
  void print() const { std::printf("{%s}\n", body_.c_str()); }

 private:
  Json& raw(const std::string& key, const std::string& v) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + key + "\":" + v;
    return *this;
  }
  std::string body_;
};

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

enum class Workload { kSorLoaded, kMmOscillating, kFuzzFaults };

bool parse_workload(const std::string& s, Workload* w) {
  if (s == "sor_loaded") *w = Workload::kSorLoaded;
  else if (s == "mm_oscillating") *w = Workload::kMmOscillating;
  else if (s == "fuzz_faults") *w = Workload::kFuzzFaults;
  else return false;
  return true;
}

constexpr int kFigureSlaves = 7;
constexpr int kMmRepeats = 300;
constexpr std::uint64_t kFuzzSeedsPerApp = 2000;

/// One figure configuration at 7 slaves: Fig. 8 (SOR 2000x2000, 20
/// sweeps, constant load) or Fig. 9's load under MM 500x500 x300 repeats
/// (busy 10 s of every 20 s). Cost-only arithmetic unless verifying.
struct Figure {
  bool sor = true;
  apps::SorConfig sor_cfg;
  apps::MmConfig mm_cfg;
  int load_rank = 0;
  sim::Time load_delay = 0;

  sim::ProcessBody make_load() const {
    if (sor) return load::constant();
    return load::oscillating(20 * sim::kSecond, 10 * sim::kSecond,
                             load_delay);
  }
};

/// The paper's configuration (load on slave 0, oscillation from t=0).
/// The seed picks the input data, which only the real-arithmetic
/// verification pass reads; seed 0 keeps the apps' default data seed.
Figure paper_figure(Workload w, std::uint64_t seed) {
  Figure f;
  f.sor = w == Workload::kSorLoaded;
  f.sor_cfg.seed += seed;
  f.mm_cfg.seed += seed;
  f.mm_cfg.repeats = kMmRepeats;
  return f;
}

/// The seed's held-out variant: SOR's constant load moves to slave
/// seed % 7, MM's oscillation starts (seed % 20) s late. Seed 0 is the
/// paper configuration itself.
Figure heldout_figure(Workload w, std::uint64_t seed) {
  Figure f = paper_figure(w, seed);
  if (f.sor) {
    f.load_rank = static_cast<int>(seed % kFigureSlaves);
  } else {
    f.load_delay = static_cast<sim::Time>(seed % 20) * sim::kSecond;
  }
  return f;
}

/// What one figure simulation produced.
struct Outcome {
  double virtual_s = 0;
  double eff = 0;
  double competing_s = 0;
  std::uint64_t trace_hash = 0;
  bool terminated = false;
};

/// One assembled figure run: inputs, world, cluster, slaves and loads.
/// Construction is the run's set-up; run() is World::run plus the
/// paper's efficiency arithmetic (exp/harness.hpp).
class FigureRun {
 public:
  FigureRun(const Figure& f, bool use_lb, obs::Observability* hub)
      : fig_(f) {
    fig_.sor_cfg.use_lb = use_lb;
    fig_.mm_cfg.use_lb = use_lb;
    const lb::LbConfig lbcfg = exp::paper_lb();

    auto t0 = Clock::now();
    if (fig_.sor) {
      sor_ = std::make_shared<apps::SorShared>();
      apps::sor_make_inputs(fig_.sor_cfg, *sor_);
    } else {
      mm_ = std::make_shared<apps::MmShared>();
      apps::mm_make_inputs(fig_.mm_cfg, *mm_);
    }
    make_inputs_s = since(t0);

    t0 = Clock::now();
    world_ = std::make_unique<sim::World>(exp::paper_world());
    // The hub must be attached before the cluster spawns the master and
    // slaves: their emitters bind to it at construction.
    obs::attach(*world_, hub);
    if (fig_.sor) {
      cluster_ = std::make_unique<lb::Cluster>(
          *world_,
          apps::sor_cluster_config(fig_.sor_cfg, kFigureSlaves, lbcfg));
      apps::sor_build(*cluster_, fig_.sor_cfg, sor_);
    } else {
      cluster_ = std::make_unique<lb::Cluster>(
          *world_, apps::mm_cluster_config(fig_.mm_cfg, kFigureSlaves, lbcfg));
      apps::mm_build(*cluster_, fig_.mm_cfg, mm_);
    }
    cluster_->add_load(fig_.load_rank, fig_.make_load());
    cluster_build_s = since(t0);
  }

  Outcome run() {
    world_->run();
    Outcome o;
    o.virtual_s = sim::to_seconds(world_->now());
    o.trace_hash = world_->engine().trace_hash();
    o.terminated = world_->essential_remaining() == 0;
    double denominator = 0;
    for (int r = 0; r < kFigureSlaves; ++r) {
      double competing = 0;
      for (sim::Pid pid : cluster_->loads(r)) {
        competing += sim::to_seconds(world_->cpu_used(pid));
      }
      o.competing_s += competing;
      denominator += o.virtual_s - competing;
    }
    const double seq_s = fig_.sor ? apps::sor_seq_time_s(fig_.sor_cfg)
                                  : apps::mm_seq_time_s(fig_.mm_cfg);
    o.eff = denominator > 0 ? seq_s / denominator : 0;
    return o;
  }

  double make_inputs_s = 0;
  double cluster_build_s = 0;

 private:
  Figure fig_;
  std::shared_ptr<apps::SorShared> sor_;
  std::shared_ptr<apps::MmShared> mm_;
  std::unique_ptr<sim::World> world_;
  std::unique_ptr<lb::Cluster> cluster_;
};

/// The same figure through exp::run_sor / exp::run_mm, for cross-checks.
exp::Measurement reference_run(const Figure& f, bool use_lb) {
  exp::ExperimentConfig cfg;
  cfg.slaves = kFigureSlaves;
  cfg.world = exp::paper_world();
  cfg.lb = exp::paper_lb();
  cfg.loads.push_back({f.load_rank, [f] { return f.make_load(); }});
  if (f.sor) {
    apps::SorConfig app = f.sor_cfg;
    app.use_lb = use_lb;
    return exp::run_sor(app, cfg);
  }
  apps::MmConfig app = f.mm_cfg;
  app.use_lb = use_lb;
  return exp::run_mm(app, cfg);
}

/// Describe every difference between the assembly and exp::run_*.
std::string cross_check(const Outcome& own, const exp::Measurement& ref) {
  std::string why;
  if (own.trace_hash != ref.trace_hash) why += " trace_hash";
  if (own.virtual_s != ref.elapsed_s) why += " virtual_s";
  if (own.eff != ref.efficiency) why += " eff";
  return why;
}

// ---------------------------------------------------------------------
// Fuzz sweep
// ---------------------------------------------------------------------

constexpr check::App kApps[] = {check::App::kMm, check::App::kSor,
                                check::App::kLu};

check::FaultPlan fuzz_faults() {
  check::FaultPlan plan;
  plan.drop_rate = 0.05;
  plan.dup_rate = 0.02;
  plan.reorder_delay = 500 * sim::kMicrosecond;
  return plan;
}

/// The sweep's scenarios: seeds seed*2000 .. seed*2000+1999 for each app,
/// with the lossy-network plan layered on.
std::vector<check::Scenario> generate_sweep(std::uint64_t seed) {
  std::vector<check::Scenario> out;
  out.reserve(kFuzzSeedsPerApp * 3);
  const check::FaultPlan plan = fuzz_faults();
  for (std::uint64_t s = 0; s < kFuzzSeedsPerApp; ++s) {
    for (check::App app : kApps) {
      out.push_back(check::generate_scenario(seed * kFuzzSeedsPerApp + s, app));
      check::apply_fault_plan(out.back(), plan);
    }
  }
  return out;
}

/// The static counterpart of a scenario: no master, no faults.
check::Scenario static_variant(check::Scenario sc) {
  sc.mm.use_lb = false;
  sc.sor.use_lb = false;
  sc.lu.use_lb = false;
  sc.faults = {};
  sc.world.net.drop_prob = 0;
  sc.world.net.dup_prob = 0;
  sc.world.net.max_extra_delay = 0;
  sc.lb.transport.enabled = false;
  return sc;
}

double seq_time_s(const check::Scenario& sc) {
  switch (sc.app) {
    case check::App::kMm:
      return apps::mm_seq_time_s(sc.mm);
    case check::App::kSor:
      return apps::sor_seq_time_s(sc.sor);
    case check::App::kLu:
      return apps::lu_seq_time_s(sc.lu);
  }
  return 0;
}

/// check::run_scenario, with a failure that escapes the simulation (a
/// process's NOWLB_CHECK, rethrown by World::run) recorded as a failed
/// invariant instead of ending the benchmark.
check::FuzzResult run_checked(const check::Scenario& sc,
                              obs::Observability* hub = nullptr) {
  try {
    return check::run_scenario(sc, check::InvariantSet::Fault::kNone, hub);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", sc.describe().c_str(),
                 e.what());
    check::FuzzResult r;
    r.ok = false;
    r.failures.push_back({"exception", e.what(), 0});
    return r;
  }
}

/// Host seconds of one scenario's apps::*_make_inputs and of its
/// sequential oracle, timed from outside (run_scenario runs both inside).
std::pair<double, double> time_inputs_and_oracle(const check::Scenario& sc) {
  apps::MmShared mm;
  apps::SorShared sor;
  apps::LuShared lu;
  auto t0 = Clock::now();
  switch (sc.app) {
    case check::App::kMm:
      apps::mm_make_inputs(sc.mm, mm);
      break;
    case check::App::kSor:
      apps::sor_make_inputs(sc.sor, sor);
      break;
    case check::App::kLu:
      apps::lu_make_inputs(sc.lu, lu);
      break;
  }
  const double inputs_s = since(t0);
  t0 = Clock::now();
  switch (sc.app) {
    case check::App::kMm:
      (void)apps::mm_sequential(sc.mm, mm);
      break;
    case check::App::kSor:
      apps::sor_sequential(sc.sor, sor.grid);
      break;
    case check::App::kLu:
      apps::lu_sequential(sc.lu, lu.a);
      break;
  }
  return {inputs_s, since(t0)};
}

/// Failure tallies by kind; run.py reports 1 - failed/attempted as pass_share.
struct Failures {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t oracle = 0;
  std::uint64_t termination = 0;
  std::uint64_t invariant = 0;
  std::uint64_t other = 0;  // cross-check or determinism mismatches

  void add(const check::FuzzResult& r) {
    ++attempted;
    if (r.ok) return;
    ++failed;
    bool o = false, t = false, i = false;
    for (const auto& f : r.failures) {
      if (f.checker == "oracle") o = true;
      else if (f.checker == "termination") t = true;
      else i = true;
    }
    oracle += o;
    termination += t;
    invariant += i;
  }
  void add_mismatch(bool bad, const std::string& why) {
    ++attempted;
    if (!bad) return;
    ++failed;
    ++other;
    std::fprintf(stderr, "perfbench: mismatch:%s\n", why.c_str());
  }
  void write(Json& j) const {
    j.count("attempted", attempted)
        .count("failed", failed)
        .count("check.failures.oracle", oracle)
        .count("check.failures.termination", termination)
        .count("check.failures.invariant", invariant)
        .count("check.failures.other", other);
  }
};

/// Modelled numbers of a sweep. check::run_scenario does not expose
/// competing CPU, so a scenario's efficiency is its capacity efficiency,
/// T_seq / (slaves x T_elapsed), with loads counted as lost capacity;
/// the sweep reports the mean over its scenarios.
struct SweepEff {
  double eff_sum = 0;
  double virtual_s = 0;
  std::uint64_t n = 0;
  void add(const check::Scenario& sc, const check::FuzzResult& r) {
    if (r.elapsed_s <= 0) return;  // no result: the scenario threw
    eff_sum += seq_time_s(sc) / (sc.slaves * r.elapsed_s);
    virtual_s += r.elapsed_s;
    ++n;
  }
  double eff() const { return n > 0 ? eff_sum / static_cast<double>(n) : 0; }
};

// ---------------------------------------------------------------------
// Flight-recorder readings
// ---------------------------------------------------------------------

/// Everything the hub-attached pass reads from the recorder, summed over
/// the runs it saw (one figure run, or every scenario of a sweep).
struct HubReadings {
  /// Benchmark metric name, recorder counter name.
  static constexpr std::pair<const char*, const char*> kCounters[] = {
      {"sim.messages", "sim_messages_sent"},
      {"sim.payload_bytes", "sim_payload_bytes"},
      {"sim.dropped", "sim_messages_dropped"},
      {"sim.duplicated", "sim_messages_duplicated"},
      {"lb.rounds", "lb_rounds"},
      {"lb.moves_ordered", "lb_moves_ordered"},
      {"lb.units_moved", "lb_units_moved"},
      {"lb.cancelled_threshold", "lb_cancelled_threshold"},
      {"lb.cancelled_profit", "lb_cancelled_profit"},
      {"transport.sent", "transport_sent"},
      {"transport.retransmits", "transport_retransmits"},
      {"transport.acks_sent", "transport_acks_sent"},
      {"transport.dups_suppressed", "transport_dups_suppressed"},
      {"transport.held_reordered", "transport_held_reordered"},
      {"transport.gave_up", "transport_gave_up"}};
  static constexpr int kGates = static_cast<int>(obs::Gate::kFinalReports) + 1;

  std::uint64_t counters[std::size(kCounters)] = {};
  std::uint64_t gates[kGates] = {};  // ledger records by obs::Gate
  double period_sum = 0;             // over rounds where the planner ran
  std::uint64_t period_rounds = 0;
  std::uint64_t events = 0;  // engine events dispatched
  std::uint64_t trace_events = 0;
  std::uint64_t trace_dropped = 0;
  std::uint64_t ledger_records = 0;
  // Causal loss budget.
  double compute_s = 0, blocked_s = 0, transport_s = 0, decision_s = 0,
         migration_s = 0;
  double rank_wall_s = 0;  // sum of nranks x causal wall
  double cp_s = 0;         // critical-path length
  double wall_s = 0;       // virtual elapsed of the runs

  void add(const obs::Observability& hub, double virtual_s) {
    for (std::size_t i = 0; i < std::size(kCounters); ++i) {
      const obs::Counter* c = hub.metrics.find_counter(kCounters[i].second);
      counters[i] += c != nullptr ? c->value() : 0;
    }
    for (const auto& rec : hub.ledger.records()) {
      ++gates[static_cast<int>(rec.gate)];
      switch (rec.gate) {
        case obs::Gate::kMove:
        case obs::Gate::kBelowThreshold:
        case obs::Gate::kNotProfitable:
        case obs::Gate::kHold:
          period_sum += rec.period_s;
          ++period_rounds;
          break;
        default:
          break;
      }
    }
    if (const obs::Gauge* g = hub.metrics.find_gauge("sim_events_dispatched")) {
      events += static_cast<std::uint64_t>(g->value());
    }
    trace_events += hub.trace.events().size();
    trace_dropped += hub.trace.dropped();
    ledger_records += hub.ledger.records().size();

    const obs::CausalGraph g = obs::build_causal_graph(hub.trace, hub.ledger);
    for (const auto& r : g.rounds) {
      compute_s += r.compute_s;
      blocked_s += r.blocked_s;
      transport_s += r.transport_s;
      decision_s += r.decision_s;
      migration_s += r.migration_s;
    }
    rank_wall_s += g.nranks * g.wall_s();
    cp_s += sim::to_seconds(obs::critical_path(g).length());
    wall_s += virtual_s;
  }

  /// Trace-derived efficiency: compute share of the ranks' causal wall.
  double trace_eff() const {
    return rank_wall_s > 0 ? compute_s / rank_wall_s : 0;
  }

  void write(Json& j) const {
    for (std::size_t i = 0; i < std::size(kCounters); ++i) {
      j.count(kCounters[i].first, counters[i]);
    }
    for (int g = 0; g < kGates; ++g) {
      std::string name = obs::gate_name(static_cast<obs::Gate>(g));
      std::replace(name.begin(), name.end(), '-', '_');
      j.count("lb.gate." + name, gates[g]);
    }
    j.num("lb.period_s", period_rounds > 0 ? period_sum /
                                                 static_cast<double>(period_rounds)
                                           : 0);
    j.count("sim.events", events)
        .count("obs.trace_events", trace_events)
        .count("obs.trace_dropped", trace_dropped)
        .count("obs.ledger_records", ledger_records)
        .num("model.compute_s", compute_s)
        .num("model.blocked_s", blocked_s)
        .num("model.transport_s", transport_s)
        .num("model.decision_s", decision_s)
        .num("model.migration_s", migration_s)
        .num("model.trace_eff", trace_eff())
        .num("model.cp_coverage", wall_s > 0 ? cp_s / wall_s : 0);
  }
};

// ---------------------------------------------------------------------
// Modes
// ---------------------------------------------------------------------

struct Args {
  std::string mode = "timed";
  Workload workload = Workload::kSorLoaded;
  std::uint64_t seed = 0;
  double seconds = 10;
};

/// Untraced measurement of a figure workload: one warm-up run, then
/// timed runs until --seconds have passed, one static run, and the
/// cross-check of both against exp::run_*.
void timed_figure(const Args& a) {
  const Figure fig = paper_figure(a.workload, a.seed);
  Failures fails;
  Outcome first;
  {
    FigureRun warm(fig, true, nullptr);
    first = warm.run();
  }
  fails.add_mismatch(!first.terminated, " DLB run did not terminate");

  std::vector<double> host, setup, inputs, build;
  const auto start = Clock::now();
  do {
    auto t0 = Clock::now();
    FigureRun run(fig, true, nullptr);
    setup.push_back(since(t0));
    inputs.push_back(run.make_inputs_s);
    build.push_back(run.cluster_build_s);
    t0 = Clock::now();
    const Outcome o = run.run();
    host.push_back(since(t0));
    fails.add_mismatch(o.trace_hash != first.trace_hash,
                       " DLB run is not deterministic");
  } while (since(start) < a.seconds || host.size() < 3);

  auto t0 = Clock::now();
  FigureRun static_run(fig, false, nullptr);
  const Outcome st = static_run.run();
  const double static_s = since(t0);
  fails.add_mismatch(!st.terminated, " static run did not terminate");

  // The assembly must reproduce exp::run_* exactly.
  const std::string why = cross_check(first, reference_run(fig, true)) +
                          cross_check(st, reference_run(fig, false));
  fails.add_mismatch(!why.empty(), why);

  Json j;
  j.nums("host_s", host)
      .nums("setup_s", setup)
      .num("apps.make_inputs_s", median(inputs))
      .num("lb.cluster_build_s", median(build))
      .num("sim.run_s", median(host))
      .num("exp.static_run_s", static_s)
      .num("virtual_s", first.virtual_s)
      .num("eff", first.eff)
      .num("eff_static", st.eff)
      .num("model.competing_s", first.competing_s)
      .num("peak_rss_mb", peak_rss_mb());
  fails.write(j);
  j.print();
}

/// Untraced measurement of the fuzz sweep: scenario generation repeated
/// for a steady set-up median, one warm-up sweep, timed sweeps until
/// --seconds have passed, and one static sweep for eff_static.
void timed_fuzz(const Args& a) {
  Failures fails;
  std::vector<double> setup;
  std::vector<check::Scenario> sweep;
  for (int i = 0; i < 25; ++i) {
    const auto t0 = Clock::now();
    sweep = generate_sweep(a.seed);
    setup.push_back(since(t0));
  }

  SweepEff dlb;
  std::vector<std::uint64_t> hashes;
  for (const auto& sc : sweep) {
    const check::FuzzResult r = run_checked(sc);
    fails.add(r);
    dlb.add(sc, r);
    hashes.push_back(r.trace_hash);
  }

  std::vector<double> host;
  std::uint64_t nondeterministic = 0;
  const auto start = Clock::now();
  do {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      nondeterministic += run_checked(sweep[i]).trace_hash != hashes[i];
    }
    host.push_back(since(t0));
  } while (since(start) < a.seconds || host.size() < 3);
  fails.add_mismatch(nondeterministic > 0, " fuzz replay is not deterministic");

  const auto t0 = Clock::now();
  SweepEff st;
  for (const auto& sc : sweep) {
    const check::Scenario s = static_variant(sc);
    const check::FuzzResult r = run_checked(s);
    fails.add(r);
    st.add(s, r);
  }
  const double static_s = since(t0);

  Json j;
  j.nums("host_s", host)
      .nums("setup_s", setup)
      .num("check.generate_s", median(setup))
      .num("check.run_scenario_s",
           median(host) / static_cast<double>(sweep.size()))
      .num("sim.run_s", median(host))
      .num("exp.static_run_s", static_s)
      .num("virtual_s", dlb.virtual_s)
      .num("eff", dlb.eff())
      .num("eff_static", st.eff())
      .num("peak_rss_mb", peak_rss_mb());
  fails.write(j);
  j.print();
}

/// The figure's exact config with real arithmetic, run by
/// check::run_scenario under every invariant checker and the bit-exact
/// sequential oracle. Its virtual elapsed time must equal the cost-only
/// run's: real compute does not change the simulated schedule.
void verify_figure(const Args& a) {
  const Figure fig = paper_figure(a.workload, a.seed);
  check::Scenario sc;
  sc.seed = a.seed;
  sc.slaves = kFigureSlaves;
  sc.world = exp::paper_world();
  sc.lb = exp::paper_lb();
  sc.loads.assign(kFigureSlaves, 0);
  if (fig.sor) {
    sc.app = check::App::kSor;
    sc.sor = fig.sor_cfg;
    sc.sor.real_compute = true;
    sc.loads[fig.load_rank] = 1;  // constant
  } else {
    sc.app = check::App::kMm;
    sc.mm = fig.mm_cfg;
    sc.mm.real_compute = true;
    sc.loads[fig.load_rank] = 2;  // on for half of every load_period
    sc.load_period = 20 * sim::kSecond;
  }
  // The fuzzer's watchdog rule: far beyond any legitimate completion.
  sc.time_bound = sim::from_seconds(20.0 * seq_time_s(sc) + 60.0);

  Failures fails;
  auto t0 = Clock::now();
  const check::FuzzResult r = run_checked(sc);
  const double run_s = since(t0);
  fails.add(r);
  for (const auto& f : r.failures) {
    std::fprintf(stderr, "perfbench: verify: %s: %s\n", f.checker.c_str(),
                 f.message.c_str());
  }

  FigureRun cost_only(fig, true, nullptr);
  fails.add_mismatch(cost_only.run().virtual_s != r.elapsed_s,
                     " real-compute virtual time differs from cost-only");

  const double oracle_s = time_inputs_and_oracle(sc).second;

  Json j;
  j.num("check.run_scenario_s", run_s).num("apps.oracle_s", oracle_s);
  fails.write(j);
  j.print();
}

/// Hub-attached pass over a figure workload: recorder counters, ledger
/// gates, the causal loss budget and the recording overhead, plus the
/// seed's held-out variant (untraced).
void hub_figure(const Args& a) {
  const Figure fig = paper_figure(a.workload, a.seed);
  Failures fails;
  Outcome plain, traced;
  obs::Observability hub;
  // Untraced and hub-attached runs alternate, so drift hits both alike.
  std::vector<double> plain_t, traced_t;
  const auto start = Clock::now();
  do {
    {
      FigureRun run(fig, true, nullptr);
      const auto t0 = Clock::now();
      plain = run.run();
      plain_t.push_back(since(t0));
    }
    hub.clear();
    FigureRun run(fig, true, &hub);
    const auto t0 = Clock::now();
    traced = run.run();
    traced_t.push_back(since(t0));
  } while (since(start) < a.seconds || plain_t.size() < 3);
  const double plain_s = median(plain_t);
  const double traced_s = median(traced_t);
  fails.add_mismatch(traced.trace_hash != plain.trace_hash,
                     " recording changed the trace hash");

  HubReadings rd;
  rd.add(hub, traced.virtual_s);

  const Figure held = heldout_figure(a.workload, a.seed);
  FigureRun held_dlb(held, true, nullptr);
  FigureRun held_static(held, false, nullptr);
  const Outcome hd = held_dlb.run();
  const Outcome hs = held_static.run();
  fails.add_mismatch(!hd.terminated || !hs.terminated,
                     " held-out run did not terminate");

  // A figure run is one scenario of its app: it reaches a move round or not.
  const double reached =
      rd.gates[static_cast<int>(obs::Gate::kMove)] > 0 ? 1.0 : 0.0;
  Json j;
  rd.write(j);
  j.num("obs.overhead", traced_s / plain_s)
      .num("check.move_reach_share.mm", fig.sor ? 0 : reached)
      .num("check.move_reach_share.sor", fig.sor ? reached : 0)
      .num("check.move_reach_share.lu", 0)
      .num("heldout.virtual_s", hd.virtual_s)
      .num("heldout.eff", hd.eff)
      .num("heldout.eff_static", hs.eff);
  fails.write(j);
  j.print();
}

/// Hub-attached pass over the fuzz sweep: each scenario replayed with a
/// fresh recorder; its trace hash must equal the untraced run's.
void hub_fuzz(const Args& a) {
  const std::vector<check::Scenario> sweep = generate_sweep(a.seed);
  Failures fails;
  std::vector<std::uint64_t> hashes;
  const auto t0 = Clock::now();
  for (const auto& sc : sweep) {
    hashes.push_back(run_checked(sc).trace_hash);
  }
  const double plain_s = since(t0);

  HubReadings rd;
  obs::Observability hub;
  std::uint64_t reached[3] = {}, total[3] = {};
  std::uint64_t perturbed = 0;
  double record_s = 0;  // host time of the hub-attached runs alone
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    hub.clear();
    const auto r0 = Clock::now();
    const check::FuzzResult r = run_checked(sweep[i], &hub);
    record_s += since(r0);
    fails.add(r);
    perturbed += r.trace_hash != hashes[i];
    rd.add(hub, r.elapsed_s);
    const int app = static_cast<int>(sweep[i].app);
    ++total[app];
    for (const auto& rec : hub.ledger.records()) {
      if (rec.gate == obs::Gate::kMove) {
        ++reached[app];
        break;
      }
    }
  }
  fails.add_mismatch(perturbed > 0, " recording changed a trace hash");

  double inputs_s = 0;
  double oracle_s = 0;
  for (const auto& sc : sweep) {
    const auto [in_s, or_s] = time_inputs_and_oracle(sc);
    inputs_s += in_s;
    oracle_s += or_s;
  }

  auto share = [&](int app) {
    return total[app] > 0 ? static_cast<double>(reached[app]) /
                                static_cast<double>(total[app])
                          : 0;
  };
  Json j;
  rd.write(j);
  j.num("obs.overhead", record_s / plain_s)
      .num("apps.make_inputs_s", inputs_s)
      .num("apps.oracle_s", oracle_s)
      .num("check.move_reach_share.mm", share(0))
      .num("check.move_reach_share.sor", share(1))
      .num("check.move_reach_share.lu", share(2));
  fails.write(j);
  j.print();
}

/// Untraced runs for --seconds, for the -pg build.
void profile(const Args& a) {
  int runs = 0;
  const auto start = Clock::now();
  if (a.workload == Workload::kFuzzFaults) {
    const std::vector<check::Scenario> sweep = generate_sweep(a.seed);
    do {
      for (const auto& sc : sweep) (void)run_checked(sc);
      ++runs;
    } while (since(start) < a.seconds);
  } else {
    const Figure fig = paper_figure(a.workload, a.seed);
    do {
      FigureRun run(fig, true, nullptr);
      (void)run.run();
      ++runs;
    } while (since(start) < a.seconds);
  }
  Json j;
  j.count("profile.runs", static_cast<std::uint64_t>(runs))
      .num("profile.wall_s", since(start));
  j.print();
}

/// The assembly against exp::run_* (DLB and static; the paper
/// configuration and seed 3's held-out variant), and the hub-attached
/// trace hash against the untraced one. Exit status 1 on any mismatch.
int selftest() {
  int bad = 0;
  for (Workload w : {Workload::kSorLoaded, Workload::kMmOscillating}) {
    for (const Figure& fig : {paper_figure(w, 0), heldout_figure(w, 3)}) {
      for (bool use_lb : {true, false}) {
        FigureRun run(fig, use_lb, nullptr);
        const Outcome own = run.run();
        const std::string why = cross_check(own, reference_run(fig, use_lb));
        obs::Observability hub;
        FigureRun recorded(fig, use_lb, &hub);
        const bool kept = recorded.run().trace_hash == own.trace_hash;
        const bool ok = why.empty() && kept;
        std::printf("%s %s load_rank=%d load_delay_s=%g lb=%d:%s%s\n",
                    ok ? "ok  " : "FAIL", fig.sor ? "sor" : "mm",
                    fig.load_rank, sim::to_seconds(fig.load_delay),
                    use_lb ? 1 : 0, why.c_str(),
                    kept ? "" : " hub-attached trace_hash");
        bad += ok ? 0 : 1;
      }
    }
  }
  return bad == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string val = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "--mode") {
      a.mode = val;
    } else if (key == "--workload") {
      if (!parse_workload(val, &a.workload)) {
        std::fprintf(stderr, "unknown workload '%s'\n", val.c_str());
        return 2;
      }
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), nullptr);
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
      return 2;
    }
  }
  const bool fuzz = a.workload == Workload::kFuzzFaults;
  if (a.mode == "info") {
    Json j;
    j.str("build_type", NOWLB_BENCH_BUILD_TYPE)
        .str("compiler", NOWLB_BENCH_COMPILER)
        .count("profiled", NOWLB_BENCH_PROFILED);
    j.print();
  } else if (a.mode == "timed") {
    fuzz ? timed_fuzz(a) : timed_figure(a);
  } else if (a.mode == "verify" && !fuzz) {
    verify_figure(a);
  } else if (a.mode == "hub") {
    fuzz ? hub_fuzz(a) : hub_figure(a);
  } else if (a.mode == "profile") {
    profile(a);
  } else if (a.mode == "selftest") {
    return selftest();
  } else {
    std::fprintf(stderr, "unknown mode '%s'\n", a.mode.c_str());
    return 2;
  }
  return 0;
}
