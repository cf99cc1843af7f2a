#include "sim/world.hpp"

#include <utility>

#include "util/check.hpp"
#include "util/log.hpp"

namespace nowlb::sim {

namespace {
double world_now_seconds(void* w) {
  return to_seconds(static_cast<World*>(w)->now());
}
}  // namespace

// ---------------------------------------------------------------- Process

Process::Process(World& world, Host& host, Pid pid, std::string name,
                 bool essential)
    : world_(world),
      host_(host),
      pid_(pid),
      name_(std::move(name)),
      essential_(essential) {}

Process::~Process() = default;

void Process::start() { root_.start(); }

void Process::resume() {
  NOWLB_CHECK(resume_point, "resume with no stored suspension point");
  auto h = resume_point;
  resume_point = nullptr;
  h.resume();
}

Task<> Process::wrap(Task<> body) {
  try {
    co_await std::move(body);
  } catch (...) {
    error_ = std::current_exception();
  }
  finished_ = true;
  world_.on_process_done(*this);
}

// ---------------------------------------------------------------- Context

Context::Context(World& world, Process& process)
    : world_(world),
      process_(process),
      rng_(world.fork_rng()) {}

Pid Context::pid() const { return process_.pid(); }
int Context::host_id() const { return process_.host().id(); }
Time Context::now() const { return world_.now(); }
Recorder& Context::recorder() { return world_.recorder(); }

SleepAwaiter Context::sleep(Time dt) {
  return SleepAwaiter{process_, world_.engine(), dt};
}

Task<> Context::send(Pid dst, Tag tag, Payload payload) {
  co_await compute(world_.config().msg.send_overhead);
  Message m;
  m.src = process_.pid();
  m.dst = dst;
  m.tag = tag;
  m.payload = std::move(payload);
  Process& target = world_.process(dst);
  world_.network().post(std::move(m), process_.host().id(), target,
                        target.host().id());
}

Task<Message> Context::recv(Tag tag, Pid src) {
  Message m = co_await recv_raw(tag, src);
  co_await compute(world_.config().msg.recv_overhead);
  co_return m;
}

Task<std::optional<Message>> Context::recv_until(Tag tag, Pid src,
                                                Time deadline) {
  std::optional<Message> m = co_await RecvTimeoutAwaiter{
      process_, world_.engine(), tag, src, deadline, std::nullopt, {}};
  if (m) co_await compute(world_.config().msg.recv_overhead);
  co_return m;
}

// ------------------------------------------------------------------ World

World::World(WorldConfig cfg)
    : cfg_(cfg), network_(engine_, cfg.net), rng_(cfg.seed) {
  // First world in wins the log clock; nested worlds leave it alone.
  if (!Log::has_time_source()) {
    Log::set_time_source(&world_now_seconds, this);
    owns_log_clock_ = true;
  }
}

World::~World() {
  if (owns_log_clock_) Log::clear_time_source(this);
}

void World::set_sink(std::unique_ptr<TraceSink> sink) {
  sink_ = std::move(sink);
  network_.set_sink(sink_.get());
  if (sink_) {
    for (const auto& h : hosts_) {
      sink_->name_host(h->id(), "host" + std::to_string(h->id()));
    }
    for (const auto& p : processes_) {
      sink_->name_lane(p->host().id(), p->pid(), p->name());
    }
  }
}

Host& World::add_host() {
  hosts_.push_back(
      std::make_unique<Host>(engine_, static_cast<int>(hosts_.size()),
                             cfg_.host));
  if (sink_) {
    sink_->name_host(hosts_.back()->id(),
                     "host" + std::to_string(hosts_.back()->id()));
  }
  return *hosts_.back();
}

Pid World::spawn(Host& host, std::string name, ProcessBody body,
                 bool essential) {
  const Pid pid = static_cast<Pid>(processes_.size());
  auto proc =
      std::make_unique<Process>(*this, host, pid, std::move(name), essential);
  proc->ctx_ = std::make_unique<Context>(*this, *proc);
  // Keep the body callable alive for the process lifetime: the coroutine
  // frame references the closure stored inside it.
  proc->body_ = std::move(body);
  proc->root_ = proc->wrap(proc->body_(*proc->ctx_));
  if (essential) ++essential_outstanding_;
  Process* raw = proc.get();
  processes_.push_back(std::move(proc));
  engine_.schedule_at(engine_.now(), [raw] { raw->start(); });
  for (WorldObserver* o : observers_) o->on_spawn(engine_.now(), *raw);
  if (sink_) {
    sink_->name_lane(host.id(), pid, raw->name());
    sink_->instant(engine_.now(), host.id(), pid, "proc", "proc.spawn",
                   {"essential", essential ? 1.0 : 0.0});
  }
  return pid;
}

Time World::cpu_used(Pid pid) const {
  const Process& p = *processes_.at(pid);
  return p.host().cpu_used(p);
}

void World::on_process_done(Process& p) {
  for (WorldObserver* o : observers_) o->on_process_done(engine_.now(), p);
  if (sink_) {
    sink_->instant(engine_.now(), p.host().id(), p.pid(), "proc",
                   "proc.done", {"error", p.error() ? 1.0 : 0.0});
  }
  if (p.error()) {
    NOWLB_LOG(Error, "sim") << "process " << p.name() << " failed";
    engine_.fail(p.error());
    return;
  }
  NOWLB_LOG(Debug, "sim") << "process " << p.name() << " finished at t="
                          << to_seconds(engine_.now()) << "s";
  if (p.essential()) {
    NOWLB_CHECK(essential_outstanding_ > 0);
    if (--essential_outstanding_ == 0) engine_.stop();
  }
}

void World::kill(Pid pid) {
  Process& p = *processes_.at(pid);
  if (p.killed_ || p.finished_) return;
  p.killed_ = true;
  if (sink_) {
    sink_->instant(engine_.now(), p.host_.id(), pid, "proc", "proc.kill");
  }
  NOWLB_LOG(Info, "sim") << "process " << p.name() << " killed at t="
                         << to_seconds(engine_.now()) << "s";
  // Hooks run first so runtime layers (transports) stop transmitting
  // before the mailbox closes.
  for (auto& hook : p.kill_hooks_) hook();
  p.kill_hooks_.clear();
  p.mailbox_.close();
  p.host_.remove(p);
  p.finished_ = true;
  for (WorldObserver* o : observers_) o->on_process_done(engine_.now(), p);
  if (p.essential_) {
    NOWLB_CHECK(essential_outstanding_ > 0);
    if (--essential_outstanding_ == 0) engine_.stop();
  }
}

void World::run() {
  engine_.run();
  if (sink_) {
    sink_->run_stats(to_seconds(engine_.now()),
                     engine_.dispatched_events());
  }
}

void World::run_until(Time t) { engine_.run_until(t); }

}  // namespace nowlb::sim
