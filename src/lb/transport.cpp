#include "lb/transport.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "lb/protocol.hpp"
#include "msg/serialize.hpp"
#include "obs/obs.hpp"
#include "sim/world.hpp"
#include "util/log.hpp"

namespace nowlb::lb {

Transport::Transport(sim::Context& ctx, TransportConfig cfg,
                     std::vector<sim::Tag> reliable_tags,
                     RuntimeHooks* check)
    : ctx_(ctx),
      cfg_(cfg),
      tags_(std::move(reliable_tags)),
      check_(check),
      alive_(std::make_shared<bool>(true)) {
  if (!cfg_.enabled) return;
  if (obs::Observability* o = ctx_.world().obs()) {
    trace_ = &o->trace;
    auto& m = o->metrics;
    m_sent_ = &m.counter("transport_sent", "Reliable messages sent");
    m_retransmits_ =
        &m.counter("transport_retransmits", "Timeout retransmissions");
    m_acks_ = &m.counter("transport_acks_sent", "Acknowledgements sent");
    m_dups_ = &m.counter("transport_dups_suppressed",
                         "Duplicate deliveries suppressed");
    m_held_ = &m.counter("transport_held_reordered",
                         "Out-of-order arrivals held for the gap to close");
    m_gave_up_ =
        &m.counter("transport_gave_up", "Messages abandoned after max retries");
    m_swallowed_ = &m.counter("transport_swallowed_from_dead",
                              "Arrivals swallowed from blackholed peers");
  }
  ctx_.process().mailbox().set_tap(
      [this](sim::Message& m) { return on_message(m); });
  // A crashed host stops transmitting: cancel every retransmit timer the
  // instant the process is killed. The weak_ptr guards the normal-exit
  // case where the transport is destroyed while the process lives on.
  ctx_.process().add_kill_hook(
      [this, alive = std::weak_ptr<bool>(alive_)] {
        if (!alive.expired()) cancel_all_timers();
      });
}

Transport::~Transport() {
  cancel_all_timers();
  if (cfg_.enabled && !ctx_.process().mailbox().closed()) {
    ctx_.process().mailbox().set_tap(nullptr);
  }
}

bool Transport::reliable(sim::Tag tag) const {
  return std::find(tags_.begin(), tags_.end(), tag) != tags_.end();
}

sim::Task<> Transport::send(sim::Pid dst, sim::Tag tag,
                            sim::Payload payload) {
  if (!cfg_.enabled) {
    co_await ctx_.send(dst, tag, std::move(payload));
    co_return;
  }
  if (blackholed(dst)) co_return;
  const Key k{dst, tag};
  const std::uint32_t seq = next_send_seq_[k]++;
  sim::Message m = make_envelope(dst, tag, seq, payload);
  // Charge the sender's software overhead like a plain send, then post
  // the envelope and keep only the payload for retransmission.
  co_await ctx_.compute(ctx_.world().config().msg.send_overhead);
  Pending& p = pending_[k][seq];
  p.payload = std::move(payload);
  ++stats_.sent;
  if (m_sent_ != nullptr) m_sent_->inc();
  post_raw(std::move(m));
  arm_timer(k, seq);
}

sim::Message Transport::make_envelope(sim::Pid dst, sim::Tag tag,
                                      std::uint32_t seq,
                                      const sim::Payload& payload) const {
  msg::Writer w;
  w.reserve(sizeof(seq) + sizeof(std::uint64_t) + payload.bytes.size());
  w.put(seq);
  w.put_bytes(payload);
  sim::Message m;
  m.src = ctx_.pid();
  m.dst = dst;
  m.tag = tag;
  m.payload = w.take();
  return m;
}

void Transport::post_raw(sim::Message m) {
  sim::World& w = ctx_.world();
  sim::Process& target = w.process(m.dst);
  w.network().post(std::move(m), ctx_.process().host().id(), target,
                   target.host().id());
}

void Transport::send_ack(sim::Pid dst, sim::Tag tag, std::uint32_t seq) {
  msg::Writer w;
  w.put(static_cast<std::int32_t>(tag)).put(seq);
  sim::Message ack;
  ack.src = ctx_.pid();
  ack.dst = dst;
  ack.tag = kTagAck;
  ack.payload = w.take();
  ++stats_.acks_sent;
  if (m_acks_ != nullptr) m_acks_->inc();
  if (trace_ != nullptr) {
    trace_->instant(ctx_.now(), ctx_.host_id(), ctx_.pid(), "tx", "tx.ack",
                    {"tag", static_cast<double>(tag)},
                    {"seq", static_cast<double>(seq)},
                    {"dst", static_cast<double>(dst)});
  }
  // Acks are NIC-level: no software overhead, fired straight from the
  // delivery event. They ride the same lossy network as everything else;
  // a lost ack is covered by the peer's retransmit.
  post_raw(std::move(ack));
}

void Transport::arm_timer(Key k, std::uint32_t seq) {
  auto it = pending_.find(k);
  if (it == pending_.end()) return;
  auto jt = it->second.find(seq);
  if (jt == it->second.end()) return;
  const double scale = std::pow(cfg_.backoff, jt->second.attempts);
  const sim::Time delay =
      static_cast<sim::Time>(static_cast<double>(cfg_.rto) * scale);
  jt->second.timer = ctx_.world().engine().schedule_after(
      delay, [this, k, seq] { on_timeout(k, seq); });
}

void Transport::on_timeout(Key k, std::uint32_t seq) {
  auto it = pending_.find(k);
  if (it == pending_.end()) return;
  auto jt = it->second.find(seq);
  if (jt == it->second.end()) return;
  if (blackholed(k.peer)) {
    it->second.erase(jt);
    return;
  }
  Pending& p = jt->second;
  if (p.attempts >= cfg_.max_retries) {
    ++stats_.gave_up;
    if (m_gave_up_ != nullptr) m_gave_up_->inc();
    if (trace_ != nullptr) {
      trace_->instant(ctx_.now(), ctx_.host_id(), ctx_.pid(), "tx",
                      "tx.gave_up", {"tag", static_cast<double>(k.tag)},
                      {"seq", static_cast<double>(seq)},
                      {"peer", static_cast<double>(k.peer)});
    }
    NOWLB_LOG(Debug, "lb.transport")
        << "pid " << ctx_.pid() << " gave up on tag " << k.tag << " seq "
        << seq << " -> pid " << k.peer;
    if (check_) {
      check_->on_transport_gave_up(ctx_.now(), ctx_.pid(), k.peer, k.tag);
    }
    it->second.erase(jt);
    return;
  }
  ++p.attempts;
  ++stats_.retransmits;
  if (m_retransmits_ != nullptr) m_retransmits_->inc();
  if (trace_ != nullptr) {
    trace_->instant(ctx_.now(), ctx_.host_id(), ctx_.pid(), "tx",
                    "tx.retransmit", {"tag", static_cast<double>(k.tag)},
                    {"seq", static_cast<double>(seq)},
                    {"attempt", static_cast<double>(p.attempts)});
  }
  post_raw(make_envelope(k.peer, k.tag, seq, p.payload));
  arm_timer(k, seq);
}

bool Transport::on_message(sim::Message& m) {
  if (m.tag == kTagAck) {
    msg::Reader r(m.payload);
    const sim::Tag tag = r.get<std::int32_t>();
    const auto seq = r.get<std::uint32_t>();
    const Key k{m.src, tag};
    auto it = pending_.find(k);
    if (it != pending_.end()) {
      auto jt = it->second.find(seq);
      if (jt != it->second.end()) {
        ctx_.world().engine().cancel(jt->second.timer);
        it->second.erase(jt);
      }
    }
    return true;  // acks never reach the application
  }
  if (!reliable(m.tag)) return false;
  if (blackholed(m.src)) {
    ++stats_.swallowed_from_dead;
    if (m_swallowed_ != nullptr) m_swallowed_->inc();
    return true;
  }
  msg::Reader r(m.payload);
  const auto seq = r.get<std::uint32_t>();
  sim::Payload payload = r.get_bytes();
  // Ack every arrival, duplicates included: the first ack may have been
  // lost and the peer is still retransmitting.
  send_ack(m.src, m.tag, seq);
  const Key k{m.src, m.tag};
  std::uint32_t& expect = next_recv_seq_[k];
  if (seq < expect) {
    ++stats_.dups_suppressed;
    if (m_dups_ != nullptr) m_dups_->inc();
    return true;
  }
  sim::Message stripped;
  stripped.src = m.src;
  stripped.dst = m.dst;
  stripped.tag = m.tag;
  stripped.payload = std::move(payload);
  if (seq > expect) {
    // Gap: hold until the missing predecessors arrive (retransmission).
    if (held_[k].emplace(seq, std::move(stripped)).second) {
      ++stats_.held_reordered;
      if (m_held_ != nullptr) m_held_->inc();
    } else {
      ++stats_.dups_suppressed;
      if (m_dups_ != nullptr) m_dups_->inc();
    }
    return true;
  }
  deliver_async(std::move(stripped), seq);
  ++expect;
  auto ht = held_.find(k);
  if (ht != held_.end()) {
    auto& gaps = ht->second;
    for (auto g = gaps.find(expect); g != gaps.end();
         g = gaps.find(expect)) {
      deliver_async(std::move(g->second), expect);
      gaps.erase(g);
      ++expect;
    }
  }
  return true;
}

void Transport::deliver_async(sim::Message m, std::uint32_t seq) {
  sim::Mailbox* mb = &ctx_.process().mailbox();
  RuntimeHooks* check = check_;
  const sim::Pid src = m.src;
  const sim::Pid dst = m.dst;
  const int tag = m.tag;
  const sim::Time t = ctx_.now();
  ctx_.world().engine().schedule_at(
      t, [mb, check, src, dst, tag, seq, t, msg = std::move(m)]() mutable {
        if (check) check->on_transport_deliver(t, src, dst, tag, seq);
        mb->deliver(std::move(msg));
      });
}

bool Transport::has_pending() const {
  for (const auto& [k, seqs] : pending_) {
    if (!seqs.empty()) return true;
  }
  return false;
}

sim::Task<> Transport::drain() {
  if (!cfg_.enabled) co_return;
  // Acks are consumed by the tap, not this coroutine, so polling suffices;
  // the retransmit timers keep firing while we sleep. Bounded: every
  // pending entry is erased on ack, blackhole, or retry exhaustion.
  const sim::Time t0 = ctx_.now();
  const bool waited = has_pending();
  while (has_pending()) co_await ctx_.sleep(cfg_.rto / 2);
  if (waited && trace_ != nullptr) {
    trace_->complete(t0, ctx_.now(), ctx_.host_id(), ctx_.pid(), "tx",
                     "tx.drain");
  }
}

void Transport::cancel_all_timers() {
  sim::Engine& eng = ctx_.world().engine();
  for (auto& [k, seqs] : pending_) {
    for (auto& [seq, p] : seqs) eng.cancel(p.timer);
  }
  pending_.clear();
}

void Transport::blackhole(sim::Pid pid) {
  if (!dead_.insert(pid).second) return;
  if (trace_ != nullptr) {
    trace_->instant(ctx_.now(), ctx_.host_id(), ctx_.pid(), "tx",
                    "tx.blackhole", {"peer", static_cast<double>(pid)});
  }
  sim::Engine& eng = ctx_.world().engine();
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (it->first.peer == pid) {
      for (auto& [seq, p] : it->second) eng.cancel(p.timer);
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = held_.begin(); it != held_.end();) {
    if (it->first.peer == pid) {
      it = held_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace nowlb::lb
