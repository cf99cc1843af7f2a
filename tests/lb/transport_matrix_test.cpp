// Combined-fault matrix for the reliable transport: every non-empty subset
// of {drop, dup, reorder}, across several fault seeds, must still yield
// exactly-once in-order delivery per (source, tag) channel — plus the two
// lifecycle corners that single-fault tests miss: transport teardown while
// retransmit timers are armed, and an effective blackout (delays spanning
// many RTOs) that later recovers.
#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "data/dist_array.hpp"
#include "lb/transport.hpp"
#include "sim/world.hpp"

namespace nowlb::lb {
namespace {

using sim::Bytes;
using sim::Context;
using sim::Pid;
using sim::Task;
using sim::World;
using sim::WorldConfig;

constexpr sim::Tag kDataA = 7;
constexpr sim::Tag kDataB = 8;
constexpr sim::Tag kBye = 9;

struct MatrixCase {
  const char* name;
  bool drop;
  bool dup;
  bool reorder;
  std::uint64_t seed;
};

std::vector<MatrixCase> matrix_cases() {
  std::vector<MatrixCase> cases;
  static const char* kNames[] = {"drop",     "dup",      "reorder",
                                 "drop_dup", "drop_reo", "dup_reo",
                                 "all"};
  static const bool kFlags[][3] = {{1, 0, 0}, {0, 1, 0}, {0, 0, 1},
                                   {1, 1, 0}, {1, 0, 1}, {0, 1, 1},
                                   {1, 1, 1}};
  for (int i = 0; i < 7; ++i) {
    for (std::uint64_t seed : {101u, 202u}) {
      cases.push_back(
          {kNames[i], kFlags[i][0], kFlags[i][1], kFlags[i][2], seed});
    }
  }
  return cases;
}

WorldConfig faulty_world(const MatrixCase& c) {
  WorldConfig cfg;
  cfg.host.context_switch = 0;
  cfg.msg.send_overhead = 0;
  cfg.msg.recv_overhead = 0;
  cfg.net.latency = sim::kMillisecond;
  cfg.net.local_latency = 0;
  cfg.net.header_bytes = 0;
  cfg.net.drop_prob = c.drop ? 0.3 : 0.0;
  cfg.net.dup_prob = c.dup ? 0.25 : 0.0;
  cfg.net.max_extra_delay = c.reorder ? 8 * sim::kMillisecond : 0;
  cfg.net.fault_seed = c.seed;
  cfg.net.fault_tag_lo = kDataA;  // kBye stays on the perfect channel
  cfg.net.fault_tag_hi = kDataB;
  return cfg;
}

TransportConfig enabled_transport() {
  TransportConfig t;
  t.enabled = true;
  return t;
}

class TransportMatrix : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(TransportMatrix, ExactlyOnceInOrderPerSrcAndTag) {
  const MatrixCase& c = GetParam();
  constexpr int kPerChannel = 25;
  World w(faulty_world(c));
  auto& h0 = w.add_host();
  auto& h1 = w.add_host();
  auto& h2 = w.add_host();

  // Delivery log per (src, tag); payload size encodes the send index.
  std::map<std::pair<Pid, sim::Tag>, std::vector<std::size_t>> got;
  int byes = 0;

  Pid rx = w.spawn(h0, "rx", [&](Context& ctx) -> Task<> {
    Transport t(ctx, enabled_transport(), {kDataA, kDataB}, nullptr);
    // 2 senders x 2 tags x kPerChannel messages, interleaved with the
    // senders' byes; keep acking retransmits until both senders drained.
    int data = 0;
    while (data < 4 * kPerChannel || byes < 2) {
      sim::Message m = co_await ctx.recv(sim::kAnyTag);
      if (m.tag == kBye) {
        ++byes;
        continue;
      }
      got[{m.src, m.tag}].push_back(m.payload.size());
      ++data;
    }
  });
  auto sender = [&](Context& ctx) -> Task<> {
    Transport t(ctx, enabled_transport(), {kDataA, kDataB}, nullptr);
    for (int i = 0; i < kPerChannel; ++i) {
      co_await t.send(rx, kDataA, Bytes(static_cast<std::size_t>(i)));
      co_await t.send(rx, kDataB, Bytes(static_cast<std::size_t>(i) + 100));
    }
    co_await t.drain();
    EXPECT_EQ(t.stats().gave_up, 0u);
    co_await ctx.send(rx, kBye, Bytes(0));
  };
  Pid tx1 = w.spawn(h1, "tx1", sender);
  Pid tx2 = w.spawn(h2, "tx2", sender);
  w.run();

  ASSERT_EQ(got.size(), 4u) << c.name << " seed " << c.seed;
  for (Pid src : {tx1, tx2}) {
    for (sim::Tag tag : {kDataA, kDataB}) {
      const auto& log = got[{src, tag}];
      const std::size_t base = tag == kDataA ? 0 : 100;
      ASSERT_EQ(log.size(), static_cast<std::size_t>(kPerChannel))
          << c.name << " seed " << c.seed << " src " << src << " tag " << tag;
      for (int i = 0; i < kPerChannel; ++i) {
        EXPECT_EQ(log[static_cast<std::size_t>(i)],
                  base + static_cast<std::size_t>(i))
            << c.name << " seed " << c.seed << " src " << src << " tag "
            << tag << " position " << i;
      }
    }
  }
}

// Work moves carry their slices as owned buffers through the envelope, the
// retransmit copy and network duplicates. Each move must still land
// exactly once, in order, with its contents intact: the receiving
// DistArray rejects a slice it already holds.
TEST_P(TransportMatrix, BufferCarryingMovesArriveExactlyOnce) {
  const MatrixCase& c = GetParam();
  constexpr int kMoves = 20;
  constexpr std::size_t kLen = 64;
  World w(faulty_world(c));
  auto& h0 = w.add_host();
  auto& h1 = w.add_host();
  data::DistArray<double> src(kLen, kMoves), dst(kLen, kMoves);
  for (data::SliceId id = 0; id < kMoves; ++id) {
    src.add(id, std::vector<double>(kLen, id + 0.5), id);
  }
  std::vector<data::SliceId> order;

  Pid rx = w.spawn(h0, "rx", [&](Context& ctx) -> Task<> {
    Transport t(ctx, enabled_transport(), {kDataA}, nullptr);
    for (int i = 0; i < kMoves; ++i) {
      sim::Message m = co_await ctx.recv(kDataA);
      for (data::SliceId id : dst.unpack_and_add(m.payload)) {
        order.push_back(id);
      }
    }
    co_await ctx.recv(kBye);
  });
  w.spawn(h1, "tx", [&](Context& ctx) -> Task<> {
    Transport t(ctx, enabled_transport(), {kDataA}, nullptr);
    for (data::SliceId id = 0; id < kMoves; ++id) {
      const std::vector<data::SliceId> ids{id};
      co_await t.send(rx, kDataA, src.pack_and_remove(ids));
    }
    co_await t.drain();
    EXPECT_EQ(t.stats().gave_up, 0u);
    co_await ctx.send(rx, kBye, Bytes(0));
  });
  w.run();

  ASSERT_EQ(order.size(), static_cast<std::size_t>(kMoves))
      << c.name << " seed " << c.seed;
  EXPECT_EQ(src.owned_count(), 0);
  for (data::SliceId id = 0; id < kMoves; ++id) {
    EXPECT_EQ(order[static_cast<std::size_t>(id)], id)
        << c.name << " seed " << c.seed;
    EXPECT_EQ(dst.slice(id), std::vector<double>(kLen, id + 0.5));
    EXPECT_EQ(dst.marker(id), id);
  }
}

INSTANTIATE_TEST_SUITE_P(FaultCombos, TransportMatrix,
                         ::testing::ValuesIn(matrix_cases()),
                         [](const auto& pinfo) {
                           return std::string(pinfo.param.name) + "_seed" +
                                  std::to_string(pinfo.param.seed);
                         });

// Destroying a transport while retransmit timers are armed (sender exits
// without draining) must cancel cleanly: no stray timer fires into a dead
// object, and whatever did arrive is still in order without duplicates.
TEST(TransportMatrix, TeardownDuringRetransmitIsClean) {
  MatrixCase c{"all", true, true, true, 303};
  WorldConfig cfg = faulty_world(c);
  cfg.net.drop_prob = 0.5;  // guarantee unacked messages at teardown
  World w(cfg);
  auto& h0 = w.add_host();
  auto& h1 = w.add_host();
  std::vector<std::size_t> got;

  Pid rx = w.spawn(h0, "rx", [&](Context& ctx) -> Task<> {
    Transport t(ctx, enabled_transport(), {kDataA}, nullptr);
    while (true) {
      auto m = co_await ctx.recv_until(kDataA, sim::kAnyPid,
                                       ctx.now() + 200 * sim::kMillisecond);
      if (!m) break;  // sender is gone and the channel went quiet
      got.push_back(m->payload.size());
    }
  });
  w.spawn(h1, "tx", [&](Context& ctx) -> Task<> {
    {
      Transport t(ctx, enabled_transport(), {kDataA}, nullptr);
      for (int i = 0; i < 10; ++i) {
        co_await t.send(rx, kDataA, Bytes(static_cast<std::size_t>(i)));
      }
      // First retransmits are armed now; leave scope without draining.
      co_await ctx.sleep(30 * sim::kMillisecond);
    }
    co_await ctx.sleep(sim::kSecond);  // outlive any stray timer
  });
  w.run();

  // Delivery is a prefix-free ordered subsequence: strictly increasing,
  // starting at 0 (seq 0 can only be lost, never skipped past).
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], i) << "delivered out of order or with a gap";
  }
}

// A network whose delays dwarf the RTO looks like a dead peer for many
// timeouts in a row; with enough retries the channel must recover with
// classic semantics intact once the delay clears.
TEST(TransportMatrix, BlackoutLongDelaysThenRecover) {
  MatrixCase c{"reorder", false, false, true, 404};
  WorldConfig cfg = faulty_world(c);
  cfg.net.max_extra_delay = 120 * sim::kMillisecond;  // many RTOs of silence
  World w(cfg);
  auto& h0 = w.add_host();
  auto& h1 = w.add_host();
  std::vector<std::size_t> got;
  TransportStats tx_stats;

  TransportConfig tcfg = enabled_transport();
  tcfg.rto = 10 * sim::kMillisecond;
  tcfg.max_retries = 20;  // ride out the blackout

  Pid rx = w.spawn(h0, "rx", [&](Context& ctx) -> Task<> {
    Transport t(ctx, tcfg, {kDataA}, nullptr);
    for (int i = 0; i < 20; ++i) {
      sim::Message m = co_await ctx.recv(kDataA);
      got.push_back(m.payload.size());
    }
    co_await ctx.recv(kBye);
  });
  w.spawn(h1, "tx", [&](Context& ctx) -> Task<> {
    Transport t(ctx, tcfg, {kDataA}, nullptr);
    for (int i = 0; i < 20; ++i) {
      co_await t.send(rx, kDataA, Bytes(static_cast<std::size_t>(i)));
    }
    co_await t.drain();
    tx_stats = t.stats();
    co_await ctx.send(rx, kBye, Bytes(0));
  });
  w.run();

  ASSERT_EQ(got.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(got[static_cast<std::size_t>(i)], static_cast<std::size_t>(i));
  }
  // The blackout actually bit: retransmits fired, duplicates were
  // suppressed at the receiver, and nothing was abandoned.
  EXPECT_GT(tx_stats.retransmits, 0u);
  EXPECT_EQ(tx_stats.gave_up, 0u);
}

}  // namespace
}  // namespace nowlb::lb
