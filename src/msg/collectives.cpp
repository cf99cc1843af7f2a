#include "msg/collectives.hpp"

#include "util/check.hpp"

namespace nowlb::msg {

using sim::Context;
using sim::Message;
using sim::Payload;
using sim::Pid;
using sim::Tag;
using sim::Task;

Task<Payload> broadcast(Context& ctx, const std::vector<Pid>& group,
                        Pid root, Tag tag, Payload payload) {
  if (ctx.pid() == root) {
    for (Pid p : group) {
      if (p == root) continue;
      co_await ctx.send(p, tag, payload);  // payload copied per destination
    }
    co_return payload;
  }
  Message m = co_await ctx.recv(tag, root);
  co_return std::move(m.payload);
}

Task<std::vector<Payload>> gather(Context& ctx,
                                  const std::vector<Pid>& group, Pid root,
                                  Tag tag, Payload mine) {
  if (ctx.pid() != root) {
    co_await ctx.send(root, tag, std::move(mine));
    co_return std::vector<Payload>{};
  }
  std::vector<Payload> out(group.size());
  std::size_t expected = 0;
  for (std::size_t i = 0; i < group.size(); ++i) {
    if (group[i] == root) {
      out[i] = std::move(mine);
    } else {
      ++expected;
    }
  }
  for (std::size_t n = 0; n < expected; ++n) {
    Message m = co_await ctx.recv(tag, sim::kAnyPid);
    bool placed = false;
    for (std::size_t i = 0; i < group.size(); ++i) {
      if (group[i] == m.src) {
        NOWLB_CHECK(out[i].empty() && group[i] != root,
                    "duplicate gather contribution from pid " << m.src);
        out[i] = std::move(m.payload);
        placed = true;
        break;
      }
    }
    NOWLB_CHECK(placed, "gather message from pid " << m.src
                                                   << " outside the group");
  }
  co_return out;
}

Task<> barrier(Context& ctx, const std::vector<Pid>& group, Pid coordinator,
               Tag tag) {
  if (ctx.pid() == coordinator) {
    std::size_t expected = 0;
    for (Pid p : group)
      if (p != coordinator) ++expected;
    for (std::size_t n = 0; n < expected; ++n) {
      co_await ctx.recv(tag, sim::kAnyPid);
    }
    for (Pid p : group) {
      if (p == coordinator) continue;
      co_await ctx.send(p, tag, Payload{});
    }
  } else {
    co_await ctx.send(coordinator, tag, Payload{});
    co_await ctx.recv(tag, coordinator);
  }
}

}  // namespace nowlb::msg
