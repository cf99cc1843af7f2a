// Collective operations over an explicit process group, built from
// point-to-point messages (the paper's runtime has no hardware collectives;
// LU's pivot distribution and §4.6's broadcast-and-discard use these).
#pragma once

#include <vector>

#include "sim/context.hpp"
#include "util/task.hpp"

namespace nowlb::msg {

/// Broadcast: the root sends `payload` to every other member and everyone
/// returns the broadcast bytes (the root returns its own payload).
/// All members must call this with the same group/root/tag.
sim::Task<sim::Payload> broadcast(sim::Context& ctx,
                                  const std::vector<sim::Pid>& group,
                                  sim::Pid root, sim::Tag tag,
                                  sim::Payload payload = {});

/// Gather: every member sends `mine` to the root; the root returns the
/// payloads ordered as in `group` (its own contribution included),
/// non-roots return an empty vector.
sim::Task<std::vector<sim::Payload>> gather(
    sim::Context& ctx, const std::vector<sim::Pid>& group, sim::Pid root,
    sim::Tag tag, sim::Payload mine);

/// Barrier through a coordinator: everyone reports in, then the coordinator
/// releases the group. Two message rounds; O(N) messages.
sim::Task<> barrier(sim::Context& ctx, const std::vector<sim::Pid>& group,
                    sim::Pid coordinator, sim::Tag tag);

}  // namespace nowlb::msg
