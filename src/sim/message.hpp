// Messages exchanged between simulated processes.
#pragma once

#include <cstdint>

#include "util/bytes.hpp"
#include "util/payload.hpp"

namespace nowlb::sim {

/// Process identifier, unique within a World.
using Pid = int;
inline constexpr Pid kAnyPid = -1;

/// Message tag (like an MPI tag); selects which recv matches.
using Tag = int;
inline constexpr Tag kAnyTag = -1;

using Bytes = nowlb::Bytes;
using Payload = nowlb::Payload;

struct Message {
  Pid src = kAnyPid;
  Pid dst = kAnyPid;
  Tag tag = 0;
  Payload payload;

  /// Wire size used for transmission-time modelling (logical payload size
  /// + header): owned buffers count as if serialised.
  std::size_t wire_size(std::size_t header_bytes) const {
    return payload.size() + header_bytes;
  }
};

}  // namespace nowlb::sim
