// A message payload: a byte stream plus buffers it carries by ownership.
//
// Moved work (DistArray slices) travels as the sender's own std::vectors,
// handed to the receiver, instead of being copied into the byte stream
// and out again. Each owned buffer sits at a byte offset of `bytes`; the
// payload's *logical* stream is `bytes` with every buffer's contents
// spliced in at its offset — exactly the stream a serialising transport
// would carry. size() is that logical size, so modelled wire time does not
// depend on how a payload is held.
//
// A payload without buffers is just its bytes: the empty buffer list
// allocates nothing. Copying a payload (a network duplicate, a retransmit
// copy) deep-copies its buffers; moving it moves them.
#pragma once

#include <any>
#include <cstddef>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/bytes.hpp"
#include "util/check.hpp"

namespace nowlb {

/// A std::vector<T> of trivially copyable T held by a payload, logically
/// placed at byte offset at() of the payload's bytes.
class OwnedBuffer {
 public:
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  OwnedBuffer(std::size_t at, std::vector<T> v)
      : at_(at),
        size_(v.size() * sizeof(T)),
        v_(std::move(v)),
        view_(&view_of<T>) {}

  std::size_t at() const { return at_; }
  void set_at(std::size_t at) { at_ = at; }

  /// Size of the contents in bytes (as made; kept after take()).
  std::size_t size() const { return size_; }

  /// The contents as bytes; null once taken (or when empty).
  const std::byte* data() const { return view_(v_); }

  /// Move the vector out. T must be the element type it was made with; a
  /// buffer can be taken once.
  template <typename T>
  std::vector<T> take() {
    auto* v = std::any_cast<std::vector<T>>(&v_);
    NOWLB_CHECK(v != nullptr, "owned buffer at offset "
                                  << at_ << " was taken or holds another type");
    std::vector<T> out = std::move(*v);
    v_.reset();
    return out;
  }

 private:
  template <typename T>
  static const std::byte* view_of(const std::any& a) {
    const auto* v = std::any_cast<std::vector<T>>(&a);
    return v != nullptr ? reinterpret_cast<const std::byte*>(v->data())
                        : nullptr;
  }

  std::size_t at_;
  std::size_t size_;
  std::any v_;
  const std::byte* (*view_)(const std::any&);
};

struct Payload {
  Payload() = default;
  Payload(Bytes b) : bytes(std::move(b)) {}  // a payload with no buffers

  Bytes bytes;                     // the stream, owned buffers left out
  std::vector<OwnedBuffer> owned;  // ascending offsets into `bytes`

  /// Logical size: the bytes plus every owned buffer.
  std::size_t size() const {
    std::size_t n = bytes.size();
    for (const OwnedBuffer& b : owned) n += b.size();
    return n;
  }
  bool empty() const { return size() == 0; }

  /// The logical stream, each buffer's contents spliced in at its offset.
  Bytes flatten() const {
    Bytes out;
    out.reserve(size());
    std::size_t pos = 0;
    for (const OwnedBuffer& b : owned) {
      NOWLB_CHECK(b.at() >= pos && b.at() <= bytes.size(),
                  "owned buffer offset " << b.at() << " out of order");
      NOWLB_CHECK(b.size() == 0 || b.data() != nullptr,
                  "owned buffer at offset " << b.at() << " was taken");
      out.insert(out.end(), bytes.begin() + static_cast<std::ptrdiff_t>(pos),
                 bytes.begin() + static_cast<std::ptrdiff_t>(b.at()));
      if (b.size() > 0) out.insert(out.end(), b.data(), b.data() + b.size());
      pos = b.at();
    }
    out.insert(out.end(), bytes.begin() + static_cast<std::ptrdiff_t>(pos),
               bytes.end());
    return out;
  }
};

}  // namespace nowlb
