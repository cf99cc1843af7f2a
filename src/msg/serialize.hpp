// Byte-archive serialization for message payloads.
//
// Writer appends fields to a Payload; Reader extracts them in the same
// order, bounds-checked so a malformed or misrouted message throws instead
// of reading garbage. Only trivially copyable value types, strings, and
// vectors thereof are supported — protocol structs compose these.
//
// A vector can also be handed over by ownership (put_owned / take_owned):
// it rides in the payload as an owned buffer at its place in the logical
// stream (util/payload.hpp), so moved work is never copied. Every size a
// Writer or Reader reports is logical.
#pragma once

#include <cstring>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/bytes.hpp"
#include "util/check.hpp"
#include "util/payload.hpp"

namespace nowlb::msg {

using Bytes = nowlb::Bytes;
using Payload = nowlb::Payload;

class Writer {
 public:
  /// A fixed-size field. For a few bytes, growing the stream and copying
  /// in is cheaper than the range insert append() uses.
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  Writer& put(const T& v) {
    const std::size_t old = out_.bytes.size();
    out_.bytes.resize(old + sizeof(T));
    std::memcpy(out_.bytes.data() + old, &v, sizeof(T));
    return *this;
  }

  Writer& put(const std::string& s) {
    put<std::uint64_t>(s.size());
    append(s.data(), s.size());
    return *this;
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  Writer& put_vec(const std::vector<T>& v) {
    put<std::uint64_t>(v.size());
    append(v.data(), v.size() * sizeof(T));
    return *this;
  }

  /// put_vec without the copy: the element count goes into the stream and
  /// `v` itself follows it as an owned buffer. Read with take_owned<T>.
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  Writer& put_owned(std::vector<T> v) {
    put<std::uint64_t>(v.size());
    out_.owned.emplace_back(out_.bytes.size(), std::move(v));
    return *this;
  }

  /// A nested payload behind its u64 logical size. Its bytes are copied;
  /// its owned buffers are copied from an lvalue and moved from an rvalue.
  Writer& put_bytes(const Payload& p) {
    const std::size_t base = put_stream(p);
    for (const OwnedBuffer& b : p.owned) {
      out_.owned.push_back(b);
      out_.owned.back().set_at(base + b.at());
    }
    return *this;
  }
  Writer& put_bytes(Payload&& p) {
    const std::size_t base = put_stream(p);
    for (OwnedBuffer& b : p.owned) {
      b.set_at(base + b.at());
      out_.owned.push_back(std::move(b));
    }
    return *this;
  }

  /// Pre-size the byte stream when the caller knows its size (or a good
  /// bound) up front, avoiding growth reallocations on the hot path. Owned
  /// buffers take no room in it.
  Writer& reserve(std::size_t n) {
    out_.bytes.reserve(out_.bytes.size() + n);
    return *this;
  }

  /// Logical size written so far.
  std::size_t size() const { return out_.size(); }
  Payload take() { return std::move(out_); }

 private:
  /// Append a range in one step, without zero-filling it first.
  void append(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::byte*>(p);
    out_.bytes.insert(out_.bytes.end(), b, b + n);
  }
  /// Length prefix and bytes of `p`; returns where its bytes start.
  std::size_t put_stream(const Payload& p) {
    put<std::uint64_t>(p.size());
    const std::size_t base = out_.bytes.size();
    append(p.bytes.data(), p.bytes.size());
    return base;
  }
  Payload out_;
};

class Reader {
 public:
  explicit Reader(const Bytes& buf) : buf_(buf), limit_(buf.size()) {}
  /// Reads a payload's logical stream; take_owned needs the mutable form.
  explicit Reader(const Payload& p) : buf_(p.bytes), owned_(&p.owned) {
    for (const OwnedBuffer& b : p.owned) owned_left_ += b.size();
    next_buffer(0);
  }
  explicit Reader(Payload& p) : Reader(std::as_const(p)) {
    takeable_ = &p.owned;
  }
  Reader(Bytes&&) = delete;
  Reader(Payload&&) = delete;

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  T get() {
    T v{};
    extract(&v, sizeof(T));
    return v;
  }

  std::string get_string() {
    const auto n = get<std::uint64_t>();
    check_available(n);
    std::string s(reinterpret_cast<const char*>(buf_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  std::vector<T> get_vec() {
    const auto n = get<std::uint64_t>();
    check_available(n * sizeof(T));
    std::vector<T> v(n);
    if (n) std::memcpy(v.data(), buf_.data() + pos_, n * sizeof(T));
    pos_ += n * sizeof(T);
    return v;
  }

  /// The vector a put_owned wrote, adopted without a copy.
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  std::vector<T> take_owned() {
    const auto n = get<std::uint64_t>();
    NOWLB_CHECK(takeable_ != nullptr && next_ < takeable_->size() &&
                    (*takeable_)[next_].at() == pos_,
                "no owned buffer at offset " << pos_);
    OwnedBuffer& b = (*takeable_)[next_];
    NOWLB_CHECK(b.size() == n * sizeof(T), "owned buffer of " << b.size()
                                               << " bytes, prefix says "
                                               << n << " elements");
    std::vector<T> v = b.take<T>();
    owned_left_ -= b.size();
    next_buffer(next_ + 1);
    return v;
  }

  /// A nested payload written by Writer::put_bytes, with the owned buffers
  /// inside it (moved out when this reader may take them, else copied).
  Payload get_bytes() {
    const auto n = get<std::uint64_t>();
    // Buffers lying wholly inside the next n logical bytes belong to it.
    std::size_t end = next_;
    std::size_t inside = 0;
    while (owned_ != nullptr && end < owned_->size() &&
           (*owned_)[end].at() - pos_ + inside + (*owned_)[end].size() <= n) {
      inside += (*owned_)[end].size();
      ++end;
    }
    const std::size_t m = n - inside;
    const std::size_t limit =
        owned_ != nullptr && end < owned_->size() ? (*owned_)[end].at()
                                                  : buf_.size();
    NOWLB_CHECK(m <= limit - pos_, "payload truncated: need "
                                       << n << " bytes, have " << remaining());
    Payload p(Bytes(buf_.begin() + static_cast<std::ptrdiff_t>(pos_),
                    buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + m)));
    for (std::size_t i = next_; i < end; ++i) {
      if (takeable_ != nullptr) {
        p.owned.push_back(std::move((*takeable_)[i]));
      } else {
        p.owned.push_back((*owned_)[i]);
      }
      p.owned.back().set_at(p.owned.back().at() - pos_);
    }
    pos_ += m;
    owned_left_ -= inside;
    next_buffer(end);
    return p;
  }

  /// Logical bytes left, owned buffers included.
  std::size_t remaining() const { return buf_.size() - pos_ + owned_left_; }
  bool done() const {
    return pos_ == buf_.size() &&
           (owned_ == nullptr || next_ == owned_->size());
  }

 private:
  /// Make buffer `i` the next one; plain reads stop at its offset.
  void next_buffer(std::size_t i) {
    next_ = i;
    limit_ = owned_ != nullptr && i < owned_->size() ? (*owned_)[i].at()
                                                     : buf_.size();
  }
  void check_available(std::size_t n) const {
    NOWLB_CHECK(n <= limit_ - pos_,
                "payload truncated: need "
                    << n << " bytes, have " << limit_ - pos_
                    << (limit_ < buf_.size() ? " before an owned buffer" : ""));
  }
  void extract(void* p, std::size_t n) {
    check_available(n);
    std::memcpy(p, buf_.data() + pos_, n);
    pos_ += n;
  }

  const Bytes& buf_;
  const std::vector<OwnedBuffer>* owned_ = nullptr;
  std::vector<OwnedBuffer>* takeable_ = nullptr;  // null: read-only
  std::size_t pos_ = 0;
  std::size_t next_ = 0;    // index of the next owned buffer
  std::size_t limit_ = 0;   // where plain reads must stop
  std::size_t owned_left_ = 0;
};

/// Serialize-then-send convenience: any struct with `void encode(Writer&)`.
template <typename T>
concept Encodable = requires(const T& t, Writer& w) { t.encode(w); };

/// Decode convenience: any struct with `static T decode(Reader&)`.
template <typename T>
concept Decodable = requires(Reader& r) {
  { T::decode(r) } -> std::same_as<T>;
};

template <Encodable T>
Payload encode(const T& value) {
  Writer w;
  value.encode(w);
  return w.take();
}

/// encode() with a pre-sized buffer; pair with the struct's encoded_size().
template <Encodable T>
Payload encode(const T& value, std::size_t size_hint) {
  Writer w;
  w.reserve(size_hint);
  value.encode(w);
  return w.take();
}

template <Decodable T>
T decode(const Payload& payload) {
  Reader r(payload);
  T v = T::decode(r);
  return v;
}

}  // namespace nowlb::msg
