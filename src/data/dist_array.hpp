// DistArray<T>: a slave's local portion of a 1-D-distributed 2-D array.
//
// The array is distributed by slices (e.g. columns); each slice is a fixed-
// length vector of T. Because load balancing moves slices at run time, the
// local portion is not a contiguous block: slices are reached through the
// owned-index structure — the paper's "extra level of indirection" (§4.5).
// Here that level is a flat slot table indexed by slice id, sized once from
// the global extent so slots never move, plus the sorted list of owned ids
// (iteration is always in id order, which keeps runs deterministic).
//
// Each slice carries an application-defined integer `marker`, used by
// pipelined applications (SOR) to track how far a moved slice has been
// computed, enabling the catch-up / set-aside reconciliation of §4.5.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "data/ownership.hpp"
#include "data/slice.hpp"
#include "msg/serialize.hpp"
#include "util/check.hpp"

namespace nowlb::data {

template <typename T>
class DistArray {
 public:
  /// An array of slices of `slice_len` elements with ids in [0, extent).
  /// References returned by slice() stay valid until that slice is removed.
  DistArray(std::size_t slice_len, SliceId extent)
      : slice_len_(slice_len),
        slots_(static_cast<std::size_t>(std::max<SliceId>(extent, 0))) {}

  std::size_t slice_len() const { return slice_len_; }

  /// Tag this array with its owner's rank so slice add/remove events reach
  /// the active ownership ledger (src/check). Untagged arrays (ghost
  /// buffers, scratch copies) stay invisible to the checkers.
  void enable_ownership_checks(int rank) { check_rank_ = rank; }

  bool owns(SliceId s) const { return in_extent(s) && slots_[s].present; }
  int owned_count() const { return static_cast<int>(ids_.size()); }

  /// Add a slice with the given contents (used at initial distribution and
  /// when receiving moved work).
  void add(SliceId id, std::vector<T> contents, int marker = 0) {
    NOWLB_CHECK(in_extent(id),
                "slice " << id << " outside extent " << slots_.size());
    NOWLB_CHECK(contents.size() == slice_len_,
                "slice " << id << " has wrong length " << contents.size());
    Slot& s = slots_[id];
    NOWLB_CHECK(!s.present, "slice " << id << " already present");
    s.data = std::move(contents);
    s.marker = marker;
    s.present = true;
    ids_.insert(std::upper_bound(ids_.begin(), ids_.end(), id), id);
    if (check_rank_ >= 0) {
      if (SliceLedger* ledger = active_slice_ledger()) {
        ledger->on_slice_added(check_rank_, id);
      }
    }
  }

  /// Remove a slice and return its contents (used when sending work away).
  std::pair<std::vector<T>, int> remove(SliceId id) {
    Slot& s = local(id);
    auto result = std::make_pair(std::move(s.data), s.marker);
    release(id);
    ids_.erase(std::lower_bound(ids_.begin(), ids_.end(), id));
    return result;
  }

  std::vector<T>& slice(SliceId id) { return local(id).data; }
  const std::vector<T>& slice(SliceId id) const { return local(id).data; }

  int marker(SliceId id) const { return local(id).marker; }
  void set_marker(SliceId id, int m) { local(id).marker = m; }

  /// Sorted ids of locally held slices. The view changes with every add
  /// and remove; copy it to keep a snapshot across them.
  const std::vector<SliceId>& owned_ids() const { return ids_; }

  /// Serialize the given slices (removing them) into a movement payload:
  /// u32 count, then per slice i32 id, i32 marker and the u64-prefixed
  /// contents.
  msg::Bytes pack_and_remove(const std::vector<SliceId>& ids) {
    msg::Writer w;
    w.reserve(packed_size(ids));
    pack_body(ids, w);
    return w.take();
  }

  /// The same payload written into `w` as one u64-length-prefixed block
  /// (the layout of Writer::put_bytes), so a caller composing a larger
  /// message copies each slice once, straight from its slot.
  void pack_and_remove(const std::vector<SliceId>& ids, msg::Writer& w) {
    const std::size_t size = packed_size(ids);
    w.reserve(sizeof(std::uint64_t) + size);
    w.put<std::uint64_t>(size);
    pack_body(ids, w);
  }

  /// Integrate a movement payload produced by pack_and_remove; returns the
  /// ids received (already added to the local set).
  std::vector<SliceId> unpack_and_add(const msg::Bytes& payload) {
    msg::Reader r(payload);
    return unpack_body(r);
  }

  /// Integrate a length-prefixed block written by the Writer& overload of
  /// pack_and_remove, reading it in place from `r`.
  std::vector<SliceId> unpack_and_add(msg::Reader& r) {
    const auto size = r.get<std::uint64_t>();
    NOWLB_CHECK(size <= r.remaining(), "slice block of " << size
                                           << " bytes, only "
                                           << r.remaining() << " left");
    const std::size_t rest = r.remaining() - size;
    auto ids = unpack_body(r);
    NOWLB_CHECK(r.remaining() == rest,
                "slice block length " << size << " does not match contents");
    return ids;
  }

 private:
  struct Slot {
    std::vector<T> data;
    int marker = 0;
    bool present = false;
  };

  bool in_extent(SliceId s) const {
    return s >= 0 && static_cast<std::size_t>(s) < slots_.size();
  }
  Slot& local(SliceId id) {
    NOWLB_CHECK(owns(id), "slice " << id << " not local");
    return slots_[id];
  }
  const Slot& local(SliceId id) const {
    NOWLB_CHECK(owns(id), "slice " << id << " not local");
    return slots_[id];
  }

  /// Empty slot `id` (freeing its storage) and report the removal; the
  /// caller drops the id from ids_.
  void release(SliceId id) {
    Slot& s = slots_[id];
    s.data = std::vector<T>();
    s.marker = 0;
    s.present = false;
    if (check_rank_ >= 0) {
      if (SliceLedger* ledger = active_slice_ledger()) {
        ledger->on_slice_removed(check_rank_, id);
      }
    }
  }

  /// Encoded size of pack_body(ids); also checks every id is local, so a
  /// bad id throws before anything is removed.
  std::size_t packed_size(const std::vector<SliceId>& ids) const {
    std::size_t n = sizeof(std::uint32_t);
    for (SliceId id : ids) {
      n += 2 * sizeof(std::int32_t) + sizeof(std::uint64_t) +
           local(id).data.size() * sizeof(T);
    }
    return n;
  }

  void pack_body(const std::vector<SliceId>& ids, msg::Writer& w) {
    w.put<std::uint32_t>(static_cast<std::uint32_t>(ids.size()));
    for (SliceId id : ids) {
      const Slot& s = local(id);
      w.put<std::int32_t>(id);
      w.put<std::int32_t>(s.marker);
      w.put_vec(s.data);
      release(id);
    }
    std::erase_if(ids_, [this](SliceId id) { return !slots_[id].present; });
  }

  std::vector<SliceId> unpack_body(msg::Reader& r) {
    const auto n = r.get<std::uint32_t>();
    std::vector<SliceId> ids;
    ids.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      const auto id = r.get<std::int32_t>();
      const auto marker = r.get<std::int32_t>();
      add(id, r.get_vec<T>(), marker);
      ids.push_back(id);
    }
    return ids;
  }

  std::size_t slice_len_;
  int check_rank_ = -1;  // < 0: ownership events not reported
  std::vector<Slot> slots_;      // indexed by slice id; never resized
  std::vector<SliceId> ids_;     // owned ids, ascending
};

}  // namespace nowlb::data
