// Open-addressing hash containers for 32-bit address keys.
//
// The translation tables sit on the emulator's per-instruction hot path
// (RPC<->UPC lookups on every fetch and every control transfer), where
// std::unordered_map's node allocation and pointer chasing dominate.
// FlatMap32/FlatSet32 store entries inline in a power-of-two slot array
// with linear probing: a lookup is one multiply-shift hash, one array
// index, and (almost always) zero or one extra probe.
//
// Iteration order is slot order, which is a pure function of the inserted
// keys — deterministic across platforms and standard libraries, unlike
// unordered_map. store_tables() and the VXE serializer rely on this.
//
// FlatMap32 supports erase (backward-shift deletion, no tombstones) so
// the incremental re-randomizer can retire individual derand entries in
// place; FlatSet32 remains insert/lookup only.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

namespace vcfr::binary {

/// 32-bit mix (xorshift-multiply); also spreads the serialized table keys
/// over buckets (see table_entry_addr in loader.cpp).
inline uint32_t mix32(uint32_t x) {
  x ^= x >> 16;
  x *= 0x7feb352du;
  x ^= x >> 15;
  x *= 0x846ca68bu;
  x ^= x >> 16;
  return x;
}

/// The first index at or after `i` whose occupancy flag is set, or
/// `used.size()`. Scans eight flags per step: at the tables' ~50-75%
/// occupancy a flag-by-flag loop mispredicts on about every other slot.
inline size_t next_used(const std::vector<uint8_t>& used, size_t i) {
  const size_t n = used.size();
  for (; i + 8 <= n; i += 8) {
    uint64_t word = 0;
    std::memcpy(&word, used.data() + i, sizeof word);
    if (word == 0) continue;
    if constexpr (std::endian::native == std::endian::little) {
      return i + static_cast<size_t>(std::countr_zero(word)) / 8;
    } else {
      return i + static_cast<size_t>(std::countl_zero(word)) / 8;
    }
  }
  while (i < n && used[i] == 0) ++i;
  return i;
}

/// Open-addressing uint32 -> uint32 map with backward-shift erase.
class FlatMap32 {
 public:
  using value_type = std::pair<uint32_t, uint32_t>;

  class const_iterator {
   public:
    const_iterator() = default;

    const value_type& operator*() const { return map_->slots_[idx_]; }
    const value_type* operator->() const { return &map_->slots_[idx_]; }
    const_iterator& operator++() {
      ++idx_;
      skip();
      return *this;
    }
    bool operator==(const const_iterator& o) const { return idx_ == o.idx_; }
    bool operator!=(const const_iterator& o) const { return idx_ != o.idx_; }

   private:
    friend class FlatMap32;
    const_iterator(const FlatMap32* map, size_t idx) : map_(map), idx_(idx) {
      skip();
    }
    void skip() { idx_ = next_used(map_->used_, idx_); }
    const FlatMap32* map_ = nullptr;
    size_t idx_ = 0;
  };

  [[nodiscard]] size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  [[nodiscard]] const_iterator begin() const { return {this, 0}; }
  [[nodiscard]] const_iterator end() const { return {this, used_.size()}; }

  /// The hot-path probe: a pointer to the value, or nullptr when absent.
  [[nodiscard]] const uint32_t* lookup(uint32_t key) const {
    if (size_ == 0) return nullptr;
    size_t idx = mix32(key) & mask_;
    while (used_[idx] != 0) {
      if (slots_[idx].first == key) return &slots_[idx].second;
      idx = (idx + 1) & mask_;
    }
    return nullptr;
  }

  [[nodiscard]] bool contains(uint32_t key) const {
    return lookup(key) != nullptr;
  }

  [[nodiscard]] const_iterator find(uint32_t key) const {
    if (size_ == 0) return end();
    size_t idx = mix32(key) & mask_;
    while (used_[idx] != 0) {
      if (slots_[idx].first == key) return {this, idx};
      idx = (idx + 1) & mask_;
    }
    return end();
  }

  /// Inserts when absent (like unordered_map::emplace — never overwrites).
  /// Returns true when a new entry was created.
  bool emplace(uint32_t key, uint32_t value) {
    grow_for(size_ + 1);
    size_t idx = mix32(key) & mask_;
    while (used_[idx] != 0) {
      if (slots_[idx].first == key) return false;
      idx = (idx + 1) & mask_;
    }
    used_[idx] = 1;
    slots_[idx] = {key, value};
    ++size_;
    return true;
  }

  uint32_t& operator[](uint32_t key) {
    grow_for(size_ + 1);
    size_t idx = mix32(key) & mask_;
    while (used_[idx] != 0) {
      if (slots_[idx].first == key) return slots_[idx].second;
      idx = (idx + 1) & mask_;
    }
    used_[idx] = 1;
    slots_[idx] = {key, 0};
    ++size_;
    return slots_[idx].second;
  }

  /// Backward-shift deletion: no tombstones, so probe chains stay exactly
  /// as a fresh insert-only build would lay them out — iteration order
  /// after an erase is still a pure function of the surviving keys'
  /// insertion history, keeping serialized table renderings deterministic.
  bool erase(uint32_t key) {
    if (size_ == 0) return false;
    size_t idx = mix32(key) & mask_;
    while (used_[idx] != 0 && slots_[idx].first != key) {
      idx = (idx + 1) & mask_;
    }
    if (used_[idx] == 0) return false;
    size_t hole = idx;
    size_t next = (hole + 1) & mask_;
    while (used_[next] != 0) {
      const size_t home = mix32(slots_[next].first) & mask_;
      if (((next - home) & mask_) >= ((next - hole) & mask_)) {
        slots_[hole] = slots_[next];
        hole = next;
      }
      next = (next + 1) & mask_;
    }
    used_[hole] = 0;
    slots_[hole] = {};
    --size_;
    return true;
  }

  void reserve(size_t n) { grow_for(n); }

  /// Replaces every value v with f(v). Keys, slots and iteration order
  /// stay as they are.
  template <class F>
  void transform_values(F f) {
    for (size_t i = 0; i < used_.size(); ++i) {
      if (used_[i] != 0) slots_[i].second = f(slots_[i].second);
    }
  }

  void clear() {
    slots_.clear();
    used_.clear();
    mask_ = 0;
    size_ = 0;
  }

  /// Set equality (iteration order does not matter).
  bool operator==(const FlatMap32& o) const {
    if (size_ != o.size_) return false;
    for (const auto& [k, v] : *this) {
      const uint32_t* ov = o.lookup(k);
      if (ov == nullptr || *ov != v) return false;
    }
    return true;
  }

 private:
  void grow_for(size_t n) {
    // Rehash at 3/4 occupancy so linear probes stay short.
    if (n * 4 <= slots_.size() * 3) return;
    size_t cap = slots_.size() == 0 ? 16 : slots_.size() * 2;
    while (n * 4 > cap * 3) cap *= 2;
    std::vector<value_type> old_slots = std::move(slots_);
    std::vector<uint8_t> old_used = std::move(used_);
    slots_.assign(cap, {});
    used_.assign(cap, 0);
    mask_ = cap - 1;
    for (size_t i = 0; i < old_used.size(); ++i) {
      if (old_used[i] == 0) continue;
      size_t idx = mix32(old_slots[i].first) & mask_;
      while (used_[idx] != 0) idx = (idx + 1) & mask_;
      used_[idx] = 1;
      slots_[idx] = old_slots[i];
    }
  }

  std::vector<value_type> slots_;
  std::vector<uint8_t> used_;
  size_t mask_ = 0;
  size_t size_ = 0;
};

/// Open-addressing set of uint32 keys (insert/lookup only, no erase).
class FlatSet32 {
 public:
  class const_iterator {
   public:
    const_iterator() = default;

    uint32_t operator*() const { return set_->slots_[idx_]; }
    const_iterator& operator++() {
      ++idx_;
      skip();
      return *this;
    }
    bool operator==(const const_iterator& o) const { return idx_ == o.idx_; }
    bool operator!=(const const_iterator& o) const { return idx_ != o.idx_; }

   private:
    friend class FlatSet32;
    const_iterator(const FlatSet32* set, size_t idx) : set_(set), idx_(idx) {
      skip();
    }
    void skip() { idx_ = next_used(set_->used_, idx_); }
    const FlatSet32* set_ = nullptr;
    size_t idx_ = 0;
  };

  [[nodiscard]] size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  [[nodiscard]] const_iterator begin() const { return {this, 0}; }
  [[nodiscard]] const_iterator end() const { return {this, used_.size()}; }

  [[nodiscard]] bool contains(uint32_t key) const {
    if (size_ == 0) return false;
    size_t idx = mix32(key) & mask_;
    while (used_[idx] != 0) {
      if (slots_[idx] == key) return true;
      idx = (idx + 1) & mask_;
    }
    return false;
  }

  /// Returns true when a new element was inserted.
  bool insert(uint32_t key) {
    grow_for(size_ + 1);
    size_t idx = mix32(key) & mask_;
    while (used_[idx] != 0) {
      if (slots_[idx] == key) return false;
      idx = (idx + 1) & mask_;
    }
    used_[idx] = 1;
    slots_[idx] = key;
    ++size_;
    return true;
  }

  void reserve(size_t n) { grow_for(n); }

  void clear() {
    slots_.clear();
    used_.clear();
    mask_ = 0;
    size_ = 0;
  }

  bool operator==(const FlatSet32& o) const {
    if (size_ != o.size_) return false;
    for (const uint32_t k : *this) {
      if (!o.contains(k)) return false;
    }
    return true;
  }

 private:
  void grow_for(size_t n) {
    if (n * 4 <= slots_.size() * 3) return;
    size_t cap = slots_.size() == 0 ? 16 : slots_.size() * 2;
    while (n * 4 > cap * 3) cap *= 2;
    std::vector<uint32_t> old_slots = std::move(slots_);
    std::vector<uint8_t> old_used = std::move(used_);
    slots_.assign(cap, 0);
    used_.assign(cap, 0);
    mask_ = cap - 1;
    for (size_t i = 0; i < old_used.size(); ++i) {
      if (old_used[i] == 0) continue;
      size_t idx = mix32(old_slots[i]) & mask_;
      while (used_[idx] != 0) idx = (idx + 1) & mask_;
      used_[idx] = 1;
      slots_[idx] = old_slots[i];
    }
  }

  std::vector<uint32_t> slots_;
  std::vector<uint8_t> used_;
  size_t mask_ = 0;
  size_t size_ = 0;
};

}  // namespace vcfr::binary
