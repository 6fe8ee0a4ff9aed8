// Immutable prefix index keyed by an address's top 32 bits.
//
// The fault and route planes answer one question per packet: which of the
// scenario's prefixes can contain this address? A linear scan costs a
// prefix test per rule on every datagram, so a packet's cost grows with the
// scenario. BlockIndex answers it with one hash probe instead: every prefix
// of length >= 32 lies inside exactly one /32 block, so each block keeps
// the ids of the prefixes inside it, and the few prefixes shorter than /32
// sit on a separate "wide" list that every lookup also consults. The
// candidates are a superset of the matching prefixes; callers still test
// each one, in ascending id order, so verdicts equal a linear scan's.
//
// Ids live in caller-defined lanes (the fault plane keeps dst-scoped rules,
// src-scoped rules and host outages apart). The index is built once, at
// construction, and lookups are const, lock-free and allocation-free, so
// concurrent shard executors may share one.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/ipv6.hpp"

namespace tts::simnet {

class BlockIndex {
 public:
  using Id = std::uint32_t;
  /// Row of a block no prefix of length >= 32 lies in: every lane empty.
  static constexpr std::uint32_t kNoBlock = 0;

  struct Entry {
    net::Ipv6Prefix prefix;
    std::uint32_t lane = 0;
    Id id = 0;
  };

  /// Index `entries` into `lanes` lanes (every entry's lane < lanes).
  BlockIndex(std::uint32_t lanes, const std::vector<Entry>& entries);

  /// The row of `addr`'s /32 block, kNoBlock when no entry lies in it.
  std::uint32_t block_of(const net::Ipv6Address& addr) const {
    auto key = static_cast<std::uint32_t>(addr.hi64() >> 32);
    for (std::size_t s = slot_hash(key);; s = (s + 1) & slot_mask_) {
      const Slot& slot = slots_[s];
      if (slot.row == kNoBlock || slot.key == key) return slot.row;
    }
  }
  /// Ids in `lane` whose prefix (/32 or longer) lies in block `row`,
  /// ascending, each once.
  std::span<const Id> ids(std::uint32_t row, std::uint32_t lane) const {
    std::size_t at = static_cast<std::size_t>(row) * lanes_ + lane;
    return {ids_.data() + offsets_[at], ids_.data() + offsets_[at + 1]};
  }
  /// Ids in `lane` whose prefix is shorter than /32, ascending, each once.
  std::span<const Id> wide(std::uint32_t lane) const {
    return ids(kWideRow, lane);
  }

 private:
  static constexpr std::uint32_t kWideRow = 1;

  struct Slot {
    std::uint32_t key = 0;
    std::uint32_t row = kNoBlock;  // kNoBlock marks an empty slot
  };

  std::size_t slot_hash(std::uint32_t key) const {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(key) * 0x9e3779b97f4a7c15ULL) >>
        slot_shift_);
  }

  std::uint32_t lanes_ = 1;
  /// Open-addressing table, /32 key -> row; at most half full, so every
  /// probe sequence ends at an empty slot.
  std::vector<Slot> slots_;
  std::size_t slot_mask_ = 0;
  unsigned slot_shift_ = 63;
  /// Row r's lane l ids are ids_[offsets_[r*lanes+l], offsets_[r*lanes+l+1]).
  /// Row kNoBlock is empty, row kWideRow holds the wide lists, blocks follow.
  std::vector<std::uint32_t> offsets_;
  std::vector<Id> ids_;
};

}  // namespace tts::simnet
