#include "simnet/block_index.hpp"

#include <algorithm>
#include <cassert>
#include <map>

namespace tts::simnet {

BlockIndex::BlockIndex(std::uint32_t lanes,
                       const std::vector<Entry>& entries)
    : lanes_(lanes) {
  assert(lanes >= 1);
  // Per-lane id lists for the wide row and every /32 block, gathered in an
  // ordered map so the compiled rows are a pure function of the entries.
  using Lists = std::vector<std::vector<Id>>;
  Lists wide(lanes);
  std::map<std::uint32_t, Lists> blocks;
  for (const Entry& e : entries) {
    assert(e.lane < lanes);
    if (e.prefix.length() < 32) {
      wide[e.lane].push_back(e.id);
      continue;
    }
    auto key = static_cast<std::uint32_t>(e.prefix.address().hi64() >> 32);
    auto [it, inserted] = blocks.try_emplace(key);
    if (inserted) it->second.resize(lanes);
    it->second[e.lane].push_back(e.id);
  }

  offsets_.push_back(0);
  auto add_row = [&](Lists& row) {
    for (std::vector<Id>& list : row) {
      std::sort(list.begin(), list.end());
      list.erase(std::unique(list.begin(), list.end()), list.end());
      ids_.insert(ids_.end(), list.begin(), list.end());
      offsets_.push_back(static_cast<std::uint32_t>(ids_.size()));
    }
  };
  Lists none(lanes);
  add_row(none);  // kNoBlock
  add_row(wide);  // kWideRow

  // Size the table to at most half full (at least 2 slots).
  unsigned bits = 1;
  while ((std::size_t{1} << bits) < 2 * blocks.size()) ++bits;
  slots_.resize(std::size_t{1} << bits);
  slot_mask_ = slots_.size() - 1;
  slot_shift_ = 64 - bits;
  std::uint32_t row = kWideRow;
  for (auto& [key, lists] : blocks) {
    add_row(lists);
    std::size_t s = slot_hash(key);
    while (slots_[s].row != kNoBlock) s = (s + 1) & slot_mask_;
    slots_[s] = Slot{key, ++row};
  }
}

}  // namespace tts::simnet
