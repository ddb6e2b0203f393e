// Spare nodes of a node-based map, kept for reuse.
//
// Per-flow state in the stack (fq flow queues, the NIC's per-flow ring
// bytes) lives in an unordered_map that holds only *active* flows, so an
// entry is erased whenever its flow drains and rebuilt when it sends again.
// For a flow that drains after every burst, that is a heap free and
// malloc per activation. NodeFreelist parks a drained entry's node
// (`extract`) instead of freeing it and re-keys it for the next new flow,
// so after warm-up activation costs no allocation. The list never holds
// more nodes than the peak number of entries the map had at once.
#pragma once

#include <utility>
#include <vector>

namespace stob::util {

template <typename Map>
class NodeFreelist {
 public:
  using iterator = typename Map::iterator;

  /// Entry for `key`, inserted if absent. A new entry reuses a parked node
  /// when there is one, after `reset(mapped)` has cleared its value; with
  /// none parked it is value-initialised as by `map[key]`.
  template <typename Reset>
  iterator find_or_insert(Map& map, const typename Map::key_type& key, Reset&& reset) {
    auto it = map.find(key);
    if (it != map.end()) return it;
    if (spare_.empty()) return map.try_emplace(key).first;
    typename Map::node_type node = std::move(spare_.back());
    spare_.pop_back();
    node.key() = key;
    reset(node.mapped());
    return map.insert(std::move(node)).position;
  }

  /// As above, with a reused node's value reset to `mapped_type{}`.
  iterator find_or_insert(Map& map, const typename Map::key_type& key) {
    return find_or_insert(map, key, [](typename Map::mapped_type& v) { v = {}; });
  }

  /// Remove `it` from `map` and keep its node for a later insert.
  void park(Map& map, iterator it) { spare_.push_back(map.extract(it)); }

  std::size_t parked() const { return spare_.size(); }

 private:
  std::vector<typename Map::node_type> spare_;
};

}  // namespace stob::util
