#include "hw/cache.h"

#include <string>

#include "support/serialize.h"

namespace simprof::hw {

Cache::Cache(const CacheConfig& cfg)
    : cfg_(cfg), sets_(cfg.num_sets()), effective_ways_(cfg.ways) {
  // access() compares 16 tag lanes and ages ways in 16 byte lanes.
  SIMPROF_EXPECTS(cfg.ways <= kMaxWays, "cache has more than 16 ways");
  // access() indexes sets with a mask.
  SIMPROF_EXPECTS(std::has_single_bit(sets_),
                  "cache set count must be a power of two");
  tags_.resize(sets_);
  ages_.resize(sets_);
  flush();
}

void Cache::flush() {
  TagLanes empty;
  std::fill(std::begin(empty.tag), std::end(empty.tag), kEmptyTag);
  AgeLanes identity;
  for (std::uint32_t w = 0; w < kMaxWays; ++w) {
    identity.age[w] = w < cfg_.ways ? static_cast<std::uint8_t>(w) : kPadAge;
  }
  std::fill(tags_.begin(), tags_.end(), empty);
  std::fill(ages_.begin(), ages_.end(), identity);
}

void Cache::save_state(BinaryWriter& w) const {
  w.u64(cfg_.size_bytes);
  w.u32(cfg_.ways);
  w.u32(effective_ways_);
  // Stats ride along: PMU counters read miss totals lazily from here, so a
  // restore must bring the counters' source of truth back too.
  w.u64(stats_.hits);
  w.u64(stats_.misses);
  // Occupancy, then the occupied tags in MRU order (rebuilt from the ages).
  // A set's count runs to its last valid way; empty ways are always the
  // oldest, so the count is the number of valid ways.
  std::string counts(sets_, '\0');
  std::vector<LineAddr> tags;
  std::uint32_t mru[kMaxWays] = {};
  for (std::size_t set = 0; set < sets_; ++set) {
    for (std::uint32_t way = 0; way < cfg_.ways; ++way) {
      mru[ages_[set].age[way]] = tags_[set].tag[way];
    }
    std::uint32_t n = cfg_.ways;
    while (n > 0 && mru[n - 1] == kEmptyTag) --n;
    counts[set] = static_cast<char>(n);
    tags.insert(tags.end(), mru, mru + n);
  }
  w.str(counts);
  w.vec_u64(tags);
}

void Cache::load_state(BinaryReader& r) {
  const std::uint64_t size_bytes = r.u64();
  const std::uint32_t ways = r.u32();
  if (size_bytes != cfg_.size_bytes || ways != cfg_.ways) {
    throw SerializeError("corrupt archive: cache geometry mismatch");
  }
  const std::uint32_t eff = r.u32();
  if (eff < 1 || eff > cfg_.ways) {
    throw SerializeError("corrupt archive: effective ways out of range");
  }
  CacheStats stats;
  stats.hits = r.u64();
  stats.misses = r.u64();
  const std::string counts = r.str();
  if (counts.size() != sets_) {
    throw SerializeError("corrupt archive: cache occupancy size mismatch");
  }
  const std::vector<LineAddr> tags = r.vec_u64();
  // Validate the whole occupancy section before the first write, so a
  // corrupt archive never half-restores.
  std::size_t total = 0;
  for (const char c : counts) {
    const auto n = static_cast<unsigned char>(c);
    if (n > cfg_.ways) {
      throw SerializeError("corrupt archive: cache set occupancy exceeds "
                           "ways");
    }
    total += n;
  }
  if (total > tags.size()) {
    throw SerializeError("corrupt archive: cache occupancy exceeds tag "
                         "count");
  }
  if (total < tags.size()) {
    throw SerializeError("corrupt archive: trailing cache tags");
  }
  for (const LineAddr tag : tags) {
    if (tag >= kLineLimit) {
      throw SerializeError("corrupt archive: cache tag beyond the 32-bit "
                           "line space");
    }
  }
  effective_ways_ = eff;
  stats_ = stats;
  // The archive lists each set in MRU order, and flush() gives way i age i.
  flush();
  const LineAddr* next = tags.data();
  for (std::size_t set = 0; set < sets_; ++set) {
    const auto n = static_cast<unsigned char>(counts[set]);
    for (unsigned way = 0; way < n; ++way) {
      tags_[set].tag[way] = static_cast<std::uint32_t>(*next++);
    }
  }
}

}  // namespace simprof::hw
