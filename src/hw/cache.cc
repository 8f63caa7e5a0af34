#include "hw/cache.h"

#include <algorithm>
#include <bit>
#include <string>

#include "support/serialize.h"

namespace simprof::hw {

Cache::Cache(const CacheConfig& cfg)
    : cfg_(cfg),
      sets_(cfg.num_sets()),
      effective_ways_(cfg.ways),
      ways_(sets_ * cfg.ways, kInvalid) {
  // save_state stores each set's occupancy in one byte.
  SIMPROF_EXPECTS(cfg.ways <= 255, "cache has more than 255 ways");
  // access() indexes sets with a mask.
  SIMPROF_EXPECTS(std::has_single_bit(sets_),
                  "cache set count must be a power of two");
}

bool Cache::access(LineAddr line) {
  const std::size_t set = static_cast<std::size_t>(line & (sets_ - 1));
  LineAddr* base = ways_.data() + set * cfg_.ways;

  // Search MRU→LRU; only the first effective_ways_ slots count as resident.
  for (std::uint32_t i = 0; i < cfg_.ways; ++i) {
    if (base[i] != line) continue;
    const bool hit = i < effective_ways_;
    // Move to MRU position: shift the i more recent lines down one way.
    std::copy_backward(base, base + i, base + i + 1);
    base[0] = line;
    if (hit) {
      ++stats_.hits;
    } else {
      ++stats_.misses;  // present but outside the pressured capacity
    }
    return hit;
  }
  // Miss: insert at MRU, shifting everything down (LRU way falls off).
  std::copy_backward(base, base + cfg_.ways - 1, base + cfg_.ways);
  base[0] = line;
  ++stats_.misses;
  return false;
}

void Cache::flush() { std::fill(ways_.begin(), ways_.end(), kInvalid); }

void Cache::save_state(BinaryWriter& w) const {
  w.u64(cfg_.size_bytes);
  w.u32(cfg_.ways);
  w.u32(effective_ways_);
  // Stats ride along: PMU counters read miss totals lazily from here, so a
  // restore must bring the counters' source of truth back too.
  w.u64(stats_.hits);
  w.u64(stats_.misses);
  // Occupancy, then the occupied tags. A set's count runs to its last valid
  // way, so the encoding stays lossless even if a hole ever appeared.
  std::string counts(sets_, '\0');
  std::vector<LineAddr> tags;
  for (std::size_t set = 0; set < sets_; ++set) {
    const LineAddr* base = ways_.data() + set * cfg_.ways;
    std::uint32_t n = cfg_.ways;
    while (n > 0 && base[n - 1] == kInvalid) --n;
    counts[set] = static_cast<char>(n);
    tags.insert(tags.end(), base, base + n);
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
  effective_ways_ = eff;
  stats_ = stats;
  const LineAddr* next = tags.data();
  for (std::size_t set = 0; set < sets_; ++set) {
    LineAddr* base = ways_.data() + set * cfg_.ways;
    const auto n = static_cast<unsigned char>(counts[set]);
    std::copy(next, next + n, base);
    std::fill(base + n, base + cfg_.ways, kInvalid);
    next += n;
  }
}

}  // namespace simprof::hw
