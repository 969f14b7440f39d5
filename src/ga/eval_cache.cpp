#include "src/ga/eval_cache.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <vector>

namespace psga::ga {

namespace {

static_assert(sizeof(int) == 4 && sizeof(double) == 8,
              "genomes are stored as 32-bit words");

/// "No slot": an empty index position and the ends of the recency list.
constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();
/// Slot indices and links are 32-bit, so a shard holds fewer than kNone.
constexpr std::uint32_t kMaxSlots = kNone - 1;

// wyhash's default secrets: odd, well-mixed 64-bit constants.
constexpr std::uint64_t kSecret0 = 0xa0761d6478bd642fULL;
constexpr std::uint64_t kSecret1 = 0xe7037ed1a0b428dbULL;
constexpr std::uint64_t kSecret2 = 0x8ebc6af09c88c6e3ULL;
constexpr std::uint64_t kSecret3 = 0x589965cc75374cc3ULL;

/// 64x64 -> 128-bit multiply, folded back to 64 bits by xor.
std::uint64_t fold(std::uint64_t a, std::uint64_t b) {
  const unsigned __int128 product = static_cast<unsigned __int128>(a) * b;
  return static_cast<std::uint64_t>(product) ^
         static_cast<std::uint64_t>(product >> 64);
}

std::uint64_t read64(const unsigned char* p) {
  std::uint64_t word;
  std::memcpy(&word, p, sizeof word);
  return word;
}

/// Absorbs one chromosome: its byte length first, then 16 bytes per fold
/// (the last block zero-padded, which the length prefix disambiguates).
/// Long chromosomes run three independent fold chains over 48-byte
/// blocks, as wyhash does, so the multiplies overlap.
std::uint64_t absorb(std::uint64_t h, const void* data, std::size_t bytes) {
  h = fold(h ^ kSecret0, bytes ^ kSecret1);
  const auto* p = static_cast<const unsigned char*>(data);
  if (bytes >= 48) {
    std::uint64_t h1 = h;
    std::uint64_t h2 = h;
    for (; bytes >= 48; p += 48, bytes -= 48) {
      h = fold(read64(p) ^ kSecret1, read64(p + 8) ^ h);
      h1 = fold(read64(p + 16) ^ kSecret2, read64(p + 24) ^ h1);
      h2 = fold(read64(p + 32) ^ kSecret3, read64(p + 40) ^ h2);
    }
    h ^= h1 ^ h2;
  }
  for (; bytes >= 16; p += 16, bytes -= 16) {
    h = fold(read64(p) ^ kSecret1, read64(p + 8) ^ h);
  }
  if (bytes > 0) {
    unsigned char tail[16] = {};
    std::memcpy(tail, p, bytes);
    h = fold(read64(tail) ^ kSecret1, read64(tail + 8) ^ h);
  }
  return h;
}

/// memcmp/memcpy that accept the null data() of an empty chromosome.
bool same_bytes(const void* a, const void* b, std::size_t bytes) {
  return bytes == 0 || std::memcmp(a, b, bytes) == 0;
}
void copy_bytes(void* to, const void* from, std::size_t bytes) {
  if (bytes > 0) std::memcpy(to, from, bytes);
}

}  // namespace

/// One lock shard: flat slots under an LRU list, the genomes at a fixed
/// stride, and a linear-probing index at load <= 1/2. Slots are only ever
/// appended (growing geometrically up to the budget) or reused in place
/// by an eviction, so slots.size() is the entry count.
struct alignas(64) EvalCache::Shard {
  struct Slot {
    std::uint64_t key = 0;
    double objective = 0.0;
    std::uint32_t newer = kNone;  ///< toward head (most recently used)
    std::uint32_t older = kNone;  ///< toward tail (least recently used)
  };

  mutable std::mutex mutex;
  std::vector<Slot> slots;
  std::vector<std::uint32_t> words;  ///< slot s at [s * stride, +stride)
  std::vector<std::uint32_t> index;  ///< a slot, or kNone; power-of-two size
  std::uint32_t head = kNone;
  std::uint32_t tail = kNone;
  EvalCacheStats stats;

  std::size_t mask() const { return index.size() - 1; }

  /// Index position holding `key`, or npos.
  std::size_t find(std::uint64_t key) const {
    if (index.empty()) return npos;
    for (std::size_t pos = key & mask();; pos = (pos + 1) & mask()) {
      const std::uint32_t slot = index[pos];
      if (slot == kNone) return npos;
      if (slots[slot].key == key) return pos;
    }
  }

  /// Puts `slot` (whose key is absent from the index) at the first free
  /// position of its probe run.
  void place(std::uint32_t slot) {
    std::size_t pos = slots[slot].key & mask();
    while (index[pos] != kNone) pos = (pos + 1) & mask();
    index[pos] = slot;
  }

  /// Backward-shift deletion: pulls later members of the probe run into
  /// the hole, so the index never needs tombstones.
  void erase_at(std::size_t hole) {
    for (std::size_t pos = (hole + 1) & mask(); index[pos] != kNone;
         pos = (pos + 1) & mask()) {
      const std::size_t home = slots[index[pos]].key & mask();
      // The entry may move into the hole only if its home does not lie
      // cyclically in (hole, pos].
      if (((pos - home) & mask()) >= ((pos - hole) & mask())) {
        index[hole] = index[pos];
        hole = pos;
      }
    }
    index[hole] = kNone;
  }

  /// Doubles the index (from 16) and re-places every slot.
  void grow_index() {
    index.assign(std::max<std::size_t>(16, index.size() * 2), kNone);
    for (std::uint32_t s = 0; s < slots.size(); ++s) place(s);
  }

  void unlink(std::uint32_t slot) {
    const Slot& entry = slots[slot];
    (entry.newer == kNone ? head : slots[entry.newer].older) = entry.older;
    (entry.older == kNone ? tail : slots[entry.older].newer) = entry.newer;
  }

  void push_front(std::uint32_t slot) {
    slots[slot].newer = kNone;
    slots[slot].older = head;
    (head == kNone ? tail : slots[head].newer) = slot;
    head = slot;
  }

  void touch(std::uint32_t slot) {
    if (slot == head) return;
    unlink(slot);
    push_front(slot);
  }

  /// A slot for a new entry: the evicted tail once `budget` is reached,
  /// otherwise a fresh one (capacity grows geometrically, capped at the
  /// budget). Leaves the index with room for one more entry.
  std::uint32_t claim(std::uint32_t budget, std::size_t stride) {
    if (slots.size() == budget) {
      const std::uint32_t victim = tail;
      erase_at(find(slots[victim].key));
      unlink(victim);
      ++stats.evictions;
      return victim;
    }
    if (slots.size() == slots.capacity()) {
      const std::size_t grown = std::min<std::size_t>(
          budget, std::max<std::size_t>(16, slots.size() * 2));
      slots.reserve(grown);
      words.reserve(grown * stride);
    }
    if ((slots.size() + 1) * 2 > index.size()) grow_index();
    slots.emplace_back();
    words.resize(slots.size() * stride);
    return static_cast<std::uint32_t>(slots.size() - 1);
  }

  static constexpr std::size_t npos = std::numeric_limits<std::size_t>::max();
};

std::uint64_t EvalCache::key(const Genome& genome) {
  std::uint64_t h = kSecret3;
  h = absorb(h, genome.seq.data(), genome.seq.size() * sizeof(int));
  h = absorb(h, genome.assign.data(), genome.assign.size() * sizeof(int));
  h = absorb(h, genome.keys.data(), genome.keys.size() * sizeof(double));
  // splitmix64's finalizer: every output bit depends on every input bit,
  // so the shard (high) bits and the index (low) bits both stay uniform.
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

EvalCache::EvalCache(std::size_t capacity)
    : shard_count_(std::clamp<std::size_t>(capacity, 1, kShards)),
      shard_budget_(static_cast<std::uint32_t>(std::clamp<std::size_t>(
          capacity / shard_count_, 1, kMaxSlots))),
      shards_(std::make_unique<Shard[]>(shard_count_)) {}

EvalCache::~EvalCache() = default;

EvalCache::Shard& EvalCache::shard_for(std::uint64_t key) const {
  return shards_[static_cast<std::size_t>(key >> 32) % shard_count_];
}

bool EvalCache::Shape::equal(const std::uint32_t* words,
                             const Genome& genome) const {
  return same_bytes(words, genome.seq.data(), seq * 4) &&
         same_bytes(words + seq, genome.assign.data(), assign * 4) &&
         same_bytes(words + seq + assign, genome.keys.data(), keys * 8);
}

void EvalCache::Shape::store(std::uint32_t* words,
                             const Genome& genome) const {
  copy_bytes(words, genome.seq.data(), seq * 4);
  copy_bytes(words + seq, genome.assign.data(), assign * 4);
  copy_bytes(words + seq + assign, genome.keys.data(), keys * 8);
}

bool EvalCache::has_shape(const Genome& genome) const {
  return shaped_.load() && genome.seq.size() == shape_.seq &&
         genome.assign.size() == shape_.assign &&
         genome.keys.size() == shape_.keys;
}

void EvalCache::publish_shape(const Genome& genome) {
  std::lock_guard lock(shape_mutex_);
  if (shaped_.load()) return;
  shape_ = {genome.seq.size(), genome.assign.size(), genome.keys.size()};
  shaped_.store(true);
}

std::optional<double> EvalCache::lookup(std::uint64_t key,
                                        const Genome& genome) {
  Shard& shard = shard_for(key);
  std::lock_guard lock(shard.mutex);
  const std::size_t pos = has_shape(genome) ? shard.find(key) : Shard::npos;
  if (pos != Shard::npos) {
    const std::uint32_t slot = shard.index[pos];
    if (shape_.equal(shard.words.data() + slot * shape_.stride(), genome)) {
      shard.touch(slot);
      ++shard.stats.hits;
      return shard.slots[slot].objective;
    }
  }
  ++shard.stats.misses;
  return std::nullopt;
}

void EvalCache::insert(std::uint64_t key, const Genome& genome,
                       double objective) {
  if (!shaped_.load()) publish_shape(genome);
  if (!has_shape(genome)) return;
  Shard& shard = shard_for(key);
  std::lock_guard lock(shard.mutex);
  // One entry per key: an equal genome is refreshed, a colliding one
  // replaced, both in place.
  const std::size_t pos = shard.find(key);
  std::uint32_t slot = 0;
  if (pos != Shard::npos) {
    slot = shard.index[pos];
    shard.touch(slot);
  } else {
    slot = shard.claim(shard_budget_, shape_.stride());
    shard.slots[slot].key = key;
    shard.place(slot);
    shard.push_front(slot);
  }
  shard.slots[slot].objective = objective;
  shape_.store(shard.words.data() + slot * shape_.stride(), genome);
  ++shard.stats.inserts;
}

EvalCacheStats EvalCache::stats() const {
  EvalCacheStats total;
  for (std::size_t s = 0; s < shard_count_; ++s) {
    std::lock_guard lock(shards_[s].mutex);
    total.hits += shards_[s].stats.hits;
    total.misses += shards_[s].stats.misses;
    total.inserts += shards_[s].stats.inserts;
    total.evictions += shards_[s].stats.evictions;
  }
  return total;
}

std::size_t EvalCache::size() const {
  std::size_t size = 0;
  for (std::size_t s = 0; s < shard_count_; ++s) {
    std::lock_guard lock(shards_[s].mutex);
    size += shards_[s].slots.size();
  }
  return size;
}

}  // namespace psga::ga
