// Model-based tests of the two hash containers behind the plan cache:
// fixed-seed random operation sequences run against a simple standard
// library model, with the container's observable state compared to the
// model after every operation.
//
//   * ShardedLruCache against one std::list + std::map LRU per shard:
//     every Get / Insert result, the hit / miss / insertion / eviction
//     counters, and the contents and recency order.
//   * FlatHashMap against std::unordered_map under random insert, erase and
//     find, with hashers that pile keys into long probe clusters so the
//     backward-shift erase runs across wrapped, interleaved chains.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/flat_hash.h"
#include "base/hash.h"
#include "planner/plan_cache.h"

namespace fmtk {
namespace {

// --- ShardedLruCache --------------------------------------------------------

using StringCache = ShardedLruCache<std::string>;

// One shard: keys most recently used first, with their values.
struct LruShardModel {
  std::list<std::string> recency;
  std::map<std::string, std::string> values;
};

class LruModel {
 public:
  LruModel(std::size_t shards, std::size_t capacity)
      : shards_(shards), capacity_(capacity) {}

  // ShardedLruCache's documented sharding: Mix64 of the key's hash, masked
  // to the (power-of-two) shard count.
  LruShardModel& ShardFor(const std::string& key) {
    const std::uint64_t h = Mix64(ScalarHash(key));
    return shards_[static_cast<std::size_t>(h) & (shards_.size() - 1)];
  }

  // The value Get must return ("" for a miss).
  std::string Get(const std::string& key) {
    LruShardModel& shard = ShardFor(key);
    auto it = shard.values.find(key);
    if (it == shard.values.end()) {
      ++stats_.misses;
      return {};
    }
    ++stats_.hits;
    Touch(shard, key);
    return it->second;
  }

  // The value Insert must return.
  std::string Insert(const std::string& key, const std::string& value) {
    LruShardModel& shard = ShardFor(key);
    auto it = shard.values.find(key);
    if (it != shard.values.end()) {
      Touch(shard, key);
      return it->second;
    }
    shard.recency.push_front(key);
    shard.values.emplace(key, value);
    ++stats_.insertions;
    if (shard.recency.size() > capacity_) {
      shard.values.erase(shard.recency.back());
      shard.recency.pop_back();
      ++stats_.evictions;
    }
    return value;
  }

  void Clear() {
    for (LruShardModel& shard : shards_) {
      shard = LruShardModel{};
    }
    stats_ = PlanCacheStats{};
  }

  PlanCacheStats stats() const {
    PlanCacheStats out = stats_;
    for (const LruShardModel& shard : shards_) {
      out.entries += shard.values.size();
    }
    return out;
  }

  // Every cached key, least recently used first within each shard.
  std::vector<std::string> KeysOldestFirst() const {
    std::vector<std::string> keys;
    for (const LruShardModel& shard : shards_) {
      keys.insert(keys.end(), shard.recency.rbegin(), shard.recency.rend());
    }
    return keys;
  }

 private:
  static void Touch(LruShardModel& shard, const std::string& key) {
    shard.recency.remove(key);
    shard.recency.push_front(key);
  }

  std::vector<LruShardModel> shards_;
  std::size_t capacity_;
  PlanCacheStats stats_;
};

void ExpectSameCounters(const PlanCacheStats& got,
                        const PlanCacheStats& want) {
  EXPECT_EQ(got.hits, want.hits);
  EXPECT_EQ(got.misses, want.misses);
  EXPECT_EQ(got.insertions, want.insertions);
  EXPECT_EQ(got.evictions, want.evictions);
  EXPECT_EQ(got.entries, want.entries);
}

std::string Fetched(const std::shared_ptr<const std::string>& value) {
  return value == nullptr ? std::string() : *value;
}

// Reads every cached key back, least recently used first, so the reads
// leave the recency order as it was; then reads every absent key (misses
// move nothing). A key missing from the cache, a stale value or a recency
// order that differs from the model shows up as a wrong value here or as a
// wrong eviction later.
void ExpectSameContents(StringCache& cache, LruModel& model,
                        const std::vector<std::string>& universe) {
  const std::vector<std::string> cached = model.KeysOldestFirst();
  for (const std::string& key : cached) {
    const std::string want = model.Get(key);
    EXPECT_EQ(Fetched(cache.Get(key)), want) << key;
  }
  for (const std::string& key : universe) {
    if (std::find(cached.begin(), cached.end(), key) == cached.end()) {
      EXPECT_EQ(model.Get(key), "");
      EXPECT_EQ(cache.Get(key), nullptr) << key;
    }
  }
  ExpectSameCounters(cache.stats(), model.stats());
}

TEST(ShardedLruCacheModelTest, RandomGetInsertMatchesLruModel) {
  std::vector<std::string> universe;
  for (int k = 0; k < 12; ++k) {
    universe.push_back("k" + std::to_string(k));
  }
  std::mt19937 rng(20261018);
  for (const std::size_t shards : {1, 2, 4}) {
    for (const std::size_t capacity : {1, 2, 3}) {
      SCOPED_TRACE("shards " + std::to_string(shards) + " capacity " +
                   std::to_string(capacity));
      StringCache cache({shards, capacity});
      LruModel model(shards, capacity);
      std::uniform_int_distribution<std::size_t> pick(0, universe.size() - 1);
      for (int step = 0; step < 600; ++step) {
        const std::string& key = universe[pick(rng)];
        const unsigned op = rng() % 100;
        if (op < 45) {
          EXPECT_EQ(Fetched(cache.Get(key)), model.Get(key)) << step;
        } else if (op < 98) {
          const std::string value = key + "@" + std::to_string(step);
          EXPECT_EQ(*cache.Insert(key, std::make_shared<const std::string>(
                                           value)),
                    model.Insert(key, value))
              << step;
        } else {
          cache.Clear();
          model.Clear();
        }
        ExpectSameCounters(cache.stats(), model.stats());
        if (step % 8 == 0) {
          ExpectSameContents(cache, model, universe);
        }
      }
      ExpectSameContents(cache, model, universe);
    }
  }
}

// --- FlatHashMap ------------------------------------------------------------

// Few distinct hashes: every key shares a home slot with a third of the
// others, so clusters run long, interleave and wrap past the table's end.
struct ClusteringHash {
  std::size_t operator()(int key) const { return key % 3; }
};

template <typename Map>
void ExpectSameMap(const Map& flat, const std::unordered_map<int, int>& model,
                   int universe) {
  ASSERT_EQ(flat.size(), model.size());
  for (int key = 0; key < universe; ++key) {
    const int* found = flat.Find(key);
    auto it = model.find(key);
    ASSERT_EQ(found != nullptr, it != model.end()) << key;
    if (found != nullptr) {
      EXPECT_EQ(*found, it->second) << key;
    }
  }
  std::size_t visited = 0;
  flat.ForEach([&](const int& key, const int& value) {
    auto it = model.find(key);
    ASSERT_NE(it, model.end()) << key;
    EXPECT_EQ(value, it->second) << key;
    ++visited;
  });
  EXPECT_EQ(visited, model.size());
}

template <typename Hash>
void RunFlatHashMapModel(int universe, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> pick(0, universe - 1);
  FlatHashMap<int, int, Hash> flat;
  std::unordered_map<int, int> model;
  for (int step = 0; step < 4000; ++step) {
    const int key = pick(rng);
    const unsigned op = rng() % 100;
    if (op < 45) {
      const int value = step;
      auto [ptr, inserted] = flat.TryEmplace(key, value);
      auto [it, model_inserted] = model.try_emplace(key, value);
      EXPECT_EQ(inserted, model_inserted) << step;
      EXPECT_EQ(*ptr, it->second) << step;
    } else if (op < 90) {
      EXPECT_EQ(flat.Erase(key), model.erase(key) > 0) << step;
    } else if (op < 99) {
      const int* found = flat.Find(key);
      EXPECT_EQ(found != nullptr, model.count(key) > 0) << step;
    } else {
      flat.clear();
      model.clear();
    }
    ExpectSameMap(flat, model, universe);
    if (testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

TEST(FlatHashMapModelTest, BackwardShiftEraseMatchesUnorderedMap) {
  // 40 keys grow the table past its 16-slot minimum and back through
  // dense, sparse and emptied states.
  RunFlatHashMapModel<FlatDefaultHash<int>>(40, 7);
  RunFlatHashMapModel<ClusteringHash>(40, 11);
  RunFlatHashMapModel<ClusteringHash>(12, 13);
}

}  // namespace
}  // namespace fmtk
