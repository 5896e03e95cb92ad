// Concurrent readers of one Relation. column_index() syncs lazily under the
// relation's mutex, and the parallel FO route and the query server rely on
// concurrent readers being safe; this test makes the first sync after a
// batch of Adds race across threads (run it under ThreadSanitizer).

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

#include "structures/relation.h"

namespace fmtk {
namespace {

constexpr int kThreads = 4;
constexpr Element kNodes = 256;

// Every reader probes every column of every element and cross-checks the
// three read paths against each other; mismatches are counted, not
// asserted, so the worker threads stay free of gtest state.
void RaceReaders(const Relation& r) {
  std::atomic<int> ready{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&r, &ready, &mismatches, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
        std::this_thread::yield();
      }
      for (Element k = 0; k < kNodes; ++k) {
        const Element e = (k + static_cast<Element>(t) * 61) % kNodes;
        for (std::size_t c = 0; c < r.arity(); ++c) {
          const std::size_t found = r.column_index(c).Find(e).size();
          if (r.MatchesAt(c, e).size() != found) {
            mismatches.fetch_add(1);
          }
        }
        const Element row[2] = {e, (e + 1) % kNodes};
        if (!r.ContainsRow(row)) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(RelationConcurrencyTest, FirstBuildAfterAddsRacesSafely) {
  Relation r(2);
  for (Element e = 0; e < kNodes; ++e) {
    r.Add({e, (e + 1) % kNodes});
  }
  RaceReaders(r);
  for (Element e = 0; e < kNodes; ++e) {
    EXPECT_EQ(r.MatchesAt(0, e).size(), 1u);
    EXPECT_EQ(r.MatchesAt(1, e).size(), 1u);
  }
}

TEST(RelationConcurrencyTest, IncrementalSyncAfterAddsRacesSafely) {
  // A bulk-built relation (sorted prefix, eager CSR indexes) takes a batch
  // of Adds; the readers then race on the first incremental sync.
  std::vector<Element> rows;
  for (Element e = 0; e < kNodes; e += 2) {
    rows.push_back(e);
    rows.push_back((e + 1) % kNodes);
  }
  Relation r = Relation::FromSortedRows(2, rows);
  for (Element e = 1; e < kNodes; e += 2) {
    r.Add({e, (e + 1) % kNodes});
  }
  RaceReaders(r);
  EXPECT_EQ(r.column_index(0).indexed_upto, r.size());
  EXPECT_EQ(r.ColumnValues(1).size(), kNodes);
}

}  // namespace
}  // namespace fmtk
