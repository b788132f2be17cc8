// Unit tests for storage/: Relation dedup/indexing, Database, CSV IO.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <random>
#include <thread>

#include "storage/csv.h"
#include "storage/database.h"
#include "storage/relation.h"

namespace raqlet {
namespace {

RelationSchema EdgeSchema(const std::string& name = "edge") {
  RelationSchema s;
  s.name = name;
  s.columns = {{"src", ValueType::kNumber}, {"dst", ValueType::kNumber}};
  return s;
}

TEST(RelationTest, InsertDeduplicates) {
  Relation r(EdgeSchema());
  EXPECT_TRUE(r.Insert({Value::Number(1), Value::Number(2)}).value());
  EXPECT_FALSE(r.Insert({Value::Number(1), Value::Number(2)}).value());
  EXPECT_TRUE(r.Insert({Value::Number(2), Value::Number(1)}).value());
  EXPECT_EQ(r.size(), 2u);
  EXPECT_TRUE(r.Contains({Value::Number(1), Value::Number(2)}));
  EXPECT_FALSE(r.Contains({Value::Number(9), Value::Number(9)}));
}

TEST(RelationTest, PreservesInsertionOrder) {
  Relation r(EdgeSchema());
  r.Insert({Value::Number(3), Value::Number(4)});
  r.Insert({Value::Number(1), Value::Number(2)});
  ASSERT_EQ(r.rows().size(), 2u);
  EXPECT_EQ(r.rows()[0][0].AsNumber(), 3);
  EXPECT_EQ(r.rows()[1][0].AsNumber(), 1);
}

TEST(RelationTest, IndexGroupsByKey) {
  Relation r(EdgeSchema());
  r.Insert({Value::Number(1), Value::Number(2)});
  r.Insert({Value::Number(1), Value::Number(3)});
  r.Insert({Value::Number(2), Value::Number(3)});
  const auto& index = r.GetIndex({0});
  auto it = index.find(Tuple{Value::Number(1)});
  ASSERT_NE(it, index.end());
  EXPECT_EQ(it->second.size(), 2u);
}

TEST(RelationTest, IndexIsMaintainedIncrementally) {
  Relation r(EdgeSchema());
  r.Insert({Value::Number(1), Value::Number(2)});
  const auto& index1 = r.GetIndex({0});
  EXPECT_EQ(index1.size(), 1u);
  // Insert after the index was built; next GetIndex folds it in.
  r.Insert({Value::Number(5), Value::Number(6)});
  const auto& index2 = r.GetIndex({0});
  EXPECT_EQ(index2.size(), 2u);
  auto it = index2.find(Tuple{Value::Number(5)});
  ASSERT_NE(it, index2.end());
  EXPECT_EQ(it->second[0], 1u);
}

TEST(RelationTest, EnsureIndexMatchesGetIndexAndStaysCurrent) {
  Relation r(EdgeSchema());
  r.Insert({Value::Number(1), Value::Number(2)});
  const Relation::KeyIndex* index = r.EnsureIndex({0});
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->size(), 1u);
  r.Insert({Value::Number(5), Value::Number(6)});
  // Same cache entry (pointer-stable), folded up to the new rows.
  EXPECT_EQ(r.EnsureIndex({0}), index);
  EXPECT_EQ(index->size(), 2u);
  EXPECT_EQ(&r.GetIndex({0}), index);
}

// Multi-reader phase of the relation threading contract: once the index
// is up to date and no writer is active, concurrent EnsureIndex calls and
// probes are safe (the tsan CI leg checks this for real).
TEST(RelationTest, EnsureIndexIsSafeUnderConcurrentReaders) {
  Relation r(EdgeSchema());
  for (int i = 0; i < 256; ++i) {
    r.Insert({Value::Number(i % 16), Value::Number(i)});
  }
  std::atomic<size_t> total_hits{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&r, &total_hits] {
      for (int pass = 0; pass < 50; ++pass) {
        const Relation::KeyIndex* index = r.EnsureIndex({0});
        auto it = index->find(Tuple{Value::Number(3)});
        if (it != index->end()) total_hits.fetch_add(it->second.size());
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(total_hits.load(), 4u * 50u * 16u);
}

TEST(RelationTest, InsertBatchDedupsWithinAndAcrossBatches) {
  Relation r(EdgeSchema());
  r.Insert({Value::Number(1), Value::Number(2)});
  // Batch: duplicate of an existing row, an internal duplicate pair, and
  // two new rows. Order of survivors must be batch order.
  Result<size_t> inserted = r.InsertBatch({
      {Value::Number(1), Value::Number(2)},  // already present
      {Value::Number(3), Value::Number(4)},
      {Value::Number(3), Value::Number(4)},  // duplicate within the batch
      {Value::Number(5), Value::Number(6)},
  });
  ASSERT_TRUE(inserted.ok());
  EXPECT_EQ(*inserted, 2u);
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r.rows()[1][0].AsNumber(), 3);
  EXPECT_EQ(r.rows()[2][0].AsNumber(), 5);
  EXPECT_TRUE(r.Contains({Value::Number(5), Value::Number(6)}));
  EXPECT_FALSE(r.Contains({Value::Number(5), Value::Number(7)}));
  EXPECT_EQ(*r.InsertBatch({}), 0u);  // empty batch is a no-op
  EXPECT_EQ(r.size(), 3u);
}

TEST(RelationTest, ReleaseRowsHandsOverStorageAndResets) {
  // The graph engine's batch DISTINCT uses a scratch Relation purely as a
  // deduplicator: InsertBatch, then take the surviving rows by move.
  Relation r(EdgeSchema());
  r.InsertBatch({
      {Value::Number(1), Value::Number(2)},
      {Value::Number(3), Value::Number(4)},
      {Value::Number(1), Value::Number(2)},  // duplicate, dropped
  });
  std::vector<Tuple> rows = r.ReleaseRows();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0].AsNumber(), 1);
  EXPECT_EQ(rows[1][0].AsNumber(), 3);
  // The relation is empty and fully reusable afterwards.
  EXPECT_EQ(r.size(), 0u);
  EXPECT_FALSE(r.Contains({Value::Number(1), Value::Number(2)}));
  EXPECT_TRUE(r.Insert({Value::Number(1), Value::Number(2)}).value());
  EXPECT_EQ(r.size(), 1u);
}

TEST(RelationTest, InsertBatchMatchesTupleAtATimeInsertion) {
  // Randomized equivalence: feeding the same (duplicate-heavy) stream
  // through Insert and through chunked InsertBatch must produce identical
  // contents in identical order.
  std::mt19937 rng(99);
  std::uniform_int_distribution<int> pick(0, 15);
  std::vector<Tuple> stream;
  for (int i = 0; i < 500; ++i) {
    stream.push_back({Value::Number(pick(rng)), Value::Number(pick(rng))});
  }
  Relation serial(EdgeSchema());
  for (const Tuple& t : stream) serial.Insert(t);
  Relation batched(EdgeSchema("edge2"));
  for (size_t begin = 0; begin < stream.size(); begin += 64) {
    size_t end = std::min(stream.size(), begin + 64);
    batched.InsertBatch(
        std::vector<Tuple>(stream.begin() + begin, stream.begin() + end));
  }
  ASSERT_EQ(serial.size(), batched.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial.rows()[i], batched.rows()[i]) << "row " << i;
  }
}

TEST(RelationTest, InsertBatchKeepsCachedIndexesCurrent) {
  Relation r(EdgeSchema());
  r.Insert({Value::Number(1), Value::Number(2)});
  const Relation::KeyIndex* index = r.EnsureIndex({0});
  EXPECT_EQ(index->size(), 1u);
  // The batch must fold the new suffix into the cached index eagerly —
  // the EnsureIndex pointer stays valid and sees the new keys.
  r.InsertBatch({{Value::Number(1), Value::Number(3)},
                 {Value::Number(7), Value::Number(8)}});
  EXPECT_EQ(r.EnsureIndex({0}), index);
  EXPECT_EQ(index->size(), 2u);
  auto it = index->find(Tuple{Value::Number(1)});
  ASSERT_NE(it, index->end());
  EXPECT_EQ(it->second, (std::vector<uint32_t>{0, 1}));  // ascending rows
}

TEST(RelationTest, InsertBatchWatermarkSurvivesInterleavedIndexUse) {
  // Batches interleaved with GetIndex/EnsureIndex and single inserts:
  // each index entry must be folded exactly once per row regardless of
  // which operation triggers the fold.
  Relation r(EdgeSchema());
  r.InsertBatch({{Value::Number(1), Value::Number(1)},
                 {Value::Number(1), Value::Number(2)}});
  const auto& by_src = r.GetIndex({0});  // built after the first batch
  EXPECT_EQ(by_src.at(Tuple{Value::Number(1)}).size(), 2u);
  r.Insert({Value::Number(1), Value::Number(3)});  // lazy fold pending
  r.InsertBatch({{Value::Number(1), Value::Number(4)},
                 {Value::Number(2), Value::Number(1)}});  // eager fold
  EXPECT_EQ(by_src.at(Tuple{Value::Number(1)}).size(), 4u);
  const auto& by_dst = r.GetIndex({1});  // fresh index after both batches
  EXPECT_EQ(by_dst.at(Tuple{Value::Number(1)}).size(), 2u);
  EXPECT_EQ(by_src.at(Tuple{Value::Number(1)}),
            (std::vector<uint32_t>{0, 1, 2, 3}));
  // No double-folded (duplicated) row indices anywhere.
  for (const auto& [key, rows] : by_src) {
    for (size_t i = 1; i < rows.size(); ++i) EXPECT_LT(rows[i - 1], rows[i]);
  }
}

TEST(RelationTest, EraseBatchCompactsKeepingRelativeOrder) {
  Relation r(EdgeSchema());
  for (int i = 0; i < 6; ++i) {
    r.Insert({Value::Number(i), Value::Number(i * 10)}).value();
  }
  auto erased = r.EraseBatch({{Value::Number(1), Value::Number(10)},
                              {Value::Number(4), Value::Number(40)}});
  ASSERT_TRUE(erased.ok());
  EXPECT_EQ(*erased, 2u);
  ASSERT_EQ(r.size(), 4u);
  // Survivors compacted in place, original relative order intact.
  std::vector<int64_t> srcs;
  for (const Tuple& t : r.MaterializeRows()) srcs.push_back(t[0].AsNumber());
  EXPECT_EQ(srcs, (std::vector<int64_t>{0, 2, 3, 5}));
  EXPECT_FALSE(r.Contains({Value::Number(1), Value::Number(10)}));
  EXPECT_TRUE(r.Contains({Value::Number(5), Value::Number(50)}));
}

TEST(RelationTest, EraseBatchIgnoresAbsentWrongArityAndDuplicates) {
  Relation r(EdgeSchema());
  r.Insert({Value::Number(1), Value::Number(2)}).value();
  r.Insert({Value::Number(3), Value::Number(4)}).value();
  auto erased = r.EraseBatch({
      {Value::Number(9), Value::Number(9)},                   // absent
      {Value::Number(1)},                                     // wrong arity
      {Value::Number(3), Value::Number(4)},                   // present
      {Value::Number(3), Value::Number(4)},                   // duplicate
  });
  ASSERT_TRUE(erased.ok());
  EXPECT_EQ(*erased, 1u);
  EXPECT_EQ(r.size(), 1u);
  // Erasing from an empty relation (or with an empty batch) is a no-op.
  EXPECT_EQ(r.EraseBatch({}).value(), 0u);
  r.EraseBatch({{Value::Number(1), Value::Number(2)}}).value();
  EXPECT_EQ(r.EraseBatch({{Value::Number(1), Value::Number(2)}}).value(), 0u);
}

TEST(RelationTest, EraseRowsByPositionKeepsOrderIndexesAndDedup) {
  Relation r(EdgeSchema());
  for (int i = 0; i < 5; ++i) {
    r.Insert({Value::Number(i % 2), Value::Number(i)}).value();
  }
  r.EnsureIndex({0});
  EXPECT_EQ(r.EraseRows({0, 0, 0, 0, 0}), 0u);  // nothing marked: no-op
  EXPECT_EQ(r.EraseRows({1, 0, 0, 1, 0}), 2u);
  std::vector<int64_t> dsts;
  for (const Tuple& t : r.MaterializeRows()) dsts.push_back(t[1].AsNumber());
  EXPECT_EQ(dsts, (std::vector<int64_t>{1, 2, 4}));
  // The index is rebuilt over the shifted rows, and the dedup table knows
  // the erased tuples are gone and the survivors are not.
  EXPECT_EQ(r.EnsureIndex({0})->at(Tuple{Value::Number(0)}),
            (std::vector<uint32_t>{1, 2}));
  EXPECT_FALSE(r.Insert({Value::Number(0), Value::Number(2)}).value());
  EXPECT_TRUE(r.Insert({Value::Number(0), Value::Number(0)}).value());
  EXPECT_EQ(r.size(), 4u);
}

TEST(RelationTest, DeleteThenReinsertBehavesLikeFirstInsert) {
  Relation r(EdgeSchema());
  r.Insert({Value::Number(1), Value::Number(2)}).value();
  r.Insert({Value::Number(3), Value::Number(4)}).value();
  ASSERT_EQ(r.EraseBatch({{Value::Number(1), Value::Number(2)}}).value(), 1u);
  // The dedup table was rebuilt without a stale entry: re-inserting the
  // erased tuple is fresh and appends at the end.
  EXPECT_TRUE(r.Insert({Value::Number(1), Value::Number(2)}).value());
  EXPECT_FALSE(r.Insert({Value::Number(1), Value::Number(2)}).value());
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r.MaterializeRows()[1][0].AsNumber(), 1);
}

TEST(RelationTest, EraseBatchDuringCachedIndexLifetimeRebuildsIndex) {
  Relation r(EdgeSchema());
  r.Insert({Value::Number(1), Value::Number(2)}).value();
  r.Insert({Value::Number(1), Value::Number(3)}).value();
  r.Insert({Value::Number(2), Value::Number(3)}).value();
  // Build and hold an index across the erase; the old pointer is
  // invalidated by contract, so we must re-request it afterwards.
  const auto* before = r.EnsureIndex({0});
  ASSERT_EQ(before->at(Tuple{Value::Number(1)}).size(), 2u);
  ASSERT_EQ(r.EraseBatch({{Value::Number(1), Value::Number(2)}}).value(), 1u);
  const auto* after = r.EnsureIndex({0});
  // Row indices shifted: the index reflects the compacted rows.
  ASSERT_EQ(after->at(Tuple{Value::Number(1)}).size(), 1u);
  EXPECT_EQ(r.ValueAt(after->at(Tuple{Value::Number(1)})[0], 1).AsNumber(), 3);
  EXPECT_EQ(after->count(Tuple{Value::Number(2)}), 1u);
}

TEST(RelationTest, EraseBatchInvalidatesColumnViews) {
  Relation r(EdgeSchema());
  for (int i = 0; i < 4; ++i) {
    r.Insert({Value::Number(i), Value::Number(i + 100)}).value();
  }
  Relation::ColumnView before = r.Column(1);
  ASSERT_EQ(before.size(), 4u);
  ASSERT_EQ(r.EraseBatch({{Value::Number(0), Value::Number(100)},
                          {Value::Number(2), Value::Number(102)}})
                .value(),
            2u);
  // `before` is invalid now (rows shifted); a fresh view sees the
  // compacted column with survivors in order.
  Relation::ColumnView after = r.Column(1);
  ASSERT_EQ(after.size(), 2u);
  EXPECT_EQ(after.at(0).AsNumber(), 101);
  EXPECT_EQ(after.at(1).AsNumber(), 103);
  EXPECT_TRUE(after.uniform_number());
}

TEST(RelationTest, EraseBatchMixedKindColumn) {
  RelationSchema s;
  s.name = "props";
  s.columns = {{"k", ValueType::kNumber}, {"v", ValueType::kNumber}};
  Relation r(s);
  // Mix kinds in column 1 so the kind sidecar exists and must be
  // compacted alongside the words.
  r.Insert({Value::Number(1), Value::Number(7)}).value();
  r.Insert({Value::Number(2), Value::Bool(true)}).value();
  r.Insert({Value::Number(3), Value::Null()}).value();
  ASSERT_EQ(r.EraseBatch({{Value::Number(2), Value::Bool(true)}}).value(),
            1u);
  ASSERT_EQ(r.size(), 2u);
  EXPECT_TRUE(r.Contains({Value::Number(1), Value::Number(7)}));
  EXPECT_TRUE(r.Contains({Value::Number(3), Value::Null()}));
  EXPECT_FALSE(r.Contains({Value::Number(2), Value::Bool(true)}));
  EXPECT_EQ(r.MaterializeRows()[1][1].kind(), ValueType::kNull);
}

TEST(RelationColumnTest, ColumnViewReadsStoredValuesZeroCopy) {
  Relation r(EdgeSchema());
  ASSERT_TRUE(r.InsertBatch({{Value::Number(10), Value::Number(20)},
                             {Value::Number(11), Value::Number(21)},
                             {Value::Number(12), Value::Number(22)}})
                  .ok());
  Relation::ColumnView src = r.Column(0);
  Relation::ColumnView dst = r.Column(1);
  ASSERT_EQ(src.size(), 3u);
  EXPECT_EQ(src.at(0).AsNumber(), 10);
  EXPECT_EQ(src.at(2).AsNumber(), 12);
  EXPECT_EQ(dst.at(1).AsNumber(), 21);
  // All-number column with no sidecar: the unboxed fast-path shape.
  EXPECT_TRUE(src.uniform_number());
  ASSERT_NE(src.words(), nullptr);
  EXPECT_EQ(src.kinds(), nullptr);
  EXPECT_EQ(src.words()[1], 11);
  // Slices share the same storage, offset.
  Relation::ColumnView slice = r.ColumnSlice(0, 1, 3);
  ASSERT_EQ(slice.size(), 2u);
  EXPECT_EQ(slice.at(0).AsNumber(), 11);
  EXPECT_EQ(slice.words(), src.words() + 1);
  // Out-of-range column / empty range: empty view.
  EXPECT_EQ(r.Column(7).size(), 0u);
  EXPECT_EQ(r.ColumnSlice(0, 2, 2).size(), 0u);
}

TEST(RelationColumnTest, MixedKindColumnDegradesToTaggedStorage) {
  RelationSchema s;
  s.name = "mixed";
  s.columns = {{"k", ValueType::kNumber}, {"v", ValueType::kNumber}};
  Relation r(s);
  r.Insert({Value::Number(1), Value::Number(5)});
  r.Insert({Value::Number(2), Value::Float(2.5)});  // sidecar materializes
  r.Insert({Value::Number(3), Value::Bool(true)});
  Relation::ColumnView v = r.Column(1);
  ASSERT_EQ(v.size(), 3u);
  EXPECT_FALSE(v.uniform_number());
  ASSERT_NE(v.kinds(), nullptr);
  EXPECT_EQ(v.at(0), Value::Number(5));
  EXPECT_EQ(v.at(1), Value::Float(2.5));
  EXPECT_EQ(v.at(2), Value::Bool(true));
  // The key column is untouched by its sibling's degradation.
  EXPECT_TRUE(r.Column(0).uniform_number());
  // Dedup still distinguishes kinds with identical payload bits.
  EXPECT_TRUE(r.Contains({Value::Number(1), Value::Number(5)}));
  EXPECT_FALSE(r.Contains({Value::Number(1), Value::Float(5.0)}) &&
               Value::Number(5) == Value::Float(5.0));
}

TEST(RelationColumnTest, MaterializeRowsMatchesRowsView) {
  Relation r(EdgeSchema());
  ASSERT_TRUE(r.InsertBatch({{Value::Number(1), Value::Number(2)},
                             {Value::Number(3), Value::Number(4)},
                             {Value::Number(5), Value::Number(6)}})
                  .ok());
  EXPECT_EQ(r.MaterializeRows(), r.rows());
  std::vector<Tuple> suffix = r.MaterializeRows(2);
  ASSERT_EQ(suffix.size(), 1u);
  EXPECT_EQ(suffix[0][0].AsNumber(), 5);
  EXPECT_TRUE(r.MaterializeRows(99).empty());
}

TEST(RelationColumnTest, ReleaseColumnsHandsBackColumnsAndResets) {
  Relation r(EdgeSchema());
  ASSERT_TRUE(r.InsertBatch({{Value::Number(1), Value::Number(2)},
                             {Value::Number(3), Value::Number(4)},
                             {Value::Number(1), Value::Number(2)}})
                  .ok());
  std::vector<std::vector<Value>> cols = r.ReleaseColumns();
  ASSERT_EQ(cols.size(), 2u);
  ASSERT_EQ(cols[0].size(), 2u);  // duplicate dropped
  EXPECT_EQ(cols[0][1], Value::Number(3));
  EXPECT_EQ(cols[1][0], Value::Number(2));
  EXPECT_EQ(r.size(), 0u);
  EXPECT_TRUE(r.Insert({Value::Number(1), Value::Number(2)}).value());
}

TEST(RelationColumnTest, InsertColumnsRecyclesStagingBuffers) {
  Relation r(EdgeSchema());
  std::vector<std::vector<Value>> staged(2);
  staged[0] = {Value::Number(1), Value::Number(1)};
  staged[1] = {Value::Number(2), Value::Number(2)};
  Result<size_t> inserted = r.InsertColumns(&staged);
  ASSERT_TRUE(inserted.ok());
  EXPECT_EQ(*inserted, 1u);  // in-batch duplicate dropped
  // Staged columns come back cleared (capacity retained) for reuse.
  EXPECT_TRUE(staged[0].empty());
  EXPECT_TRUE(staged[1].empty());
  staged[0] = {Value::Number(1), Value::Number(9)};
  staged[1] = {Value::Number(2), Value::Number(9)};
  inserted = r.InsertColumns(&staged);
  ASSERT_TRUE(inserted.ok());
  EXPECT_EQ(*inserted, 1u);  // cross-batch duplicate dropped
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r.rows()[1], (Tuple{Value::Number(9), Value::Number(9)}));
}

// ---------------------------------------------------------------------------
// Randomized differential suite: the row-compatible API (Insert /
// InsertBatch / rows) and the columnar API (InsertColumns / ColumnView)
// must agree on contents, insertion order, dedup decisions, and index
// row-lists for identical input streams. Runs under the tsan CI filter.
// ---------------------------------------------------------------------------

class StorageDifferentialTest : public ::testing::Test {
 protected:
  // Feeds `stream` through per-tuple Insert, chunked InsertBatch, and
  // chunked InsertColumns, then cross-checks all three relations.
  void RunDifferential(const std::vector<Tuple>& stream, size_t arity,
                       size_t chunk) {
    RelationSchema s;
    s.name = "diff";
    for (size_t c = 0; c < arity; ++c) {
      s.columns.push_back(Column{"c" + std::to_string(c), ValueType::kNumber});
    }
    Relation serial(s);
    Relation batched(s);
    Relation columnar(s);
    std::vector<bool> serial_decisions;
    for (const Tuple& t : stream) {
      serial_decisions.push_back(serial.Insert(t).value());
    }
    size_t batched_inserted = 0;
    size_t columnar_inserted = 0;
    for (size_t begin = 0; begin < stream.size(); begin += chunk) {
      size_t end = std::min(stream.size(), begin + chunk);
      Result<size_t> b = batched.InsertBatch(
          std::vector<Tuple>(stream.begin() + static_cast<ptrdiff_t>(begin),
                             stream.begin() + static_cast<ptrdiff_t>(end)));
      ASSERT_TRUE(b.ok());
      batched_inserted += *b;
      std::vector<std::vector<Value>> staged(arity);
      for (size_t i = begin; i < end; ++i) {
        for (size_t c = 0; c < arity; ++c) staged[c].push_back(stream[i][c]);
      }
      Result<size_t> cr = columnar.InsertColumns(&staged);
      ASSERT_TRUE(cr.ok());
      columnar_inserted += *cr;
    }
    // Same dedup decisions in aggregate...
    size_t serial_inserted = 0;
    for (bool d : serial_decisions) serial_inserted += d;
    EXPECT_EQ(batched_inserted, serial_inserted);
    EXPECT_EQ(columnar_inserted, serial_inserted);
    // ...and identical contents in identical insertion order.
    ASSERT_EQ(serial.size(), batched.size());
    ASSERT_EQ(serial.size(), columnar.size());
    const std::vector<Tuple>& expect = serial.rows();
    for (size_t i = 0; i < expect.size(); ++i) {
      EXPECT_EQ(expect[i], batched.rows()[i]) << "batched row " << i;
      EXPECT_EQ(expect[i], columnar.rows()[i]) << "columnar row " << i;
      for (size_t c = 0; c < arity; ++c) {
        EXPECT_EQ(columnar.Column(c).at(i), expect[i][c])
            << "column view (" << i << ", " << c << ")";
      }
    }
    // Identical per-key index row-lists on every single-column key.
    for (size_t c = 0; c < arity; ++c) {
      const Relation::KeyIndex& si = serial.GetIndex({static_cast<int>(c)});
      const Relation::KeyIndex& bi = batched.GetIndex({static_cast<int>(c)});
      const Relation::KeyIndex& ci = columnar.GetIndex({static_cast<int>(c)});
      ASSERT_EQ(si.size(), bi.size());
      ASSERT_EQ(si.size(), ci.size());
      for (const auto& [key, rows] : si) {
        ASSERT_NE(bi.find(key), bi.end());
        ASSERT_NE(ci.find(key), ci.end());
        EXPECT_EQ(bi.at(key), rows);
        EXPECT_EQ(ci.at(key), rows);
      }
    }
    // Contains agrees everywhere (present and absent probes).
    for (size_t i = 0; i < stream.size(); i += 7) {
      EXPECT_TRUE(batched.Contains(stream[i]));
      EXPECT_TRUE(columnar.Contains(stream[i]));
    }
  }
};

TEST_F(StorageDifferentialTest, PairNumericFastPath) {
  // Arity-2 all-kNumber: the unboxed InsertPairNumeric path, duplicate
  // heavy so dedup decisions genuinely differ per tuple.
  std::mt19937 rng(1234);
  std::uniform_int_distribution<int> pick(0, 23);
  std::vector<Tuple> stream;
  for (int i = 0; i < 800; ++i) {
    stream.push_back({Value::Number(pick(rng)), Value::Number(pick(rng))});
  }
  RunDifferential(stream, 2, 64);
}

TEST_F(StorageDifferentialTest, MixedKindGenericPath) {
  // Arity-3 with floats/bools mixed in: the generic boxed path, including
  // sidecar materialization mid-stream.
  std::mt19937 rng(4321);
  std::uniform_int_distribution<int> pick(0, 11);
  std::uniform_int_distribution<int> kind(0, 3);
  auto value = [&]() -> Value {
    switch (kind(rng)) {
      case 0: return Value::Number(pick(rng));
      case 1: return Value::Float(pick(rng) / 2.0);
      case 2: return Value::Bool(pick(rng) % 2 == 0);
      default: return Value::Number(-pick(rng));
    }
  };
  std::vector<Tuple> stream;
  for (int i = 0; i < 600; ++i) {
    stream.push_back({value(), value(), value()});
  }
  RunDifferential(stream, 3, 37);
}

TEST_F(StorageDifferentialTest, TinyChunksMatchWholeBatch) {
  std::mt19937 rng(7);
  std::uniform_int_distribution<int> pick(0, 9);
  std::vector<Tuple> stream;
  for (int i = 0; i < 200; ++i) {
    stream.push_back({Value::Number(pick(rng)), Value::Number(pick(rng))});
  }
  RunDifferential(stream, 2, 1);
  RunDifferential(stream, 2, 200);
}

// ---------------------------------------------------------------------------
// 32-bit row-index ceiling: batch paths report a Status (relation and
// staged batch unmodified) instead of the legacy abort.
// ---------------------------------------------------------------------------

TEST(RelationOverflowTest, InsertBatchReportsRowLimitAsStatus) {
  Relation r(EdgeSchema());
  r.SetRowLimitForTesting(3);
  ASSERT_TRUE(r.InsertBatch({{Value::Number(1), Value::Number(2)},
                             {Value::Number(3), Value::Number(4)}})
                  .ok());
  Result<size_t> res = r.InsertBatch({{Value::Number(5), Value::Number(6)},
                                      {Value::Number(7), Value::Number(8)}});
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kInternal);
  EXPECT_NE(res.status().message().find("row-index ceiling"),
            std::string::npos)
      << res.status().ToString();
  // The failed batch left the relation untouched.
  EXPECT_EQ(r.size(), 2u);
  EXPECT_FALSE(r.Contains({Value::Number(5), Value::Number(6)}));
  // A batch that fits still lands.
  ASSERT_TRUE(r.InsertBatch({{Value::Number(5), Value::Number(6)}}).ok());
  EXPECT_EQ(r.size(), 3u);
}

TEST(RelationOverflowTest, CheckIsConservativeBeforeDedup) {
  // The room check counts the whole batch before deduplication: a
  // duplicate-only batch that would not actually grow the relation is
  // still rejected once it could overflow. Loud beats subtly wrong here.
  Relation r(EdgeSchema());
  r.SetRowLimitForTesting(2);
  ASSERT_TRUE(r.InsertBatch({{Value::Number(1), Value::Number(2)},
                             {Value::Number(3), Value::Number(4)}})
                  .ok());
  Result<size_t> res = r.InsertBatch({{Value::Number(1), Value::Number(2)}});
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(r.size(), 2u);
}

TEST(RelationOverflowTest, InsertColumnsReportsAndPreservesStaging) {
  Relation r(EdgeSchema());
  r.SetRowLimitForTesting(1);
  ASSERT_TRUE(r.Insert({Value::Number(1), Value::Number(2)}).value());
  std::vector<std::vector<Value>> staged(2);
  staged[0] = {Value::Number(5)};
  staged[1] = {Value::Number(6)};
  Result<size_t> res = r.InsertColumns(&staged);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kInternal);
  // On error the staged columns are NOT consumed.
  ASSERT_EQ(staged[0].size(), 1u);
  EXPECT_EQ(staged[0][0], Value::Number(5));
  EXPECT_EQ(r.size(), 1u);
}

TEST(RelationSchemaTest, ColumnIndex) {
  RelationSchema s = EdgeSchema();
  EXPECT_EQ(s.ColumnIndex("src"), 0);
  EXPECT_EQ(s.ColumnIndex("dst"), 1);
  EXPECT_EQ(s.ColumnIndex("missing"), -1);
  EXPECT_EQ(s.ToString(), "edge(src: number, dst: number)");
}

TEST(DatabaseTest, CreateAndLookup) {
  Database db;
  auto rel = db.CreateRelation(EdgeSchema());
  ASSERT_TRUE(rel.ok());
  EXPECT_TRUE(db.HasRelation("edge"));
  EXPECT_FALSE(db.CreateRelation(EdgeSchema()).ok());  // duplicate
  auto missing = db.GetRelation("missing");
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(db.RelationNames(), std::vector<std::string>{"edge"});
}

TEST(DatabaseTest, StrInternsSymbols) {
  Database db;
  Value a = db.Str("alpha");
  Value b = db.Str("alpha");
  EXPECT_EQ(a, b);
  EXPECT_EQ(db.symbols().Resolve(a.AsSymbol()), "alpha");
}

TEST(CsvTest, LoadTypedFields) {
  Database db;
  RelationSchema s;
  s.name = "person";
  s.columns = {{"id", ValueType::kNumber},
               {"name", ValueType::kSymbol},
               {"score", ValueType::kFloat}};
  Relation* rel = *db.CreateRelation(s);
  Status st = LoadDelimitedText(&db, rel, "1\tada\t2.5\n2\tbob\t1.0\n");
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_EQ(rel->size(), 2u);
  EXPECT_EQ(rel->rows()[0][1], db.Str("ada"));
  EXPECT_DOUBLE_EQ(rel->rows()[0][2].AsFloat(), 2.5);
}

TEST(CsvTest, RejectsArityMismatch) {
  Database db;
  Relation* rel = *db.CreateRelation(EdgeSchema());
  Status st = LoadDelimitedText(&db, rel, "1\t2\t3\n");
  EXPECT_EQ(st.code(), StatusCode::kParseError);
}

TEST(CsvTest, RejectsBadNumber) {
  Database db;
  Relation* rel = *db.CreateRelation(EdgeSchema());
  Status st = LoadDelimitedText(&db, rel, "1\tnotanumber\n");
  EXPECT_EQ(st.code(), StatusCode::kParseError);
}

TEST(CsvTest, ReportsLineColumnAndTokenOfBadField) {
  Database db;
  Relation* rel = *db.CreateRelation(EdgeSchema());
  // Line 2, second field (character column 3 of "3\tx"): the error must
  // pinpoint all three and quote the offending token.
  Status st = LoadDelimitedText(&db, rel, "1\t2\n3\tx\n");
  ASSERT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_NE(st.message().find("line 2"), std::string::npos) << st.ToString();
  EXPECT_NE(st.message().find("column 3"), std::string::npos)
      << st.ToString();
  EXPECT_NE(st.message().find("field 2"), std::string::npos) << st.ToString();
  EXPECT_NE(st.message().find("'x'"), std::string::npos) << st.ToString();
  // Errors surface before anything is inserted (batch-parsed load).
  EXPECT_EQ(rel->size(), 0u);
}

TEST(CsvTest, RoundTrips) {
  Database db;
  RelationSchema s;
  s.name = "r";
  s.columns = {{"id", ValueType::kNumber}, {"name", ValueType::kSymbol}};
  Relation* rel = *db.CreateRelation(s);
  ASSERT_TRUE(LoadDelimitedText(&db, rel, "1\tada\n2\tbob\n").ok());
  EXPECT_EQ(DumpDelimitedText(db, *rel), "1\tada\n2\tbob\n");
}

}  // namespace
}  // namespace raqlet
