// The relation's dedupe index (a set of row numbers probing the relation's
// own rows) against a TupleCounter oracle: random sequences of deduped and
// multiset appends, copies, moves, FromRows/Build(dedupe) rebuilds and
// failed appends must keep exactly the rows the oracle keeps, in the same
// order, with matching NumDistinctRows and ContainsRow. Also the row
// ceiling every append enforces.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "io/csv.h"
#include "random/rng.h"
#include "relation/relation.h"
#include "relation/row_hash.h"
#include "util/failpoint.h"

namespace ajd {
namespace {

#ifdef AJD_ENABLE_FAILPOINTS
constexpr bool kFailpointsCompiledIn = true;
#else
constexpr bool kFailpointsCompiledIn = false;
#endif

constexpr uint32_t kWidth = 3;
constexpr uint32_t kDomain = 3;  // 27 distinct rows: duplicates are common

std::vector<std::vector<uint32_t>> RandomRows(Rng* rng, uint32_t count) {
  std::vector<std::vector<uint32_t>> rows(count, std::vector<uint32_t>(kWidth));
  for (auto& row : rows) {
    for (auto& v : row) v = static_cast<uint32_t>(rng->UniformU64(kDomain));
  }
  return rows;
}

// The oracle: the kept rows, row-major, maintained with a TupleCounter.
struct Oracle {
  std::vector<uint32_t> data;

  TupleCounter Index() const {
    TupleCounter c(kWidth);
    for (size_t i = 0; i < data.size(); i += kWidth) c.Add(&data[i]);
    return c;
  }

  void Append(const std::vector<std::vector<uint32_t>>& rows, bool dedupe) {
    TupleCounter seen = Index();
    for (const auto& row : rows) {
      if (dedupe && seen.Find(row.data()) != UINT32_MAX) continue;
      seen.Add(row.data());
      data.insert(data.end(), row.begin(), row.end());
    }
  }

  void Rebuild(const std::vector<std::vector<uint32_t>>& rows, bool dedupe) {
    data.clear();
    Append(rows, dedupe);
  }
};

void ExpectAgrees(const Relation& r, const Oracle& o, Rng* rng,
                  const std::string& ctx) {
  ASSERT_EQ(r.data(), o.data) << ctx;
  const TupleCounter index = o.Index();
  EXPECT_EQ(r.NumDistinctRows(), index.NumDistinct()) << ctx;
  EXPECT_EQ(r.HasDuplicateRows(), index.NumDistinct() != r.NumRows()) << ctx;
  for (const auto& probe : RandomRows(rng, 6)) {
    EXPECT_EQ(r.ContainsRow(probe.data()),
              index.Find(probe.data()) != UINT32_MAX)
        << ctx;
  }
}

Schema TestSchema() {
  return Schema::MakeSynthetic({kDomain, kDomain, kDomain}).value();
}

TEST(DedupeIndex, RandomAppendSequencesMatchTupleCounterOracle) {
  Rng rng(9001);
  for (int trial = 0; trial < 40; ++trial) {
    Oracle o;
    Relation r = Relation::FromRows(TestSchema(), {}, true).value();
    for (int step = 0; step < 60; ++step) {
      const std::string ctx =
          "trial " + std::to_string(trial) + " step " + std::to_string(step);
      const auto rows =
          RandomRows(&rng, static_cast<uint32_t>(rng.UniformU64(9)));
      const bool dedupe = rng.Bernoulli(0.6);
      switch (rng.UniformU64(8)) {
        case 0: {  // copy: the index is not copied and rebuilds lazily
          Relation copy(r);
          r = rng.Bernoulli(0.5) ? copy : Relation(copy);
          break;
        }
        case 1: {  // move there and back: the index travels with the rows
          Relation moved(std::move(r));
          r = std::move(moved);
          break;
        }
        case 2: {  // a fresh relation from FromRows / Build(dedupe)
          r = Relation::FromRows(TestSchema(), rows, dedupe).value();
          o.Rebuild(rows, dedupe);
          break;
        }
        case 3: {  // a width mismatch fails and changes nothing
          auto bad = rows;
          bad.push_back({0});
          EXPECT_EQ(r.AppendBatch(bad, dedupe).code(),
                    StatusCode::kInvalidArgument)
              << ctx;
          break;
        }
        case 4: {  // an injected mid-batch failure rolls back
          if (!kFailpointsCompiledIn || rows.empty()) break;
          const char* point = rng.Bernoulli(0.5)
                                  ? failpoints::kRelationAppendStage
                                  : failpoints::kRelationAppendReserve;
          FailpointRegistry::Instance().Arm(
              point, FailpointConfig::OneShot(
                         point == failpoints::kRelationAppendStage
                             ? rng.UniformU64(rows.size())
                             : 0));
          EXPECT_EQ(r.AppendBatch(rows, dedupe).code(),
                    StatusCode::kCapacityExceeded)
              << ctx;
          FailpointRegistry::Instance().DisarmAll();
          break;
        }
        default: {
          const uint64_t epoch = r.epoch();
          const size_t before = o.data.size();
          ASSERT_TRUE(r.AppendBatch(rows, dedupe).ok()) << ctx;
          o.Append(rows, dedupe);
          EXPECT_EQ(r.epoch(), epoch + (o.data.size() > before ? 1 : 0))
              << ctx;
          break;
        }
      }
      ExpectAgrees(r, o, &rng, ctx);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(DedupeIndex, BuildKeepsFirstOccurrencesInOrder) {
  Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    const auto rows =
        RandomRows(&rng, static_cast<uint32_t>(rng.UniformU64(300)));
    RelationBuilder b(TestSchema());
    for (const auto& row : rows) b.AddRow(row);
    const Relation r = std::move(b).Build(/*dedupe=*/true);
    Oracle o;
    o.Rebuild(rows, true);
    ExpectAgrees(r, o, &rng, "trial " + std::to_string(trial));
  }
}

// Restores the default ceiling when a test ends, pass or fail.
struct RowCeilingGuard {
  explicit RowCeilingGuard(uint64_t rows) {
    relation_internal::SetRowCeiling(rows);
  }
  ~RowCeilingGuard() { relation_internal::SetRowCeiling(kMaxRelationRows); }
};

TEST(RowCeiling, AppendPastTheCeilingFailsAndLeavesTheRelation) {
  RowCeilingGuard ceiling(5);
  Relation r = Relation::FromRows(TestSchema(), {{0, 0, 0}, {1, 1, 1}}).value();
  ASSERT_TRUE(r.AppendBatch({{2, 2, 2}, {0, 1, 2}}, /*dedupe=*/true).ok());
  ASSERT_EQ(r.NumRows(), 4u);
  const std::vector<uint32_t> data = r.data();
  const uint64_t epoch = r.epoch();
  const Schema schema = r.schema();

  // Two more rows would make 6 > 5. The batch counts whole, even when
  // dedupe would drop one of its rows.
  for (bool dedupe : {true, false}) {
    Status s = r.AppendBatch({{0, 0, 0}, {7, 7, 7}}, dedupe);
    EXPECT_EQ(s.code(), StatusCode::kCapacityExceeded) << s.ToString();
    EXPECT_EQ(r.data(), data);
    EXPECT_EQ(r.NumRows(), 4u);
    EXPECT_EQ(r.epoch(), epoch);
    for (uint32_t a = 0; a < kWidth; ++a) {
      EXPECT_EQ(r.schema().attr(a).domain_size, schema.attr(a).domain_size);
    }
  }
  // Up to the ceiling is fine; past it is not.
  ASSERT_TRUE(r.AppendBatch({{2, 1, 0}}).ok());
  EXPECT_EQ(r.NumRows(), 5u);
  EXPECT_EQ(r.AppendBatch({{2, 1, 1}}).code(), StatusCode::kCapacityExceeded);
  // An empty batch never trips it.
  EXPECT_TRUE(r.AppendBatch({}).ok());
}

TEST(RowCeiling, StringAndCsvAppendsRollBackTheirDictionaries) {
  RowCeilingGuard ceiling(3);
  Relation r = Relation::FromRows(Schema::MakeUniform({"a", "b"}, 0).value(),
                                  {}, true)
                   .value();
  ASSERT_TRUE(r.AppendStringBatch({{"x", "y"}, {"u", "v"}}).ok());
  const uint32_t dict_a = r.dict(0)->size();
  Status s = r.AppendStringBatch({{"fresh", "y"}, {"x", "fresh"}});
  EXPECT_EQ(s.code(), StatusCode::kCapacityExceeded);
  EXPECT_EQ(r.NumRows(), 2u);
  EXPECT_EQ(r.dict(0)->size(), dict_a);
  EXPECT_FALSE(r.dict(0)->Lookup("fresh").has_value());
  EXPECT_FALSE(r.dict(1)->Lookup("fresh").has_value());

  // Through the CSV reader: the first batch (one row) lands, the second
  // would pass the ceiling; the summary says what committed.
  std::istringstream in("a,b\nc,d\ne,f\ng,h\n");
  CsvOptions opts;
  CsvIngestSummary summary;
  EXPECT_EQ(AppendCsvBatches(in, &r, opts, 1, &summary).code(),
            StatusCode::kCapacityExceeded);
  EXPECT_EQ(r.NumRows(), 3u);
  EXPECT_EQ(summary.batches_committed, 1u);
  EXPECT_EQ(summary.resume_offset, 8);
  EXPECT_FALSE(r.dict(0)->Lookup("e").has_value());
}

}  // namespace
}  // namespace ajd
