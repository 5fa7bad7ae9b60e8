#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "io/csv.h"
#include "io/table_printer.h"
#include "relation/ops.h"

namespace ajd {
namespace {

TEST(Csv, ReadSimpleWithHeader) {
  std::istringstream in("city,state\nSeattle,WA\nPortland,OR\n");
  Relation r = ReadCsv(in).value();
  EXPECT_EQ(r.NumRows(), 2u);
  EXPECT_EQ(r.schema().attr(0).name, "city");
  EXPECT_EQ(r.RowToString(0), "(Seattle, WA)");
}

TEST(Csv, ReadWithoutHeaderNamesColumns) {
  std::istringstream in("1,2\n3,4\n");
  CsvOptions options;
  options.has_header = false;
  Relation r = ReadCsv(in, options).value();
  EXPECT_EQ(r.schema().attr(0).name, "col0");
  EXPECT_EQ(r.NumRows(), 2u);
}

TEST(Csv, DedupesByDefault) {
  std::istringstream in("a,b\nx,y\nx,y\nx,z\n");
  Relation r = ReadCsv(in).value();
  EXPECT_EQ(r.NumRows(), 2u);
}

TEST(Csv, MultisetModeKeepsDuplicates) {
  std::istringstream in("a\nv\nv\n");
  CsvOptions options;
  options.dedupe = false;
  Relation r = ReadCsv(in, options).value();
  EXPECT_EQ(r.NumRows(), 2u);
}

TEST(Csv, QuotedFieldsWithCommasAndQuotes) {
  std::istringstream in("name,notes\n\"Smith, John\",\"said \"\"hi\"\"\"\n");
  Relation r = ReadCsv(in).value();
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_EQ(r.dict(0)->ValueOf(r.At(0, 0)), "Smith, John");
  EXPECT_EQ(r.dict(1)->ValueOf(r.At(0, 1)), "said \"hi\"");
}

TEST(Csv, RaggedRowsFail) {
  std::istringstream in("a,b\n1\n");
  EXPECT_FALSE(ReadCsv(in).ok());
}

TEST(Csv, EmptyInputFails) {
  std::istringstream in("");
  EXPECT_FALSE(ReadCsv(in).ok());
}

TEST(Csv, RoundTripPreservesRelation) {
  std::istringstream in("a,b\nx,1\ny,2\nz,1\n");
  Relation r = ReadCsv(in).value();
  std::ostringstream out;
  ASSERT_TRUE(WriteCsv(r, out).ok());
  std::istringstream back(out.str());
  Relation r2 = ReadCsv(back).value();
  EXPECT_TRUE(SetEquals(Project(r, r.schema().AllAttrs()),
                        Project(r2, r2.schema().AllAttrs())));
}

TEST(Csv, WriteQuotesWhenNeeded) {
  Schema s = Schema::Make({{"n", 0}}).value();
  RelationBuilder b(s);
  b.AddStringRow({"has,comma"});
  Relation r = std::move(b).Build();
  std::ostringstream out;
  ASSERT_TRUE(WriteCsv(r, out).ok());
  EXPECT_NE(out.str().find("\"has,comma\""), std::string::npos);
}

TEST(Csv, FileRoundTrip) {
  Schema s = Schema::Make({{"k", 0}, {"v", 0}}).value();
  RelationBuilder b(s);
  b.AddStringRow({"a", "1"});
  b.AddStringRow({"b", "2"});
  Relation r = std::move(b).Build();
  const std::string path = "/tmp/ajd_csv_test.csv";
  ASSERT_TRUE(WriteCsvFile(r, path).ok());
  Relation r2 = ReadCsvFile(path).value();
  EXPECT_EQ(r2.NumRows(), 2u);
}

TEST(Csv, MissingFileFails) {
  EXPECT_EQ(ReadCsvFile("/nonexistent/x.csv").status().code(),
            StatusCode::kIoError);
}

TEST(Csv, ResumeIngestMatchesUninterruptedBitIdentical) {
  // An ingest that stops after two committed batches (the "crash"), then a
  // second pass resuming at the recorded offset, must land exactly the
  // relation an uninterrupted ingest produces.
  const std::string text =
      "a,b\n"
      "x1,y1\nx2,y2\n"
      "x3,y3\nx4,y4\n"
      "x5,y5\nx6,y6\nx7,y7\n";
  CsvOptions opts;
  opts.dedupe = false;
  auto empty_rel = [] {
    Schema s = Schema::Make({{"a", 0}, {"b", 0}}).value();
    return std::move(RelationBuilder(s)).Build(false);
  };

  Relation clean = empty_rel();
  {
    std::istringstream in(text);
    ASSERT_TRUE(AppendCsvBatches(in, &clean, opts, 2).ok());
    ASSERT_EQ(clean.NumRows(), 7u);
  }

  // First pass sees only a prefix of the file (the bytes that made it
  // before the interruption): 4 complete data rows.
  const size_t prefix_end = text.find("x5");
  Relation r = empty_rel();
  CsvIngestSummary first;
  {
    std::istringstream in(text.substr(0, prefix_end));
    ASSERT_TRUE(AppendCsvBatches(in, &r, opts, 2, &first).ok());
  }
  EXPECT_EQ(first.batches_committed, 2u);
  EXPECT_EQ(r.NumRows(), 4u);
  ASSERT_EQ(first.resume_offset, static_cast<int64_t>(prefix_end));

  // Second pass: the full file again, resumed at the recorded offset. The
  // header lies before the offset — the continuation must not re-consume
  // (or misparse) it.
  CsvIngestSummary resumed;
  {
    std::istringstream in(text);
    ASSERT_TRUE(
        ResumeCsvIngest(in, &r, opts, 2, first.resume_offset, &resumed)
            .ok());
  }
  EXPECT_EQ(resumed.rows_appended, 3u);
  EXPECT_EQ(r.NumRows(), clean.NumRows());
  EXPECT_EQ(r.data(), clean.data());
  for (uint32_t a = 0; a < 2; ++a) {
    ASSERT_NE(r.dict(a), nullptr);
    EXPECT_EQ(r.dict(a)->size(), clean.dict(a)->size());
  }
}

TEST(Csv, ResumeAtEndOfFileAppendsNothing) {
  // A clean ingest reports the end of the file as its resume offset;
  // resuming there must succeed with nothing left to append.
  const std::string text = "a,b\nx,y\nu,v\n";
  Schema s = Schema::Make({{"a", 0}, {"b", 0}}).value();
  Relation r = std::move(RelationBuilder(s)).Build(false);
  CsvOptions opts;
  CsvIngestSummary first;
  {
    std::istringstream in(text);
    ASSERT_TRUE(AppendCsvBatches(in, &r, opts, 2, &first).ok());
  }
  ASSERT_EQ(first.resume_offset, 12);
  const std::vector<uint32_t> data = r.data();
  const uint64_t epoch = r.epoch();

  std::istringstream in(text);
  CsvIngestSummary resumed;
  Status st = ResumeCsvIngest(in, &r, opts, 2, first.resume_offset, &resumed);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(resumed.rows_read, 0u);
  EXPECT_EQ(resumed.rows_appended, 0u);
  EXPECT_EQ(resumed.batches_committed, 0u);
  EXPECT_EQ(resumed.resume_offset, 12);  // resumable again, at the same spot
  EXPECT_EQ(r.data(), data);
  EXPECT_EQ(r.epoch(), epoch);
}

TEST(Csv, ResumeIngestRejectsNegativeOffset) {
  std::istringstream in("a,b\nx,y\n");
  Schema s = Schema::Make({{"a", 0}, {"b", 0}}).value();
  Relation r = std::move(RelationBuilder(s)).Build(false);
  CsvOptions opts;
  // -1 is AppendCsvBatches' "stream not resumable" sentinel.
  EXPECT_EQ(ResumeCsvIngest(in, &r, opts, 2, -1).code(),
            StatusCode::kInvalidArgument);
}

TEST(TablePrinter, AlignsColumns) {
  TablePrinter t({"id", "value"});
  t.AddRow({"1", "short"});
  t.AddRow({"22", "a-much-longer-value"});
  std::string out = t.Render();
  // Header, rule, two rows.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
  EXPECT_NE(out.find("id"), std::string::npos);
  EXPECT_NE(out.find("a-much-longer-value"), std::string::npos);
}

TEST(TablePrinter, CountsRows) {
  TablePrinter t({"x"});
  EXPECT_EQ(t.NumRows(), 0u);
  t.AddRow({"1"});
  EXPECT_EQ(t.NumRows(), 1u);
}

}  // namespace
}  // namespace ajd
