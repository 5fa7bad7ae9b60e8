// Differential and fuzz tests for the CSV readers.
//
// The oracle is the original line-at-a-time reader: std::getline plus the
// quote-aware splitter below, kept verbatim, with the relation side
// modelled independently (codes in order of first appearance per
// attribute, set semantics by exact row comparison). Over seeded random
// texts — quoted separators, doubled quotes, '\r' inside and outside
// quotes, "\r\n" endings, empty lines, a missing final newline, ragged
// rows, custom separators — ReadCsv, ReadCsvBatches and AppendCsvBatches
// must agree with it on rows, dictionaries, epochs, ingest summaries and
// error codes, at batch sizes 1..7 with dedupe on and off, from seekable
// streams and from pipe-like ones that deliver a few bytes at a time. A
// byte-mutation fuzz (flip, insert, delete) then checks that arbitrary
// input yields a Status — the same one as the oracle — and never an abort.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "io/csv.h"
#include "random/rng.h"
#include "relation/relation.h"

namespace ajd {
namespace {

// ---------------------------------------------------------------------------
// Oracle: the original reader.
// ---------------------------------------------------------------------------

// Splits one CSV line honoring double-quoted fields with doubled quotes.
std::vector<std::string> OracleSplitCsvLine(const std::string& line,
                                            char sep) {
  std::vector<std::string> fields;
  std::string current;
  bool in_quotes = false;
  for (size_t i = 0; i < line.size(); ++i) {
    char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        current += c;
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == sep) {
      fields.push_back(std::move(current));
      current.clear();
    } else if (c != '\r') {
      current += c;
    }
  }
  fields.push_back(std::move(current));
  return fields;
}

// The stream offset after a getline, as the original ingest read it: at
// the end of the input tellg() fails until the state is cleared.
int64_t TellAfterLine(std::istream& in) {
  std::streampos pos = in.tellg();
  if (pos == std::streampos(-1) && in.eof()) {
    in.clear();
    pos = in.tellg();
  }
  return static_cast<int64_t>(pos);
}

struct OracleRow {
  std::vector<std::string> fields;
  int64_t end_offset = -1;  // stream offset just past the row's line
};

// Everything the original reader saw in one pass: the header and the data
// rows up to the first ragged one.
struct OracleParse {
  bool have_header = false;
  std::vector<std::string> header;
  std::vector<OracleRow> rows;
  bool ragged = false;
  int64_t eof_offset = -1;
};

OracleParse ParseWithOracle(const std::string& text,
                            const CsvOptions& options) {
  OracleParse p;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::vector<std::string> fields =
        OracleSplitCsvLine(line, options.separator);
    if (!p.have_header) {
      p.have_header = true;
      if (options.has_header) {
        p.header = std::move(fields);
        continue;
      }
      for (size_t i = 0; i < fields.size(); ++i) {
        p.header.push_back("col" + std::to_string(i));
      }
    }
    if (fields.size() != p.header.size()) {
      p.ragged = true;
      return p;
    }
    p.rows.push_back({std::move(fields), TellAfterLine(in)});
  }
  p.eof_offset = TellAfterLine(in);
  return p;
}

// The relation side: dictionaries in order of first appearance, exact set
// semantics, domains covering the landed codes, one epoch per batch that
// landed a row.
struct OracleRelation {
  explicit OracleRelation(size_t width)
      : codes(width), values(width), domain(width, 0) {}

  // Interns every row (dropped duplicates included) and returns the number
  // of rows that landed.
  uint64_t Append(const std::vector<std::vector<std::string>>& batch,
                  bool dedupe) {
    if (batch.empty()) return 0;
    has_dicts = true;
    uint64_t landed = 0;
    for (const auto& row : batch) {
      std::vector<uint32_t> coded(row.size());
      for (size_t a = 0; a < row.size(); ++a) {
        auto [it, fresh] = codes[a].emplace(
            row[a], static_cast<uint32_t>(values[a].size()));
        if (fresh) values[a].push_back(row[a]);
        coded[a] = it->second;
      }
      const bool is_new = seen.insert(coded).second;
      if (dedupe && !is_new) continue;
      for (size_t a = 0; a < coded.size(); ++a) {
        domain[a] = std::max<uint64_t>(domain[a], uint64_t{coded[a]} + 1);
      }
      data.insert(data.end(), coded.begin(), coded.end());
      ++landed;
    }
    if (landed > 0) ++epoch;
    return landed;
  }

  bool has_dicts = false;
  std::vector<std::map<std::string, uint32_t>> codes;
  std::vector<std::vector<std::string>> values;
  std::vector<uint64_t> domain;
  std::set<std::vector<uint32_t>> seen;
  std::vector<uint32_t> data;
  uint64_t epoch = 0;
};

void ExpectMatchesOracle(const Relation& r, const OracleRelation& o,
                         const std::string& ctx) {
  EXPECT_EQ(r.data(), o.data) << ctx;
  EXPECT_EQ(r.NumRows() * r.NumAttrs(), o.data.size()) << ctx;
  EXPECT_EQ(r.epoch(), o.epoch) << ctx;
  for (uint32_t a = 0; a < r.NumAttrs(); ++a) {
    EXPECT_EQ(r.schema().attr(a).domain_size, o.domain[a]) << ctx;
    const Dictionary* d = r.dict(a);
    ASSERT_EQ(d != nullptr, o.has_dicts) << ctx << " attr " << a;
    if (d == nullptr) continue;
    ASSERT_EQ(d->size(), o.values[a].size()) << ctx << " attr " << a;
    for (uint32_t c = 0; c < d->size(); ++c) {
      EXPECT_EQ(d->ValueOf(c), o.values[a][c]) << ctx << " attr " << a;
    }
  }
}

// ---------------------------------------------------------------------------
// Expected results of the three readers, derived from the oracle.
// ---------------------------------------------------------------------------

StatusCode OracleSchemaCode(const std::vector<std::string>& header) {
  return Schema::MakeUniform(header, 0).status().code();
}

struct Delivery {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> batch;
  bool operator==(const Delivery& o) const {
    return header == o.header && batch == o.batch;
  }
};

// ReadCsvBatches with a sink that accepts everything.
StatusCode OracleReadBatches(const OracleParse& p, uint64_t batch_rows,
                             std::vector<Delivery>* out) {
  std::vector<std::vector<std::string>> batch;
  bool delivered = false;
  for (const OracleRow& row : p.rows) {
    batch.push_back(row.fields);
    if (batch.size() >= batch_rows) {
      out->push_back({p.header, std::move(batch)});
      batch.clear();
      delivered = true;
    }
  }
  if (p.ragged || !p.have_header) return StatusCode::kInvalidArgument;
  if (!batch.empty() || !delivered) out->push_back({p.header, batch});
  return StatusCode::kOk;
}

// AppendCsvBatches into an empty relation named `names`.
StatusCode OracleAppendBatches(const OracleParse& p,
                               const std::vector<std::string>& names,
                               const CsvOptions& options, uint64_t batch_rows,
                               OracleRelation* rel, CsvIngestSummary* s) {
  auto commit = [&](const std::vector<std::vector<std::string>>& batch,
                    int64_t offset) {
    if (p.header.size() != names.size()) return StatusCode::kInvalidArgument;
    if (options.has_header && p.header != names) {
      return StatusCode::kInvalidArgument;
    }
    if (!batch.empty()) {
      s->rows_appended += rel->Append(batch, options.dedupe);
      s->rows_read += batch.size();
      ++s->batches_committed;
    }
    s->resume_offset = offset;
    return StatusCode::kOk;
  };
  std::vector<std::vector<std::string>> batch;
  bool delivered = false;
  for (const OracleRow& row : p.rows) {
    batch.push_back(row.fields);
    if (batch.size() >= batch_rows) {
      StatusCode c = commit(batch, row.end_offset);
      if (c != StatusCode::kOk) return c;
      batch.clear();
      delivered = true;
    }
  }
  if (p.ragged || !p.have_header) return StatusCode::kInvalidArgument;
  if (!batch.empty() || !delivered) return commit(batch, p.eof_offset);
  return StatusCode::kOk;
}

// ---------------------------------------------------------------------------
// Random CSV texts.
// ---------------------------------------------------------------------------

const char* const kPlain[] = {"a", "b", "ab", "x y", "1", "22", "", "z"};

std::string RandomField(Rng* rng, char sep) {
  std::string v = kPlain[rng->UniformU64(8)];
  switch (rng->UniformU64(8)) {
    case 0: {  // quoted, with a separator, a doubled quote or a '\r' inside
      std::string inner = v;
      const char extras[] = {sep, '"', '\r', 'q'};
      inner.insert(rng->UniformU64(inner.size() + 1), 1,
                   extras[rng->UniformU64(4)]);
      std::string out = "\"";
      for (char c : inner) {
        out += c;
        if (c == '"') out += c;
      }
      return out + "\"";
    }
    case 1:  // a '\r' outside quotes, mid-field
      v.insert(rng->UniformU64(v.size() + 1), 1, '\r');
      return v;
    case 2:  // a quoted span inside a field
      return v + "\"" + std::string(1, sep) + "\"" + v;
    case 3:  // an unterminated quote: the rest of the line is quoted
      if (rng->Bernoulli(0.2)) return v + "\"";
      return v;
    default:
      return v;
  }
}

struct RandomText {
  std::string text;
  std::vector<std::string> names;  // the header the rows were drawn for
};

RandomText RandomCsv(Rng* rng, const CsvOptions& options, uint32_t width,
                     uint32_t lines) {
  RandomText t;
  const char sep = options.separator;
  for (uint32_t a = 0; a < width; ++a) {
    t.names.push_back("h" + std::to_string(a));
  }
  auto end_line = [&](std::string* out) {
    *out += rng->Bernoulli(0.3) ? "\r\n" : "\n";
    while (rng->Bernoulli(0.15)) *out += rng->Bernoulli(0.8) ? "\n" : "\r\n";
  };
  if (rng->Bernoulli(0.1)) t.text += "\n";  // leading empty line
  if (options.has_header) {
    std::vector<std::string> header = t.names;
    if (rng->Bernoulli(0.05)) header[0] = header.back();  // duplicate name
    if (rng->Bernoulli(0.05)) header[0] = "other";        // mismatch
    for (uint32_t a = 0; a < width; ++a) {
      if (a > 0) t.text += sep;
      t.text += header[a];
    }
    end_line(&t.text);
  }
  const bool ragged = rng->Bernoulli(0.1);
  const uint32_t ragged_at = static_cast<uint32_t>(rng->UniformU64(lines + 1));
  for (uint32_t i = 0; i < lines; ++i) {
    uint32_t w = width;
    if (ragged && i == ragged_at) {
      w = rng->Bernoulli(0.5) ? width + 1 : width - 1;
    }
    for (uint32_t a = 0; a < w; ++a) {
      if (a > 0) t.text += sep;
      t.text += RandomField(rng, sep);
    }
    if (i + 1 < lines || rng->Bernoulli(0.7)) end_line(&t.text);
  }
  return t;
}

CsvOptions RandomOptions(Rng* rng) {
  CsvOptions o;
  const char seps[] = {',', ',', ';', '\t', '|'};
  o.separator = seps[rng->UniformU64(5)];
  o.has_header = rng->Bernoulli(0.7);
  o.dedupe = rng->Bernoulli(0.5);
  return o;
}

// A stream buffer that cannot seek (tellg() is always -1) and hands out
// `chunk` bytes per underflow with no lookahead, like a pipe.
class ChunkedBuf : public std::streambuf {
 public:
  ChunkedBuf(const std::string& text, size_t chunk)
      : text_(text), chunk_(chunk) {}

  // Bytes handed out so far.
  size_t served() const { return next_; }

 protected:
  int_type underflow() override {
    if (next_ >= text_.size()) return traits_type::eof();
    char* p = &text_[next_];
    const size_t n = std::min(chunk_, text_.size() - next_);
    setg(p, p, p + n);
    next_ += n;
    return traits_type::to_int_type(*p);
  }

 private:
  std::string text_;
  size_t chunk_;
  size_t next_ = 0;
};

Relation EmptyRelation(const std::vector<std::string>& names) {
  return Relation::FromRows(Schema::MakeUniform(names, 0).value(), {}, true)
      .value();
}

// Runs every reader on `text` and compares each with the oracle. The
// appends also read through a pipe-like stream that hands out
// `pipe_chunk` bytes at a time.
void CheckAllReaders(const std::string& text,
                     const std::vector<std::string>& names,
                     const CsvOptions& options, uint64_t batch_rows,
                     size_t pipe_chunk, const std::string& ctx) {
  const OracleParse p = ParseWithOracle(text, options);

  // ReadCsv.
  {
    StatusCode want = StatusCode::kOk;
    if (p.ragged || !p.have_header) {
      want = StatusCode::kInvalidArgument;
    } else {
      want = OracleSchemaCode(p.header);
    }
    std::istringstream in(text);
    Result<Relation> got = ReadCsv(in, options);
    ASSERT_EQ(got.status().code(), want) << ctx << " ReadCsv "
                                         << got.status().ToString();
    if (got.ok()) {
      OracleRelation o(p.header.size());
      std::vector<std::vector<std::string>> all;
      for (const OracleRow& row : p.rows) all.push_back(row.fields);
      o.Append(all, options.dedupe);
      o.epoch = 0;  // a built relation starts at epoch 0
      const Relation& r = got.value();
      for (uint32_t a = 0; a < r.NumAttrs(); ++a) {
        EXPECT_EQ(r.schema().attr(a).name, p.header[a]) << ctx;
      }
      ExpectMatchesOracle(r, o, ctx + " ReadCsv");
    }
  }

  // ReadCsvBatches.
  {
    std::vector<Delivery> want;
    const StatusCode want_code = OracleReadBatches(p, batch_rows, &want);
    std::vector<Delivery> got;
    std::istringstream in(text);
    Status s = ReadCsvBatches(
        in, options, batch_rows,
        [&](const std::vector<std::string>& header,
            std::vector<std::vector<std::string>> batch) {
          got.push_back({header, std::move(batch)});
          return Status::OK();
        });
    EXPECT_EQ(s.code(), want_code) << ctx << " ReadCsvBatches";
    EXPECT_TRUE(got == want) << ctx << " ReadCsvBatches deliveries";
  }

  // AppendCsvBatches, on a seekable and on an unseekable stream.
  OracleRelation o(names.size());
  CsvIngestSummary want;
  const StatusCode want_code =
      OracleAppendBatches(p, names, options, batch_rows, &o, &want);
  for (bool seekable : {true, false}) {
    Relation r = EmptyRelation(names);
    CsvIngestSummary got;
    ChunkedBuf buf(text, pipe_chunk);
    std::istream pipe(&buf);
    std::istringstream seekable_in(text);
    std::istream& in =
        seekable ? static_cast<std::istream&>(seekable_in) : pipe;
    const Status s = AppendCsvBatches(in, &r, options, batch_rows, &got);
    const std::string where =
        ctx + (seekable ? " AppendCsvBatches" : " piped AppendCsvBatches");
    ASSERT_EQ(s.code(), want_code) << where << " " << s.ToString();
    EXPECT_EQ(got.rows_read, want.rows_read) << where;
    EXPECT_EQ(got.rows_appended, want.rows_appended) << where;
    EXPECT_EQ(got.batches_committed, want.batches_committed) << where;
    EXPECT_EQ(got.resume_offset, seekable ? want.resume_offset : -1) << where;
    ExpectMatchesOracle(r, o, where);

    // A clean ingest ends at a resumable offset past every row: resuming
    // there appends nothing and succeeds.
    if (seekable && s.ok() && got.resume_offset >= 0) {
      std::istringstream again(text);
      CsvIngestSummary resumed;
      ASSERT_TRUE(ResumeCsvIngest(again, &r, options, batch_rows,
                                  got.resume_offset, &resumed)
                      .ok())
          << where << " resume at " << got.resume_offset;
      EXPECT_EQ(resumed.rows_appended, 0u) << where;
      ExpectMatchesOracle(r, o, where + " after resume");
    }
  }
}

TEST(CsvDifferential, RandomTextsMatchTheOriginalReader) {
  Rng rng(20231);
  for (int iter = 0; iter < 1500; ++iter) {
    const CsvOptions options = RandomOptions(&rng);
    const uint32_t width = 1 + static_cast<uint32_t>(rng.UniformU64(4));
    const uint32_t lines = static_cast<uint32_t>(rng.UniformU64(25));
    const RandomText t = RandomCsv(&rng, options, width, lines);
    const uint64_t batch_rows = 1 + rng.UniformU64(7);
    CheckAllReaders(t.text, t.names, options, batch_rows,
                    1 + rng.UniformU64(7), "iter " + std::to_string(iter));
    if (HasFatalFailure()) return;
  }
}

TEST(CsvDifferential, EdgeTexts) {
  CsvOptions header;
  CsvOptions bare;
  bare.has_header = false;
  const std::vector<std::string> texts = {
      "",
      "\n\n",
      "h0\n",
      "h0",
      "h0\r\n\r\n",
      "h0\n\r\n",
      "h0,h1\nx,y",
      "h0,h1\n\"a,b\",\"c\"\"d\"\n",
      "h0,h1\na\rb,c\r\n",
      "h0,h1\n\"a\rb\",c\n",
      "h0,h1\n\"unterminated,x\n",
      "h0,h1\nx,y\n\nx,y\n\n",
      "h0,h1\n,\n,\n",
  };
  for (const std::string& text : texts) {
    for (const CsvOptions& o : {header, bare}) {
      for (uint64_t batch = 1; batch <= 3; ++batch) {
        const std::string ctx = "text '" + text + "'";
        CheckAllReaders(text, {"h0", "h1"}, o, batch, batch, ctx);
        CheckAllReaders(text, {"h0"}, o, batch, text.size() + 1, ctx);
      }
    }
  }
}

TEST(CsvDifferential, LargeInputsCrossBlockBoundaries) {
  // Several hundred kilobytes, so rows and batches straddle the reader's
  // blocks, plus one field longer than a block.
  Rng rng(77);
  CsvOptions options;
  std::string text = "h0,h1,h2\n";
  for (int i = 0; i < 40000; ++i) {
    text += "v" + std::to_string(rng.UniformU64(300)) + ",";
    text += rng.Bernoulli(0.1) ? "\"q,\"\"" + std::to_string(i % 50) + "\""
                               : std::to_string(rng.UniformU64(40));
    text += "," + std::string(1 + rng.UniformU64(12), 'x');
    text += rng.Bernoulli(0.2) ? "\r\n" : "\n";
    if (i == 20000) text += "long," + std::string(700000, 'L') + ",end\n";
  }
  for (bool dedupe : {true, false}) {
    options.dedupe = dedupe;
    for (uint64_t batch : {1u, 7u, 5000u, 65536u}) {
      CheckAllReaders(text, {"h0", "h1", "h2"}, options, batch,
                      batch == 7 ? 4093 : text.size(),
                      "large batch " + std::to_string(batch));
    }
  }
}

TEST(CsvDifferential, TooManyColumnsIsCapacityExceeded) {
  std::string header;
  for (int a = 0; a < 65; ++a) {
    header += (a > 0 ? ",c" : "c") + std::to_string(a);
  }
  std::istringstream in(header + "\n");
  EXPECT_EQ(ReadCsv(in).status().code(), StatusCode::kCapacityExceeded);
}

TEST(CsvPipe, BatchesArriveWithoutWaitingForMoreInput) {
  // Fed by a pipe, the reader hands over a batch as soon as its rows have
  // arrived instead of waiting to fill a large read buffer first.
  std::string text = "a,b\n";
  for (int i = 0; i < 200; ++i) text += "x" + std::to_string(i) + ",y\n";
  const size_t first_batch_end = text.find("x2,");  // header + 2 rows
  ChunkedBuf buf(text, 16);
  std::istream in(&buf);
  size_t served_at_first_batch = 0;
  uint64_t rows = 0;
  Status s = ReadCsvBatches(
      in, CsvOptions{}, 2,
      [&](const std::vector<std::string>&,
          std::vector<std::vector<std::string>> batch) {
        if (rows == 0) served_at_first_batch = buf.served();
        rows += batch.size();
        return Status::OK();
      });
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(rows, 200u);
  EXPECT_GT(served_at_first_batch, 0u);
  EXPECT_LE(served_at_first_batch, first_batch_end + 16);
}

// ---------------------------------------------------------------------------
// Byte-mutation fuzz.
// ---------------------------------------------------------------------------

TEST(CsvFuzz, MutatedTextsYieldTheOraclesStatus) {
  Rng rng(424242);
  const char interesting[] = {',', ';', '"', '\r', '\n', 'a', '\0', '\xff'};
  for (int iter = 0; iter < 1500; ++iter) {
    CsvOptions options = RandomOptions(&rng);
    const uint32_t width = 1 + static_cast<uint32_t>(rng.UniformU64(3));
    RandomText t = RandomCsv(&rng, options, width,
                             static_cast<uint32_t>(rng.UniformU64(12)));
    const int mutations = 1 + static_cast<int>(rng.UniformU64(4));
    for (int m = 0; m < mutations; ++m) {
      const size_t at = rng.UniformU64(t.text.size() + 1);
      const char byte = rng.Bernoulli(0.7)
                            ? interesting[rng.UniformU64(sizeof(interesting))]
                            : static_cast<char>(rng.UniformU64(256));
      switch (rng.UniformU64(3)) {
        case 0:  // flip
          if (at < t.text.size()) t.text[at] = byte;
          break;
        case 1:  // insert
          t.text.insert(at, 1, byte);
          break;
        default:  // delete
          if (at < t.text.size()) t.text.erase(at, 1);
          break;
      }
    }
    CheckAllReaders(t.text, t.names, options, 1 + rng.UniformU64(7),
                    1 + rng.UniformU64(7), "fuzz iter " + std::to_string(iter));
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace ajd
