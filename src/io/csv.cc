#include "io/csv.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <fstream>
#include <optional>
#include <string_view>
#include <vector>

#include "util/failpoint.h"

namespace ajd {

namespace {

// The one CSV tokenizer behind every reader. It reads the stream in blocks
// and yields the fields of one non-empty line at a time as string_views
// into its block buffers. Views stay valid until Release(): a block that
// holds unreleased views is parked, never moved or overwritten, so a
// caller can gather a whole batch of rows without copying a field. Once
// the caller releases, parked blocks are recycled; in steady state nothing
// is allocated per line or per field.
//
// Dialect (see csv.h): records end at every '\n'; a line of zero bytes is
// skipped; a '"' outside quotes opens a quoted span and inside one a
// doubled '"' is a literal quote, a single one closes it; '\r' outside
// quotes is dropped. Lines with no '"' or '\r' take a fast path that only
// cuts at separators; others are unescaped in place (never longer than the
// raw text).
class CsvTokenizer {
 public:
  CsvTokenizer(std::istream& in, char separator) : in_(in), sep_(separator) {
    kind_.fill(kPlain);
    kind_[static_cast<unsigned char>(separator)] = kSeparator;
    // Quotes and '\r' win over a separator that happens to equal them.
    kind_[static_cast<unsigned char>('"')] = kSpecial;
    kind_[static_cast<unsigned char>('\r')] = kSpecial;
  }

  // Appends the fields of the next non-empty line to *fields; false at the
  // end of the input.
  bool Next(std::vector<std::string_view>* fields) {
    while (true) {
      char* begin = block_.data() + pos_;
      char* nl = pos_ == end_ ? nullptr
                              : static_cast<char*>(
                                    std::memchr(begin, '\n', end_ - pos_));
      if (nl == nullptr && !eof_) {
        Refill();
        continue;
      }
      if (pos_ == end_) return false;
      // The last line may lack a final newline.
      char* end = nl != nullptr ? nl : block_.data() + end_;
      pos_ = static_cast<size_t>(end - block_.data()) + (nl != nullptr);
      if (begin == end) continue;
      pinned_ = true;
      Split(begin, end, fields);
      return true;
    }
  }

  // Ends the lifetime of every view handed out so far.
  void Release() {
    for (auto& block : parked_) spare_.push_back(std::move(block));
    parked_.clear();
    pinned_ = false;
  }

  // Stream bytes consumed: through the newline of the last line returned
  // (and the empty lines before it), or everything once Next() said done.
  uint64_t consumed() const { return read_ - (end_ - pos_); }

 private:
  enum Kind : uint8_t { kPlain, kSeparator, kSpecial };
  static constexpr size_t kBlockBytes = size_t{1} << 18;

  void Split(char* begin, char* end, std::vector<std::string_view>* fields) {
    const size_t first = fields->size();
    const char* field = begin;
    for (const char* p = begin; p != end; ++p) {
      const Kind kind = kind_[static_cast<unsigned char>(*p)];
      if (kind == kPlain) continue;
      if (kind == kSpecial) {
        fields->resize(first);
        SplitQuoted(begin, end, fields);
        return;
      }
      fields->emplace_back(field, static_cast<size_t>(p - field));
      field = p + 1;
    }
    fields->emplace_back(field, static_cast<size_t>(end - field));
  }

  // The general path: unescapes in place, writing at `out` <= `p`.
  void SplitQuoted(char* begin, char* end,
                   std::vector<std::string_view>* fields) {
    char* out = begin;
    char* field = begin;
    bool in_quotes = false;
    for (char* p = begin; p != end; ++p) {
      const char c = *p;
      if (in_quotes) {
        if (c != '"') {
          *out++ = c;
        } else if (p + 1 != end && p[1] == '"') {
          *out++ = '"';
          ++p;
        } else {
          in_quotes = false;
        }
      } else if (c == '"') {
        in_quotes = true;
      } else if (c == sep_) {
        fields->emplace_back(field, static_cast<size_t>(out - field));
        field = out;
      } else if (c != '\r') {
        *out++ = c;
      }
    }
    fields->emplace_back(field, static_cast<size_t>(out - field));
  }

  // Reads more input after end_. A read takes only what the stream has
  // ready (at least one byte, waiting for it if need be), so a reader fed
  // by a pipe sees each line as soon as it arrives.
  void Refill() {
    if (end_ == block_.size()) MakeRoom();
    char* dst = block_.data() + end_;
    const auto room = static_cast<std::streamsize>(block_.size() - end_);
    std::streamsize got = in_.readsome(dst, room);
    if (got == 0) {  // nothing buffered: wait for one byte, then take the rest
      in_.read(dst, 1);
      got = in_.gcount();
      if (got > 0) got += in_.readsome(dst + 1, room - 1);
    }
    if (got == 0) eof_ = true;
    end_ += static_cast<size_t>(got);
    read_ += static_cast<uint64_t>(got);
  }

  // Frees room after the unfinished line [pos_, end_) once the block is
  // full. A pinned block is parked and the unfinished line is copied into a
  // fresh one; an unpinned block is compacted in place.
  void MakeRoom() {
    const size_t partial = end_ - pos_;
    const size_t want = std::max(kBlockBytes, 2 * partial);
    if (pinned_) {
      std::vector<char> fresh;
      if (!spare_.empty()) {
        fresh = std::move(spare_.back());
        spare_.pop_back();
      }
      if (fresh.size() < want) fresh.resize(want);
      if (partial > 0) std::memcpy(fresh.data(), block_.data() + pos_, partial);
      parked_.push_back(std::move(block_));
      block_ = std::move(fresh);
      pinned_ = false;
    } else {
      if (partial > 0) {
        std::memmove(block_.data(), block_.data() + pos_, partial);
      }
      if (block_.size() < want) block_.resize(want);
    }
    pos_ = 0;
    end_ = partial;
  }

  std::istream& in_;
  const char sep_;
  std::array<Kind, 256> kind_;
  std::vector<char> block_;  // [pos_, end_) not yet tokenized
  size_t pos_ = 0;
  size_t end_ = 0;
  bool eof_ = false;
  bool pinned_ = false;  // block_ holds views not yet released
  uint64_t read_ = 0;    // bytes read from the stream
  std::vector<std::vector<char>> parked_;
  std::vector<std::vector<char>> spare_;
};

// The record layer shared by the readers: skips to the header (the first
// non-empty line, or synthetic colN names without one) and checks that
// every data row has the header's width.
class CsvRowReader {
 public:
  CsvRowReader(std::istream& in, const CsvOptions& options)
      : tokenizer_(in, options.separator), has_header_(options.has_header) {}

  // Appends the next data row's fields to *fields; false at the end of
  // the input or on a ragged row (then status() says so).
  bool Next(std::vector<std::string_view>* fields) {
    const size_t first = fields->size();
    while (tokenizer_.Next(fields)) {
      const size_t width = fields->size() - first;
      if (!have_header_) {
        have_header_ = true;
        if (has_header_) {
          header_.assign(fields->begin() + first, fields->end());
          fields->resize(first);
          continue;
        }
        for (size_t i = 0; i < width; ++i) {
          header_.push_back("col" + std::to_string(i));
        }
      }
      if (width != header_.size()) {
        status_ = Status::InvalidArgument(
            "ragged CSV row: expected " + std::to_string(header_.size()) +
            " fields, got " + std::to_string(width));
        return false;
      }
      return true;
    }
    return false;
  }

  void Release() { tokenizer_.Release(); }
  uint64_t consumed() const { return tokenizer_.consumed(); }
  const Status& status() const { return status_; }
  bool have_header() const { return have_header_; }
  const std::vector<std::string>& header() const { return header_; }

 private:
  CsvTokenizer tokenizer_;
  const bool has_header_;
  bool have_header_ = false;
  std::vector<std::string> header_;
  Status status_;
};

bool NeedsQuoting(const std::string& s, char sep) {
  return s.find(sep) != std::string::npos ||
         s.find('"') != std::string::npos ||
         s.find('\n') != std::string::npos;
}

std::string QuoteField(const std::string& s, char sep) {
  if (!NeedsQuoting(s, sep)) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

}  // namespace

Result<Relation> ReadCsv(std::istream& in, const CsvOptions& options) {
  CsvRowReader reader(in, options);
  std::vector<std::string_view> fields;
  // The schema is made once the header is known, but a bad header
  // (duplicate or too many names) is reported only after every row passed
  // the width check: the rows come first.
  std::optional<Result<Schema>> schema;
  std::optional<RelationBuilder> builder;
  auto make_builder = [&] {
    schema.emplace(Schema::MakeUniform(reader.header(), 0));
    if (schema->ok()) builder.emplace(schema->value());
  };
  while (reader.Next(&fields)) {
    if (!schema) make_builder();
    if (builder) builder->AddFieldRow(fields);
    fields.clear();
    reader.Release();
  }
  if (!reader.status().ok()) return reader.status();
  if (!reader.have_header()) return Status::InvalidArgument("empty CSV input");
  if (!schema) make_builder();  // a header and no rows
  if (!schema->ok()) return schema->status();
  return std::move(*builder).Build(options.dedupe);
}

Result<Relation> ReadCsvFile(const std::string& path,
                             const CsvOptions& options) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);
  return ReadCsv(in, options);
}

Status ReadCsvBatches(
    std::istream& in, const CsvOptions& options, uint64_t batch_rows,
    const std::function<Status(const std::vector<std::string>& header,
                               std::vector<std::vector<std::string>> batch)>&
        sink) {
  if (batch_rows == 0) {
    return Status::InvalidArgument("batch_rows must be positive");
  }
  CsvRowReader reader(in, options);
  std::vector<std::string_view> fields;
  std::vector<std::vector<std::string>> batch;
  bool delivered = false;
  while (reader.Next(&fields)) {
    batch.emplace_back(fields.begin(), fields.end());
    fields.clear();
    reader.Release();
    if (batch.size() >= batch_rows) {
      Status s = sink(reader.header(), std::move(batch));
      if (!s.ok()) return s;
      delivered = true;
      batch.clear();
    }
  }
  if (!reader.status().ok()) return reader.status();
  if (!reader.have_header()) return Status::InvalidArgument("empty CSV input");
  if (!batch.empty() || !delivered) {
    // Flush the tail — or, for a header-only file, one empty batch so the
    // sink still learns the schema.
    Status s = sink(reader.header(), std::move(batch));
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status ReadCsvFileBatches(
    const std::string& path, const CsvOptions& options, uint64_t batch_rows,
    const std::function<Status(const std::vector<std::string>& header,
                               std::vector<std::vector<std::string>> batch)>&
        sink) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);
  return ReadCsvBatches(in, options, batch_rows, sink);
}

Status ValidateCsvHeader(const std::vector<std::string>& header,
                         const Schema& schema, bool names_meaningful) {
  if (header.size() != schema.size()) {
    return Status::InvalidArgument(
        "CSV width " + std::to_string(header.size()) +
        " does not match relation width " + std::to_string(schema.size()));
  }
  if (!names_meaningful) return Status::OK();  // synthetic colN names
  // Matching width alone would let a column-reordered file append values
  // into the wrong attributes silently; with a real header the names must
  // line up positionally.
  for (uint32_t a = 0; a < schema.size(); ++a) {
    if (header[a] != schema.attr(a).name) {
      return Status::InvalidArgument(
          "CSV column " + std::to_string(a) + " is named '" + header[a] +
          "' but the relation attribute is '" + schema.attr(a).name + "'");
    }
  }
  return Status::OK();
}

namespace {

// AppendCsvBatches, and ResumeCsvIngest when `resuming`: then the input
// may hold no line at all (a resume at the end of the file), which appends
// nothing and succeeds.
Status IngestCsv(std::istream& in, Relation* r, const CsvOptions& options,
                 uint64_t batch_rows, bool resuming,
                 CsvIngestSummary* summary) {
  CsvIngestSummary local;
  CsvIngestSummary* out = summary != nullptr ? summary : &local;
  *out = CsvIngestSummary{};
  if (batch_rows == 0) {
    return Status::InvalidArgument("batch_rows must be positive");
  }
  // Offsets are the start position plus the bytes the tokenizer consumed;
  // a stream that cannot tell its position is not resumable (-1).
  const std::streampos start = in.tellg();
  CsvRowReader reader(in, options);
  auto record_offset = [&] {
    if (start != std::streampos(-1)) {
      out->resume_offset = static_cast<int64_t>(start) +
                           static_cast<int64_t>(reader.consumed());
    }
  };
  // The batch's fields, row-major, as views into the tokenizer's blocks.
  std::vector<std::string_view> fields;
  uint64_t rows = 0;
  bool delivered = false;
  // Commits the gathered rows as one atomic append. The header is checked
  // against the relation here, once the first batch is complete (a ragged
  // row inside it is reported first).
  auto commit = [&]() -> Status {
    Status ok = ValidateCsvHeader(reader.header(), r->schema(),
                                  options.has_header);
    if (!ok.ok()) return ok;
    if (AJD_FAILPOINT(failpoints::kCsvBatch)) {
      return Status::IoError("injected fault: io/csv_batch");
    }
    if (rows > 0) {
      const uint64_t before = r->NumRows();
      Status append = r->AppendFieldBatch(fields, options.dedupe);
      if (!append.ok()) return append;
      out->rows_read += rows;
      out->rows_appended += r->NumRows() - before;
      ++out->batches_committed;
    }
    record_offset();
    fields.clear();
    rows = 0;
    reader.Release();
    return Status::OK();
  };
  while (reader.Next(&fields)) {
    if (++rows < batch_rows) continue;
    Status s = commit();
    if (!s.ok()) return s;
    delivered = true;
  }
  if (!reader.status().ok()) return reader.status();
  if (!reader.have_header()) {
    if (!resuming) return Status::InvalidArgument("empty CSV input");
    record_offset();
    return Status::OK();
  }
  // Flush the tail — or, for a header-only file, one empty batch so the
  // header is still validated.
  if (rows > 0 || !delivered) return commit();
  return Status::OK();
}

}  // namespace

Status AppendCsvBatches(std::istream& in, Relation* r,
                        const CsvOptions& options, uint64_t batch_rows,
                        CsvIngestSummary* summary) {
  if (r == nullptr) {
    return Status::InvalidArgument("AppendCsvBatches: relation is null");
  }
  return IngestCsv(in, r, options, batch_rows, /*resuming=*/false, summary);
}

Status ResumeCsvIngest(std::istream& in, Relation* r,
                       const CsvOptions& options, uint64_t batch_rows,
                       int64_t resume_offset, CsvIngestSummary* summary) {
  if (r == nullptr) {
    return Status::InvalidArgument("ResumeCsvIngest: relation is null");
  }
  if (resume_offset < 0) {
    return Status::InvalidArgument(
        "ResumeCsvIngest: negative resume offset (the failed ingest "
        "reported the stream as not resumable)");
  }
  // The failed pass may have left the stream failed or at EOF; both must
  // clear before seekg can position it.
  in.clear();
  in.seekg(static_cast<std::streamoff>(resume_offset));
  if (!in) {
    return Status::IoError("ResumeCsvIngest: cannot seek to offset " +
                           std::to_string(resume_offset));
  }
  // The header row (if the file had one) lies BEFORE the resume offset —
  // the original pass consumed and validated it — so the continuation
  // parses data rows only. Width validation still applies per batch.
  CsvOptions resumed = options;
  resumed.has_header = false;
  return IngestCsv(in, r, resumed, batch_rows, /*resuming=*/true, summary);
}

Status WriteCsv(const Relation& r, std::ostream& out, char separator) {
  for (uint32_t a = 0; a < r.NumAttrs(); ++a) {
    if (a > 0) out << separator;
    out << QuoteField(r.schema().attr(a).name, separator);
  }
  out << '\n';
  for (uint64_t i = 0; i < r.NumRows(); ++i) {
    for (uint32_t a = 0; a < r.NumAttrs(); ++a) {
      if (a > 0) out << separator;
      uint32_t code = r.At(i, a);
      const Dictionary* d = r.dict(a);
      if (d != nullptr) {
        out << QuoteField(d->ValueOf(code), separator);
      } else {
        out << code;
      }
    }
    out << '\n';
  }
  if (!out) return Status::IoError("stream write failure");
  return Status::OK();
}

Status WriteCsvFile(const Relation& r, const std::string& path,
                    char separator) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  return WriteCsv(r, out, separator);
}

}  // namespace ajd
