// CSV input/output for relations. All columns are dictionary-encoded
// strings; the first row may carry attribute names.
//
// Dialect, shared by every reader below:
//  - A record ends at every '\n', inside quotes too: quoted newlines are
//    not supported.
//  - A line of zero bytes is skipped. A line holding only "\r" is not
//    empty: it is one row with one empty field.
//  - Fields split at the separator (CsvOptions::separator). A '"' outside
//    quotes opens a quoted span anywhere in a field; inside one, '""' is a
//    literal quote and a lone '"' closes it. An unclosed quote runs to the
//    end of the line. Separators and '\r' inside quotes are kept.
//  - '\r' outside quotes is dropped wherever it appears, so "\r\n" line
//    endings read as "\n".
//  - Every data row must have the header's width (InvalidArgument).
//  - A relation holds at most 64 attributes: ReadCsv gives
//    CapacityExceeded for a wider header.
//
// The readers pull the stream in large blocks, so on return the stream's
// position is past what was parsed; use CsvIngestSummary::resume_offset to
// continue an ingest.
#ifndef AJD_IO_CSV_H_
#define AJD_IO_CSV_H_

#include <cstdint>
#include <functional>
#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "relation/relation.h"
#include "util/status.h"

namespace ajd {

/// Options for CSV parsing.
struct CsvOptions {
  char separator = ',';
  bool has_header = true;   ///< First row holds attribute names.
  bool dedupe = true;       ///< Build a set (drop duplicate rows).
};

/// Parses a relation from a stream. Without a header, attributes are named
/// "col0".."col{k-1}". Ragged rows yield InvalidArgument.
Result<Relation> ReadCsv(std::istream& in, const CsvOptions& options = {});

/// Parses a relation from a file.
Result<Relation> ReadCsvFile(const std::string& path,
                             const CsvOptions& options = {});

/// Streaming chunked reader: parses `in` at most `batch_rows` rows at a
/// time and hands each chunk (fields as owned strings) to `sink` along
/// with the header names. The whole file is never materialized — the path
/// that lets the streaming loss monitor (core/streaming.h) follow files
/// larger than memory. Stops at the first non-OK sink status and returns it; ragged
/// rows and empty input yield InvalidArgument. The sink also runs (with an
/// empty batch) for a header-only file, so callers always learn the schema.
Status ReadCsvBatches(
    std::istream& in, const CsvOptions& options, uint64_t batch_rows,
    const std::function<Status(const std::vector<std::string>& header,
                               std::vector<std::vector<std::string>> batch)>&
        sink);

/// File form of ReadCsvBatches.
Status ReadCsvFileBatches(
    const std::string& path, const CsvOptions& options, uint64_t batch_rows,
    const std::function<Status(const std::vector<std::string>& header,
                               std::vector<std::vector<std::string>> batch)>&
        sink);

/// Validates a CSV header against a relation schema: the widths must
/// match, and — when `names_meaningful` (the file had a real header row) —
/// so must the column names, positionally, or a reordered file would
/// silently append values into the wrong attributes.
Status ValidateCsvHeader(const std::vector<std::string>& header,
                         const Schema& schema, bool names_meaningful);

/// What a chunked CSV ingestion actually committed — filled in even when
/// the overall Status is an error, so a caller can resume after a mid-file
/// failure instead of guessing how much landed.
struct CsvIngestSummary {
  /// Data rows handed to the relation by committed batches (including
  /// rows dedupe then dropped).
  uint64_t rows_read = 0;
  /// Rows that actually landed in the relation (NumRows() delta).
  uint64_t rows_appended = 0;
  /// Batches fully committed (each bumped the epoch unless empty/all-dup).
  uint64_t batches_committed = 0;
  /// Stream offset just past the last committed batch — seek here (and
  /// set has_header=false) to resume after a mid-file failure: the
  /// stream's starting tellg() plus the bytes consumed through that batch's
  /// last row (through the end of the input for the final batch). -1 when
  /// the stream cannot tell its position or nothing committed.
  int64_t resume_offset = -1;
};

/// Chunked ingestion into an existing relation: validates the header
/// (width always; names too when options.has_header) and feeds every
/// chunk straight to Relation::AppendFieldBatch as views into the read
/// buffer, with no per-row or per-field string (one epoch bump per
/// non-empty chunk). `options.dedupe` maps to the append's dedupe flag.
///
/// Failure semantics: each batch commits atomically (AppendFieldBatch's
/// all-or-nothing contract), so a mid-file failure — ragged row, header
/// mismatch, allocation failure — leaves the relation holding exactly the
/// batches committed before it. `summary` (optional) reports how many
/// rows/batches landed and the byte offset to resume from; it is filled
/// on both success and failure.
Status AppendCsvBatches(std::istream& in, Relation* r,
                        const CsvOptions& options, uint64_t batch_rows,
                        CsvIngestSummary* summary = nullptr);

/// Resumes a previously failed AppendCsvBatches from the offset its summary
/// reported: seeks `in` to `resume_offset` and continues batch ingestion of
/// the REMAINING rows into `r` (header already consumed by the original
/// pass, so options.has_header is ignored and no header row is expected at
/// the offset). The committed result of a failed ingest plus a successful
/// resume is bit-identical to one uninterrupted ingest of the whole stream
/// — batches commit atomically and the offset sits exactly past the last
/// committed batch. Resuming at the end of the input (the offset a clean
/// ingest reports) appends nothing and returns OK. InvalidArgument when
/// `resume_offset` is negative (the original summary said "not
/// resumable"); IoError when the stream cannot seek there.
Status ResumeCsvIngest(std::istream& in, Relation* r,
                       const CsvOptions& options, uint64_t batch_rows,
                       int64_t resume_offset,
                       CsvIngestSummary* summary = nullptr);

/// Writes a relation as CSV (header + rows; dictionary values when
/// available, otherwise numeric codes).
Status WriteCsv(const Relation& r, std::ostream& out, char separator = ',');

/// Writes a relation to a file.
Status WriteCsvFile(const Relation& r, const std::string& path,
                    char separator = ',');

}  // namespace ajd

#endif  // AJD_IO_CSV_H_
