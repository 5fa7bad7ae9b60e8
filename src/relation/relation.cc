#include "relation/relation.h"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "relation/row_hash.h"
#include "util/failpoint.h"

namespace ajd {

namespace relation_internal {

namespace {
std::atomic<uint64_t> g_row_ceiling{kMaxRelationRows};
}  // namespace

void SetRowCeiling(uint64_t rows) {
  g_row_ceiling.store(std::min(rows, kMaxRelationRows),
                      std::memory_order_relaxed);
}

}  // namespace relation_internal

namespace {

// Process-unique relation ids. 0 is never handed out, so a moved-from husk
// reset here can never collide with a live relation.
uint64_t NextRelationUid() {
  static std::atomic<uint64_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed) + 1;
}

// RelationBuilder's string rows: interns each value into its attribute's
// dictionary (created on first use) and appends the codes.
template <typename Field>
void AddInternedRow(const std::vector<Field>& row, uint32_t width,
                    std::vector<std::optional<Dictionary>>* dicts,
                    std::vector<uint32_t>* data) {
  AJD_CHECK_MSG(row.size() == width, "row width %zu != schema width %u",
                row.size(), width);
  for (uint32_t a = 0; a < width; ++a) {
    if (!(*dicts)[a].has_value()) (*dicts)[a].emplace();
    data->push_back((*dicts)[a]->Intern(row[a]));
  }
}

}  // namespace

Relation::Relation()
    : data_(std::make_shared<std::vector<uint32_t>>()),
      uid_(NextRelationUid()) {}

// Copies and moves are quiesced-context operations (no concurrent appender
// on `other`): they read the counters with plain loads and the buffer
// non-atomically. A copy deep-copies the buffer so the source's future
// in-place appends can never bleed into the copy.
Relation::Relation(const Relation& other)
    : schema_(other.schema_),
      data_(std::make_shared<std::vector<uint32_t>>(*other.data_)),
      num_rows_(other.num_rows_.load(std::memory_order_relaxed)),
      dicts_(other.dicts_),
      epoch_(other.epoch_.load(std::memory_order_relaxed)),
      uid_(NextRelationUid()) {}

Relation& Relation::operator=(const Relation& other) {
  if (this == &other) return *this;
  schema_ = other.schema_;
  data_ = std::make_shared<std::vector<uint32_t>>(*other.data_);
  num_rows_.store(other.num_rows_.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
  dicts_ = other.dicts_;
  epoch_.store(other.epoch_.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
  uid_ = NextRelationUid();
  row_index_.reset();
  return *this;
}

Relation::Relation(Relation&& other) noexcept
    : schema_(std::move(other.schema_)),
      data_(std::move(other.data_)),
      num_rows_(other.num_rows_.load(std::memory_order_relaxed)),
      dicts_(std::move(other.dicts_)),
      epoch_(other.epoch_.load(std::memory_order_relaxed)),
      uid_(other.uid_),
      row_index_(std::move(other.row_index_)) {
  other.data_ = std::make_shared<std::vector<uint32_t>>();
  other.num_rows_.store(0, std::memory_order_relaxed);
  other.epoch_.store(0, std::memory_order_relaxed);
  other.uid_ = 0;  // husk; see header. (0 is never a live uid.)
}

Relation& Relation::operator=(Relation&& other) noexcept {
  if (this == &other) return *this;
  schema_ = std::move(other.schema_);
  data_ = std::move(other.data_);
  num_rows_.store(other.num_rows_.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
  dicts_ = std::move(other.dicts_);
  epoch_.store(other.epoch_.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
  uid_ = other.uid_;
  row_index_ = std::move(other.row_index_);
  other.data_ = std::make_shared<std::vector<uint32_t>>();
  other.num_rows_.store(0, std::memory_order_relaxed);
  other.epoch_.store(0, std::memory_order_relaxed);
  other.uid_ = 0;
  return *this;
}

RowsSnapshot Relation::Snapshot() const {
  RowsSnapshot snap;
  // Order matters: the row count is loaded FIRST (acquire), the buffer
  // second. The buffer pointer only ever moves forward (regrows copy the
  // full committed prefix), so the buffer loaded after the count is the
  // same or newer and contains at least `num_rows` committed rows.
  snap.num_rows = num_rows_.load(std::memory_order_acquire);
  snap.keepalive = std::atomic_load_explicit(&data_, std::memory_order_acquire);
  snap.data = snap.keepalive->data();
  snap.width = NumAttrs();
  return snap;
}

uint32_t Dictionary::Intern(std::string_view value) {
  const uint64_t hash = HashBytes(value.data(), value.size());
  const uint32_t found =
      index_.Find(hash, [&](uint32_t code) { return values_[code] == value; });
  if (found != CodeIndex::kNone) return found;
  // Each step below may throw only before it changes anything, so a failed
  // intern leaves the dictionary as it was.
  const uint32_t code = static_cast<uint32_t>(values_.size());
  index_.Reserve(values_.size() + 1);
  values_.emplace_back(value);
  index_.Insert(hash, code);  // room reserved: cannot throw
  return code;
}

void Dictionary::TruncateTo(uint32_t size) {
  if (size >= values_.size()) return;
  values_.resize(size);
  // The table keeps its capacity, so re-inserting the survivors cannot
  // throw.
  index_.Clear();
  for (uint32_t code = 0; code < size; ++code) {
    index_.Insert(HashBytes(values_[code].data(), values_[code].size()),
                  code);
  }
}

std::optional<uint32_t> Dictionary::Lookup(std::string_view value) const {
  const uint32_t code =
      index_.Find(HashBytes(value.data(), value.size()),
                  [&](uint32_t c) { return values_[c] == value; });
  if (code == CodeIndex::kNone) return std::nullopt;
  return code;
}

const std::string& Dictionary::ValueOf(uint32_t code) const {
  AJD_CHECK(code < values_.size());
  return values_[code];
}

Result<Relation> Relation::FromRows(Schema schema,
                                    std::vector<std::vector<uint32_t>> rows,
                                    bool dedupe) {
  const uint32_t width = schema.size();
  for (const auto& row : rows) {
    if (row.size() != width) {
      return Status::InvalidArgument(
          "row width " + std::to_string(row.size()) +
          " does not match schema width " + std::to_string(width));
    }
  }
  RelationBuilder b(std::move(schema));
  b.Reserve(rows.size());
  for (const auto& row : rows) b.AddRow(row);
  return std::move(b).Build(dedupe);
}

Status Relation::AppendCodesUnchecked(const std::vector<uint32_t>& flat,
                                      uint64_t rows, bool dedupe) {
  const uint32_t width = NumAttrs();
  if (rows == 0 || width == 0) return Status::OK();
  const uint64_t committed = num_rows_.load(std::memory_order_relaxed);
  const uint64_t ceiling =
      relation_internal::g_row_ceiling.load(std::memory_order_relaxed);
  if (rows > ceiling || committed > ceiling - rows) {
    return Status::CapacityExceeded(
        "append of " + std::to_string(rows) + " rows to " +
        std::to_string(committed) + " would exceed the row ceiling of " +
        std::to_string(ceiling));
  }
  uint64_t appended = 0;
  try {
    AJD_INJECT_BAD_ALLOC(failpoints::kRelationAppendReserve);
    // RCU storage discipline: concurrent readers hold RowsSnapshot pins
    // into the current buffer, so committed bytes are immutable. Reserve
    // the worst-case capacity UP FRONT — if the current buffer can't hold
    // the whole batch, the committed prefix is copied into a fresh buffer
    // published with an atomic store (pinned readers keep the old one
    // alive) and every per-row insert below is then guaranteed in place.
    const uint64_t need = (committed + rows) * static_cast<uint64_t>(width);
    std::vector<uint32_t>* buf = data_.get();
    if (need > buf->capacity()) {
      auto grown = std::make_shared<std::vector<uint32_t>>();
      grown->reserve(std::max<uint64_t>(2 * buf->capacity(), need));
      grown->insert(grown->end(), buf->begin(), buf->end());
      buf = grown.get();
      std::atomic_store_explicit(&data_, std::move(grown),
                                 std::memory_order_release);
    }
    // The index stores row numbers into `buf`, whose base no longer moves
    // during this batch.
    const uint32_t* base = buf->data();
    if (dedupe && row_index_ == nullptr) {
      // First deduped append: index every existing row once (O(N)); later
      // appends pay only their own rows.
      row_index_ = std::make_unique<RowIdSet>(width);
      row_index_->Reserve(committed + rows);
      row_index_->ForEachHashed(base, committed, [&](uint64_t i, uint64_t h) {
        row_index_->Insert(base + i * width, h, static_cast<uint32_t>(i),
                           base);
      });
    } else if (row_index_ != nullptr) {
      row_index_->Reserve(row_index_->size() + rows);
    }
    std::vector<uint32_t> max_code(width, 0);
    auto cover = [&](const uint32_t* row) {
      for (uint32_t a = 0; a < width; ++a) {
        max_code[a] = std::max(max_code[a], row[a]);
      }
    };
    if (row_index_ != nullptr) {
      row_index_->ForEachHashed(flat.data(), rows, [&](uint64_t i,
                                                       uint64_t hash) {
        AJD_INJECT_BAD_ALLOC(failpoints::kRelationAppendStage);
        const uint32_t* row = flat.data() + i * width;
        // A row already present is dropped under dedupe; a multiset append
        // lands it anyway and leaves the index at the first copy.
        if (!row_index_->Insert(row, hash,
                                static_cast<uint32_t>(committed + appended),
                                base) &&
            dedupe) {
          return;
        }
        buf->insert(buf->end(), row, row + width);
        ++appended;
        cover(row);
      });
    } else {
      for (uint64_t i = 0; i < rows; ++i) {
        AJD_INJECT_BAD_ALLOC(failpoints::kRelationAppendStage);
        cover(flat.data() + i * width);
      }
      buf->insert(buf->end(), flat.begin(), flat.begin() + rows * width);
      appended = rows;
    }
    if (appended == 0) return Status::OK();
    // Domain sizes grow before the rows publish so a reader that sees the
    // new rows also sees domains covering them. (Schema counters are
    // appender-side state; concurrent readers only use the attribute
    // count, which never changes.)
    for (uint32_t a = 0; a < width; ++a) {
      schema_.EnsureDomainSize(a, uint64_t{max_code[a]} + 1);
    }
  } catch (const std::exception& e) {
    // All-or-nothing rollback. Nothing was published (num_rows_/epoch_
    // advance only below), so readers never saw the staged rows; truncate
    // them out of the active buffer (shrinking resize: no reallocation, no
    // throw, committed bytes untouched) and drop the dedupe index, which
    // may hold rows from the failed batch — it rebuilds lazily on the next
    // deduped append. A mid-batch regrow needs no undo: the fresh buffer
    // holds the full committed prefix and truncates identically.
    data_->resize(committed * static_cast<size_t>(width));
    row_index_.reset();
    return Status::CapacityExceeded(
        std::string("append failed mid-batch; relation rolled back: ") +
        e.what());
  }
  // Publication order: row bytes are fully written above; release the row
  // count, then release the epoch. Readers pair acquire loads in the
  // opposite order (epoch first), so a reader at epoch e sees at least the
  // rows of epoch e. Stores cannot fail: the batch is committed.
  num_rows_.store(committed + appended, std::memory_order_release);
  epoch_.store(epoch_.load(std::memory_order_relaxed) + 1,
               std::memory_order_release);
  return Status::OK();
}

Status Relation::AppendBatch(const std::vector<std::vector<uint32_t>>& rows,
                             bool dedupe) {
  const uint32_t width = NumAttrs();
  for (const auto& row : rows) {
    if (row.size() != width) {
      return Status::InvalidArgument(
          "append row width " + std::to_string(row.size()) +
          " does not match schema width " + std::to_string(width));
    }
  }
  try {
    std::vector<uint32_t> flat;
    flat.reserve(rows.size() * width);
    for (const auto& row : rows) {
      flat.insert(flat.end(), row.begin(), row.end());
    }
    return AppendCodesUnchecked(flat, rows.size(), dedupe);
  } catch (const std::exception& e) {
    // Flattening failed before any relation state was touched.
    return Status::CapacityExceeded(
        std::string("append failed staging the batch: ") + e.what());
  }
}

Status Relation::AppendStringBatch(
    const std::vector<std::vector<std::string>>& rows, bool dedupe) {
  const uint32_t width = NumAttrs();
  for (const auto& row : rows) {
    if (row.size() != width) {
      return Status::InvalidArgument(
          "append row width " + std::to_string(row.size()) +
          " does not match schema width " + std::to_string(width));
    }
  }
  std::vector<std::string_view> fields;
  try {
    fields.reserve(rows.size() * width);
  } catch (const std::exception& e) {
    return Status::CapacityExceeded(
        std::string("append failed staging the batch: ") + e.what());
  }
  for (const auto& row : rows) {
    fields.insert(fields.end(), row.begin(), row.end());
  }
  return AppendFieldBatch(fields, dedupe);
}

Status Relation::AppendFieldBatch(const std::vector<std::string_view>& fields,
                                  bool dedupe) {
  const uint32_t width = NumAttrs();
  if (width == 0) return Status::OK();
  if (fields.size() % width != 0) {
    return Status::InvalidArgument(
        "append of " + std::to_string(fields.size()) +
        " fields is not a whole number of rows of width " +
        std::to_string(width));
  }
  const uint64_t rows = fields.size() / width;
  // A non-empty relation built from raw codes has no dictionary to intern
  // into: inventing one here would assign fresh codes starting at 0, which
  // ALIAS the existing raw code space — silent corruption, not an append.
  if (NumRows() > 0) {
    for (uint32_t a = 0; a < width; ++a) {
      if (a >= dicts_.size() || !dicts_[a].has_value()) {
        return Status::InvalidArgument(
            "attribute " + std::to_string(a) +
            " holds raw codes (no dictionary); string appends require a "
            "dictionary-encoded relation (or an empty one)");
      }
    }
  }
  if (rows == 0) return Status::OK();
  // Interning may create dictionary entries for rows that dedupe then
  // drops; that only grows a dictionary, never the relation's data, so the
  // append-only contract holds either way. On FAILURE, though, the batch's
  // entries are rolled back below so the call leaves the dictionaries
  // bit-identical: record each dictionary's pre-batch size (UINT32_MAX =
  // "did not exist") before interning anything.
  if (dicts_.size() < width) dicts_.resize(width);
  std::vector<uint32_t> dict_sizes(width, UINT32_MAX);
  for (uint32_t a = 0; a < width; ++a) {
    if (dicts_[a].has_value()) dict_sizes[a] = dicts_[a]->size();
  }
  auto roll_back_dicts = [&] {
    for (uint32_t a = 0; a < width; ++a) {
      if (dict_sizes[a] == UINT32_MAX) {
        dicts_[a].reset();  // created by this batch
      } else {
        dicts_[a]->TruncateTo(dict_sizes[a]);
      }
    }
  };
  Status append;
  try {
    std::vector<Dictionary*> dicts(width);
    for (uint32_t a = 0; a < width; ++a) {
      if (!dicts_[a].has_value()) dicts_[a].emplace();
      dicts[a] = &*dicts_[a];
    }
    // Column by column: codes depend only on each attribute's own intern
    // order, and one dictionary at a time stays in cache.
    std::vector<uint32_t> flat(fields.size());
    for (uint32_t a = 0; a < width; ++a) {
      Dictionary* dict = dicts[a];
      for (size_t i = a; i < fields.size(); i += width) {
        AJD_INJECT_BAD_ALLOC(failpoints::kRelationIntern);
        flat[i] = dict->Intern(fields[i]);
      }
    }
    append = AppendCodesUnchecked(flat, rows, dedupe);
  } catch (const std::exception& e) {
    roll_back_dicts();
    return Status::CapacityExceeded(
        std::string("string append failed interning; rolled back: ") +
        e.what());
  }
  if (!append.ok()) roll_back_dicts();
  return append;
}

bool Relation::HasDuplicateRows() const {
  return NumDistinctRows() != NumRows();
}

uint64_t Relation::NumDistinctRows() const {
  const uint64_t n = NumRows();
  if (n == 0) return 0;
  AJD_CHECK(n <= kMaxRelationRows);
  const uint32_t* rows = data_->data();
  RowIdSet distinct(NumAttrs());
  distinct.Reserve(n);
  distinct.ForEachHashed(rows, n, [&](uint64_t i, uint64_t h) {
    distinct.Insert(rows + i * NumAttrs(), h, static_cast<uint32_t>(i), rows);
  });
  return distinct.size();
}

bool Relation::ContainsRow(const uint32_t* row) const {
  const uint32_t width = NumAttrs();
  const uint64_t n = NumRows();
  for (uint64_t i = 0; i < n; ++i) {
    if (std::memcmp(Row(i), row, width * sizeof(uint32_t)) == 0) return true;
  }
  return false;
}

void Relation::SetDict(uint32_t pos, Dictionary d) {
  AJD_CHECK(pos < NumAttrs());
  if (dicts_.size() < NumAttrs()) dicts_.resize(NumAttrs());
  dicts_[pos] = std::move(d);
}

std::string Relation::RowToString(uint64_t i) const {
  std::string out = "(";
  for (uint32_t a = 0; a < NumAttrs(); ++a) {
    if (a > 0) out += ", ";
    uint32_t code = At(i, a);
    const Dictionary* d = dict(a);
    out += d != nullptr ? d->ValueOf(code) : std::to_string(code);
  }
  out += ")";
  return out;
}

std::string Relation::ToString(uint64_t max_rows) const {
  const uint64_t n = NumRows();
  std::string out = "Relation[" + schema_.ToString() + "] N=" +
                    std::to_string(n) + "\n";
  uint64_t shown = std::min(n, max_rows);
  for (uint64_t i = 0; i < shown; ++i) {
    out += "  " + RowToString(i) + "\n";
  }
  if (shown < n) {
    out += "  ... (" + std::to_string(n - shown) + " more)\n";
  }
  return out;
}

RelationBuilder::RelationBuilder(Schema schema)
    : schema_(std::move(schema)) {
  dicts_.resize(schema_.size());
}

void RelationBuilder::AddRow(const std::vector<uint32_t>& row) {
  AJD_CHECK_MSG(row.size() == schema_.size(),
                "row width %zu != schema width %u", row.size(),
                schema_.size());
  data_.insert(data_.end(), row.begin(), row.end());
  ++num_rows_;
}

void RelationBuilder::AddRowPtr(const uint32_t* row) {
  data_.insert(data_.end(), row, row + schema_.size());
  ++num_rows_;
}

void RelationBuilder::AddStringRow(const std::vector<std::string>& row) {
  AddInternedRow(row, schema_.size(), &dicts_, &data_);
  ++num_rows_;
}

void RelationBuilder::AddFieldRow(const std::vector<std::string_view>& row) {
  AddInternedRow(row, schema_.size(), &dicts_, &data_);
  ++num_rows_;
}

void RelationBuilder::Reserve(uint64_t rows) {
  data_.reserve(data_.size() + rows * schema_.size());
}

Relation RelationBuilder::Build(bool dedupe) && {
  Relation r;
  r.schema_ = std::move(schema_);
  r.dicts_ = std::move(dicts_);
  const uint32_t width = r.schema_.size();
  uint64_t kept = num_rows_;
  if (dedupe && num_rows_ > 0 && width > 0) {
    // Compacts in place: row i moves down to slot `kept` <= i, after the
    // set compared it against the kept rows [0, kept) only.
    AJD_CHECK(num_rows_ <= kMaxRelationRows);
    uint32_t* rows = data_.data();
    RowIdSet seen(width);
    seen.Reserve(num_rows_);
    kept = 0;
    seen.ForEachHashed(rows, num_rows_, [&](uint64_t i, uint64_t h) {
      const uint32_t* row = rows + i * width;
      if (!seen.Insert(row, h, static_cast<uint32_t>(kept), rows)) return;
      if (kept != i) {
        std::memmove(rows + kept * width, row, width * sizeof(uint32_t));
      }
      ++kept;
    });
    data_.resize(kept * width);
  }
  r.data_ = std::make_shared<std::vector<uint32_t>>(std::move(data_));
  r.num_rows_.store(kept, std::memory_order_relaxed);
  // Grow domain sizes to cover observed codes.
  const uint64_t built_rows = r.NumRows();
  for (uint32_t a = 0; a < width; ++a) {
    uint64_t max_code = 0;
    for (uint64_t i = 0; i < built_rows; ++i) {
      max_code = std::max<uint64_t>(max_code, r.Row(i)[a]);
    }
    if (built_rows > 0) r.schema_.EnsureDomainSize(a, max_code + 1);
  }
  return r;
}

}  // namespace ajd
