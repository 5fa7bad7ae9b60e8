// PinnedGroupings: exact counts over a relation's groupings, read off the
// session's stripped partitions instead of re-hashing the relation.
//
// Beyond entropy, the paper's quantities are counts over groupings of R:
// the join size |R'| behind rho (Eq. 1), the per-MVD join sizes (Eq. 28),
// D(P || P^T) (Theorem 3.2), and the active-domain sizes d_A, d_B, d_C of
// Section 5. The stripped partition of an attribute set IS that grouping:
// its blocks are the classes of two or more rows, and every other row is
// a class of its own. So |Pi_attrs(R)| = n - stripped rows + blocks, and a
// row -> class label array (one O(n) pass) turns any projection into
// dense integer keys.
//
// A PinnedGroupings catches the session's engine for one relation up and
// pins it ONCE: every partition it hands out covers the same prefix of
// rows even while appends land, so the counts of one analysis are
// mutually consistent. It holds every partition it handed out (so a set
// the cache budget evicted mid-analysis is not rebuilt) and memoizes the
// class labels of every set a caller asks for, so the Yannakakis messages
// of ComputeLoss and the key classes of ComputeMvdLoss (core/loss.h)
// share one pass per set.
//
// Not thread-safe: one caller per instance (the engine underneath is).
#ifndef AJD_ENGINE_GROUPINGS_H_
#define AJD_ENGINE_GROUPINGS_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "engine/entropy_engine.h"
#include "engine/partition.h"
#include "relation/attr_set.h"
#include "relation/relation.h"

namespace ajd {

class AnalysisSession;  // engine/analysis_session.h

/// The classes of one grouping as dense labels. Classes
/// [0, block_size.size()) are the partition's stripped blocks in block
/// order; the singleton rows follow in ascending row order.
struct RowClasses {
  std::vector<uint32_t> label;       ///< row -> class, one entry per row.
  std::vector<uint32_t> block_size;  ///< size of each stripped block.
  uint32_t num_classes = 0;

  /// Rows in class c.
  uint32_t Size(uint32_t c) const {
    return c < block_size.size() ? block_size[c] : 1;
  }
};

/// One pinned reader's view of a relation's groupings (see file comment).
class PinnedGroupings {
 public:
  /// Catches the session's engine for `r` up and pins it. `r` must outlive
  /// this object (the session's usual rule).
  PinnedGroupings(AnalysisSession* session, const Relation& r);

  /// n: the pinned row count every answer below covers.
  uint64_t rows() const { return pin_.rows; }

  const Relation& relation() const { return engine_->relation(); }

  /// The stripped partition of `attrs` at the pin
  /// (EntropyEngine::PartitionAt), held for this object's lifetime.
  std::shared_ptr<const Partition> PartitionOf(AttrSet attrs);

  /// |Pi_attrs(R)| over the pinned rows: n - stripped rows + blocks (1 for
  /// the empty set over a non-empty relation).
  uint64_t CountDistinct(AttrSet attrs);

  /// Row -> class labels of `attrs`, computed once per set and kept for
  /// this object's lifetime.
  const RowClasses& ClassesOf(AttrSet attrs);

 private:
  EntropyEngine* engine_;
  EpochPin pin_;
  std::unordered_map<AttrSet, std::shared_ptr<const Partition>, AttrSetHash>
      partitions_;
  std::unordered_map<AttrSet, RowClasses, AttrSetHash> classes_;
};

/// |Pi_attrs(R)| from the session's partition of `attrs`; equals the hash
/// CountDistinct (relation/ops.h) on the same rows.
uint64_t CountDistinct(AnalysisSession* session, const Relation& r,
                       AttrSet attrs);

}  // namespace ajd

#endif  // AJD_ENGINE_GROUPINGS_H_
