// The loss of a schema with respect to a relation instance (Eq. 1):
//
//   rho(R, S) = (|join_i R[Omega_i]| - |R|) / |R|,
//
// and the per-MVD loss rho(R, phi) of Eq. (28). The join size is evaluated
// by count propagation (never materialized).
//
// Two substrates, same answers:
//  * the session forms count over the engine's stripped partitions
//    (engine/groupings.h): one O(n) class-label pass per separator, then
//    Yannakakis messages indexed by class label. AnalyzeAjd and the
//    streaming monitor use these.
//  * the (r, ...) forms re-hash R per projection. They are the reference
//    oracles the session forms are tested against
//    (tests/partition_loss_test.cc) and stay for session-free callers.
#ifndef AJD_CORE_LOSS_H_
#define AJD_CORE_LOSS_H_

#include <cstdint>
#include <optional>

#include "jointree/join_tree.h"
#include "jointree/mvd.h"
#include "relation/acyclic_join.h"
#include "relation/relation.h"
#include "util/status.h"

namespace ajd {

class AnalysisSession;  // engine/analysis_session.h
class PinnedGroupings;  // engine/groupings.h

/// The loss of an acyclic schema w.r.t. a relation.
struct LossReport {
  uint64_t num_tuples = 0;            ///< N = |R|
  double join_size = 0.0;             ///< |R'| (exact below 2^53)
  std::optional<uint64_t> join_size_exact;  ///< |R'| when it fits in uint64
  double rho = 0.0;                   ///< rho(R, S)
  double log1p_rho = 0.0;             ///< ln(1 + rho), nats
};

/// Computes rho(R, S) for the schema of `tree` via Yannakakis counting.
/// Requires a non-empty relation whose attributes include chi(T).
/// Reference oracle: hashes each bag projection of R.
Result<LossReport> ComputeLoss(const Relation& r, const JoinTree& tree);

/// Session form: the same report from the engine's partitions. The
/// messages run over bag classes in first-occurrence order, exactly as the
/// hash form walks its distinct projections, so |R'| matches it exactly —
/// the uint64 count with the same overflow checks, and the double too.
Result<LossReport> ComputeLoss(AnalysisSession* session, const Relation& r,
                               const JoinTree& tree);

/// The session form over an existing pin, sharing its class labels.
Result<LossReport> ComputeLoss(PinnedGroupings* groupings,
                               const JoinTree& tree);

/// The per-MVD loss rho(R, phi) of Eq. (28):
///   (|Pi_{side_a}(R) join Pi_{side_b}(R)| - |R|) / |R|.
/// The join is the natural join of the two projections (on all shared
/// attributes). Computed by group counting; never materialized.
/// Reference oracle: hashes both side projections of R.
Result<LossReport> ComputeMvdLoss(const Relation& r, const Mvd& mvd);

/// Session form: the distinct side tuples per join-key class, read off
/// the side partitions against the key's class labels, then
/// sum_k cntA(k) * cntB(k). Equals the hash form exactly.
Result<LossReport> ComputeMvdLoss(AnalysisSession* session, const Relation& r,
                                  const Mvd& mvd);

/// The session form over an existing pin, sharing its class labels.
Result<LossReport> ComputeMvdLoss(PinnedGroupings* groupings, const Mvd& mvd);

}  // namespace ajd

#endif  // AJD_CORE_LOSS_H_
