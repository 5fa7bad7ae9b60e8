// The acyclic join of a relation's bag projections, R' = join_i R[Omega_i],
// which defines the loss rho(R, S) = (|R'| - |R|) / |R| (Eq. 1).
//
// Two evaluation modes:
//  * CountAcyclicJoin: |R'| WITHOUT materializing, via Yannakakis-style
//    count propagation over the join tree (messages from leaves to root).
//    Linear in the sizes of the projections; never enumerates R'. It
//    hashes every bag projection of R, and is the reference oracle for the
//    session form ComputeLoss(AnalysisSession*, ...) (core/loss.h), which
//    runs the same messages over the engine's stripped partitions.
//  * MaterializeAcyclicJoin: R' itself, by folding hash joins in DFS order.
//    Exponential output in the worst case; intended for tests, spurious-
//    tuple extraction, and small instances.
#ifndef AJD_RELATION_ACYCLIC_JOIN_H_
#define AJD_RELATION_ACYCLIC_JOIN_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "jointree/join_tree.h"
#include "relation/relation.h"
#include "util/status.h"

namespace ajd {

/// Size of an acyclic join, tracked both in floating point (always valid;
/// exact below 2^53) and as uint64 when it does not overflow.
struct AcyclicJoinCount {
  /// |R'| as a double. Exact when |R'| < 2^53.
  double approx = 0.0;
  /// |R'| as an exact integer, when representable in uint64.
  std::optional<uint64_t> exact;
};

/// Computes |join_i R[Omega_i]| for the bags of `tree` by count propagation.
/// Requires tree's attributes to be a subset of r's attributes. The bags of
/// the tree need not cover all of r's attributes: the join (and hence the
/// count) is over chi(T) only.
AcyclicJoinCount CountAcyclicJoin(const Relation& r, const JoinTree& tree);

/// Materializes R' = join_i R[Omega_i], with columns reordered to r's
/// attribute order restricted to chi(T). Intended for small instances.
Result<Relation> MaterializeAcyclicJoin(const Relation& r,
                                        const JoinTree& tree);

/// The spurious tuples R' \ R (requires chi(T) == all attributes of r).
/// Intended for small instances (materializes R').
Result<Relation> SpuriousTuples(const Relation& r, const JoinTree& tree);

/// Reorders/selects columns of `r` to the named attribute order `names`
/// (each name must exist in r). Rows are preserved (no dedup).
Result<Relation> ReorderColumns(const Relation& r,
                                const std::vector<std::string>& names);

}  // namespace ajd

#endif  // AJD_RELATION_ACYCLIC_JOIN_H_
