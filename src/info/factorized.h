// FactorizedDistribution: the distribution P^T of Proposition 3.1 / Eq. (10),
//
//   P^T(x) = prod_i P[Omega_i](x[Omega_i]) / prod_i P[Delta_i](x[Delta_i]),
//
// where P is the empirical distribution of a relation and (T, chi) a join
// tree. P^T is the KL-projection of P onto the distributions that model T
// (Lemma 3.4), and Theorem 3.2 states J(T) = D_KL(P || P^T).
//
// The class holds hashed marginals and evaluates P^T pointwise; it is the
// reference oracle. The free KlFromEmpirical below computes the same
// divergence from the session's stripped partitions, never building a
// marginal table.
#ifndef AJD_INFO_FACTORIZED_H_
#define AJD_INFO_FACTORIZED_H_

#include <cstdint>
#include <vector>

#include "info/distribution.h"
#include "jointree/join_tree.h"
#include "relation/relation.h"

namespace ajd {

class AnalysisSession;  // engine/analysis_session.h
class PinnedGroupings;  // engine/groupings.h

/// The factorized distribution P^T induced by a relation and a join tree.
class FactorizedDistribution {
 public:
  /// Builds P^T from the empirical distribution of `r` and `tree`. The
  /// separators Delta_i are those of the DFS decomposition rooted at `root`
  /// (the value of P^T does not depend on the root; see Section 2.2).
  FactorizedDistribution(const Relation& r, const JoinTree& tree,
                         uint32_t root = 0);

  /// P^T evaluated at a full row over r's schema (r.NumAttrs() codes).
  /// Returns 0 when any bag marginal of the row is 0.
  double Density(const uint32_t* full_row) const;

  /// D_KL(P || P^T) in nats, where P is the empirical distribution of the
  /// source relation. Finite by construction (P << P^T on R's support).
  /// By Theorem 3.2 this equals J(T). Reference oracle: hashes every
  /// marginal and the full rows of R.
  double KlFromEmpirical() const;

  /// sum of Density over the (distinct) rows of `support`. When `support`
  /// contains the support of P^T (e.g. the materialized acyclic join R'),
  /// this is 1 up to rounding — P^T is a probability distribution.
  double TotalMassOver(const Relation& support) const;

  /// Marginal of P^T over `attrs`, obtained by summing Density over the
  /// rows of `support` (which must contain the support of P^T). Used to
  /// verify Lemma 3.3: P^T[Omega_i] == P[Omega_i].
  SparseDistribution MarginalOver(const Relation& support,
                                  AttrSet attrs) const;

  /// The attribute sets of the numerator factors (bags).
  const std::vector<AttrSet>& BagSets() const { return bag_sets_; }

  /// The attribute sets of the denominator factors (separators).
  const std::vector<AttrSet>& SeparatorSets() const { return sep_sets_; }

 private:
  struct Factor {
    std::vector<uint32_t> positions;   // schema positions, ascending
    SparseDistribution marginal{0};
  };

  double FactorProb(const Factor& f, const uint32_t* full_row) const;

  const Relation* r_;
  std::vector<AttrSet> bag_sets_;
  std::vector<AttrSet> sep_sets_;
  std::vector<Factor> bag_factors_;
  std::vector<Factor> sep_factors_;
};

/// D_KL(P || P^T) from the session's partitions, with the separators of
/// the DFS decomposition rooted at 0. With c_S(i) the size of row i's
/// class under attribute set S, ln(P(x_i) / P^T(x_i)) =
/// ln c_full(i) - (sum_bags ln c_bag(i) - sum_seps ln c_sep(i)), where
/// "full" is every attribute of `r`. The bag and separator terms
/// accumulate per row in a fixed set order, and the divergence is the
/// row-order sum of those log ratios over n: the same divergence, at every
/// support point, as FactorizedDistribution::KlFromEmpirical (up to fp
/// rounding), and bit-identical whatever the cache history or thread
/// count. 0 for an empty relation.
double KlFromEmpirical(AnalysisSession* session, const Relation& r,
                       const JoinTree& tree);

/// The session form over an existing pin.
double KlFromEmpirical(PinnedGroupings* groupings, const JoinTree& tree);

}  // namespace ajd

#endif  // AJD_INFO_FACTORIZED_H_
