#include "info/factorized.h"

#include <cmath>
#include <memory>
#include <vector>

#include "engine/groupings.h"
#include "relation/row_hash.h"
#include "util/check.h"

namespace ajd {

FactorizedDistribution::FactorizedDistribution(const Relation& r,
                                               const JoinTree& tree,
                                               uint32_t root)
    : r_(&r) {
  AJD_CHECK(tree.AllAttrs().IsSubsetOf(r.schema().AllAttrs()));
  DfsDecomposition dec = tree.Decompose(root);
  for (uint32_t v = 0; v < tree.NumNodes(); ++v) {
    bag_sets_.push_back(tree.bag(v));
  }
  for (const DfsStep& s : dec.steps) sep_sets_.push_back(s.delta);

  auto make_factor = [&r](AttrSet attrs) {
    Factor f;
    f.positions = attrs.ToIndices();
    f.marginal = SparseDistribution::Empirical(r, attrs);
    return f;
  };
  for (AttrSet b : bag_sets_) bag_factors_.push_back(make_factor(b));
  for (AttrSet s : sep_sets_) sep_factors_.push_back(make_factor(s));
}

double FactorizedDistribution::FactorProb(const Factor& f,
                                          const uint32_t* full_row) const {
  if (f.positions.empty()) return 1.0;
  // Gather the factor's attributes from the full row.
  uint32_t key[kMaxAttrs];
  for (size_t k = 0; k < f.positions.size(); ++k) {
    key[k] = full_row[f.positions[k]];
  }
  return f.marginal.Prob(key);
}

double FactorizedDistribution::Density(const uint32_t* full_row) const {
  double num = 1.0;
  for (const Factor& f : bag_factors_) {
    double p = FactorProb(f, full_row);
    if (p == 0.0) return 0.0;
    num *= p;
  }
  double den = 1.0;
  for (const Factor& f : sep_factors_) {
    double p = FactorProb(f, full_row);
    // A zero separator marginal with nonzero bag marginals cannot happen:
    // each separator is contained in a bag.
    AJD_CHECK(p > 0.0);
    den *= p;
  }
  return num / den;
}

double FactorizedDistribution::KlFromEmpirical() const {
  const Relation& r = *r_;
  if (r.NumRows() == 0) return 0.0;
  // Group identical rows (multiset support) and accumulate P ln(P / P^T).
  const uint32_t width = r.NumAttrs();
  TupleCounter counter(width, r.NumRows());
  for (uint64_t i = 0; i < r.NumRows(); ++i) counter.Add(r.Row(i));
  const double n = static_cast<double>(r.NumRows());
  double kl = 0.0;
  for (uint32_t i = 0; i < counter.NumDistinct(); ++i) {
    const uint32_t* row = counter.TupleAt(i);
    double p = static_cast<double>(counter.CountAt(i)) / n;
    double q = Density(row);
    AJD_CHECK_MSG(q > 0.0, "P^T must dominate P on R's support");
    kl += p * std::log(p / q);
  }
  // KL >= 0; clamp floating-point cancellation noise.
  return kl < 0.0 && kl > -1e-9 ? 0.0 : kl;
}

double FactorizedDistribution::TotalMassOver(const Relation& support) const {
  double total = 0.0;
  for (uint64_t i = 0; i < support.NumRows(); ++i) {
    total += Density(support.Row(i));
  }
  return total;
}

SparseDistribution FactorizedDistribution::MarginalOver(
    const Relation& support, AttrSet attrs) const {
  std::vector<uint32_t> positions = attrs.ToIndices();
  SparseDistribution out(positions.size());
  std::vector<uint32_t> key(positions.size());
  for (uint64_t i = 0; i < support.NumRows(); ++i) {
    const uint32_t* row = support.Row(i);
    double d = Density(row);
    if (d == 0.0) continue;
    for (size_t k = 0; k < positions.size(); ++k) key[k] = row[positions[k]];
    out.Add(positions.empty() ? nullptr : key.data(), d);
  }
  return out;
}

double KlFromEmpirical(AnalysisSession* session, const Relation& r,
                       const JoinTree& tree) {
  PinnedGroupings groupings(session, r);
  return KlFromEmpirical(&groupings, tree);
}

double KlFromEmpirical(PinnedGroupings* groupings, const JoinTree& tree) {
  const Relation& r = groupings->relation();
  AJD_CHECK(tree.AllAttrs().IsSubsetOf(r.schema().AllAttrs()));
  const uint64_t n = groupings->rows();
  if (n == 0) return 0.0;
  // acc[i] accumulates +-ln(class size) per set; singleton classes add
  // ln 1 = 0, so only stripped blocks are visited.
  std::vector<double> acc(n, 0.0);
  auto add = [&](AttrSet attrs, double sign) {
    const std::shared_ptr<const Partition> p = groupings->PartitionOf(attrs);
    for (uint32_t b = 0; b < p->NumBlocks(); ++b) {
      const double term =
          sign * std::log(static_cast<double>(p->BlockSize(b)));
      for (const uint32_t* row = p->BlockBegin(b); row != p->BlockEnd(b);
           ++row) {
        acc[*row] += term;
      }
    }
  };
  for (AttrSet bag : tree.bags()) add(bag, 1.0);
  for (const DfsStep& s : tree.Decompose(0).steps) add(s.delta, -1.0);
  // Subtracting ln c_full(i) last leaves acc[i] = -(ln c_full(i) - acc[i])
  // exactly (IEEE subtraction is antisymmetric).
  add(r.schema().AllAttrs(), -1.0);
  double sum = 0.0;
  for (double a : acc) sum -= a;
  const double kl = sum / static_cast<double>(n);
  // KL >= 0; clamp floating-point cancellation noise.
  return kl < 0.0 && kl > -1e-9 ? 0.0 : kl;
}

}  // namespace ajd
