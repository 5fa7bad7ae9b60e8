// Input generators for pipebench: a planted acyclic relation drawn from a
// noisy Markov tree, rendered as code rows or as CSV text.
//
// The model: attribute 0 is the root and every later attribute a hangs off
// attribute (a - 1) / 2. A row draws the root uniformly; each
// other attribute copies a fixed function of its parent's value (v maps to
// a seed-drawn relabelling of v modulo its own domain),
// except that with probability `noise` it draws uniformly from its own
// domain instead. The tree is therefore the planted acyclic schema, and
// noise controls both the spread of values (distinct rows) and how far the
// empirical distribution strays from the tree's factorization (J > 0).
#ifndef PIPEBENCH_DATA_H_
#define PIPEBENCH_DATA_H_

#include <cstdint>
#include <string>
#include <vector>

#include "random/rng.h"

namespace pipebench {

using Rows = std::vector<std::vector<uint32_t>>;

struct MarkovTreeModel {
  std::vector<uint32_t> domains;  ///< per attribute, 16..512
  std::vector<int32_t> parent;    ///< -1 for the root
  /// maps[a][v]: the noiseless value of attribute a when its parent is v.
  std::vector<std::vector<uint32_t>> maps;
};

/// A model over `attrs` attributes with domains in 16..512: fixed tree
/// shape, domains and parent -> child groupings; seed-drawn value labels.
MarkovTreeModel MakeModel(uint32_t attrs, ajd::Rng* rng);

/// Appends `n` rows drawn from `model` at the given noise level to `out`.
void SampleRows(const MarkovTreeModel& model, double noise, uint64_t n,
                ajd::Rng* rng, Rows* out);

/// Attribute names a0..a{attrs-1}.
std::vector<std::string> AttrNames(uint32_t attrs);

/// CSV text (header + one line per row, decimal codes) of `rows`.
std::string RenderCsv(const Rows& rows, uint32_t attrs);

}  // namespace pipebench

#endif  // PIPEBENCH_DATA_H_
