// Experiment LB — Lemma 4.1 on arbitrary relations and schemas:
// J <= ln(1 + rho) always; this harness measures how loose the bound is in
// the wild (gap statistics over random relations x random acyclic schemas,
// at several densities). The lemma is deterministic, so the driver exits 1
// on any violation (ctest runs it as a gate).
#include <cstdio>
#include <vector>

#include "core/experiment.h"
#include "core/loss.h"
#include "info/j_measure.h"
#include "io/table_printer.h"
#include "random/rng.h"
#include "random/random_relation.h"
#include "jointree/join_tree.h"
#include "util/string_util.h"

namespace {

using namespace ajd;

// Random path join tree over `num_attrs` attributes (same interval
// construction as the test utilities, inlined to keep the bench
// self-contained).
JoinTree RandomPathTree(Rng* rng, uint32_t num_attrs, uint32_t max_bags) {
  while (true) {
    uint32_t m = 2 + static_cast<uint32_t>(rng->UniformU64(max_bags - 1));
    std::vector<AttrSet> bags(m);
    for (uint32_t a = 0; a < num_attrs; ++a) {
      uint32_t lo = static_cast<uint32_t>(rng->UniformU64(m));
      uint32_t hi = lo + static_cast<uint32_t>(rng->UniformU64(m - lo));
      for (uint32_t j = lo; j <= hi; ++j) bags[j].Add(a);
    }
    bool ok = true;
    for (const AttrSet& b : bags) ok = ok && !b.Empty();
    if (!ok) continue;
    Result<JoinTree> tree = JoinTree::Path(std::move(bags));
    if (tree.ok()) return std::move(tree).value();
  }
}

}  // namespace

int main() {
  using namespace ajd;
  std::printf("== LB: Lemma 4.1 gap ln(1+rho) - J over random inputs ==\n\n");
  Rng rng(2024);
  TablePrinter table({"attrs", "domain", "N", "trials", "violations",
                      "gap mean", "gap q50", "gap q90", "gap max"});
  struct Config {
    uint32_t attrs;
    uint64_t domain;
    uint64_t n;
  };
  int total_violations = 0;
  for (Config c : std::vector<Config>{{3, 4, 24},
                                      {3, 8, 128},
                                      {4, 4, 96},
                                      {4, 6, 400},
                                      {5, 3, 100},
                                      {5, 4, 400}}) {
    const int trials = 60;
    int violations = 0;
    std::vector<double> gaps;
    for (int t = 0; t < trials; ++t) {
      RandomRelationSpec spec;
      spec.domain_sizes.assign(c.attrs, c.domain);
      spec.num_tuples = c.n;
      Relation r = SampleRandomRelation(spec, &rng).value();
      JoinTree tree = RandomPathTree(&rng, c.attrs, 4);
      double j = JMeasure(r, tree);
      LossReport loss = ComputeLoss(r, tree).value();
      double gap = loss.log1p_rho - j;
      if (gap < -1e-8) ++violations;
      gaps.push_back(gap);
    }
    total_violations += violations;
    SampleSummary s = Summarize(gaps);
    table.AddRow({std::to_string(c.attrs), std::to_string(c.domain),
                  std::to_string(c.n), std::to_string(trials),
                  std::to_string(violations), FormatDouble(s.mean, 5),
                  FormatDouble(s.q50, 5), FormatDouble(s.q90, 5),
                  FormatDouble(s.max, 5)});
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf("Paper claim (Lemma 4.1): violations == 0 in every row; the\n"
              "gap is the slack of the deterministic lower bound.\n");
  if (total_violations > 0) {
    std::fprintf(stderr, "FAIL: %d Lemma 4.1 violations\n", total_violations);
    return 1;
  }
  return 0;
}
