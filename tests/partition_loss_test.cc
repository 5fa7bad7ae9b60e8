// Differential tests for the partition-based counts: the session forms of
// ComputeLoss, ComputeMvdLoss, CountDistinct and KlFromEmpirical against
// their hash reference oracles, across cache regimes (default, budget 0, a
// tight shared budget) and epoch catch-up; plus EntropyEngine::PartitionOf.
//
// The relations keep duplicate rows (no dedupe), and the trees include
// ones that leave attributes uncovered, ones whose separators are all
// empty, and single bags.
#include <atomic>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/analysis.h"
#include "core/bounds.h"
#include "core/certificate.h"
#include "core/loss.h"
#include "core/streaming.h"
#include "engine/analysis_session.h"
#include "engine/cache_arbiter.h"
#include "engine/entropy_engine.h"
#include "engine/groupings.h"
#include "info/entropy.h"
#include "info/factorized.h"
#include "info/j_measure.h"
#include "random/rng.h"
#include "relation/acyclic_join.h"
#include "relation/ops.h"
#include "test_util.h"

namespace ajd {
namespace {

using Rows = std::vector<std::vector<uint32_t>>;

Rows RandomRows(Rng* rng, uint32_t num_attrs, uint32_t domain,
                uint32_t count) {
  Rows rows(count, std::vector<uint32_t>(num_attrs));
  for (auto& row : rows) {
    for (uint32_t a = 0; a < num_attrs; ++a) {
      row[a] = static_cast<uint32_t>(rng->UniformU64(domain));
    }
  }
  return rows;
}

Relation MakeRelation(uint32_t num_attrs, const Rows& rows, bool dedupe) {
  std::vector<uint64_t> dims(num_attrs, 2);
  RelationBuilder b(Schema::MakeSynthetic(dims).value());
  for (const auto& row : rows) b.AddRow(row);
  return std::move(b).Build(dedupe);
}

// A random path tree over a random subset of the attributes: each covered
// attribute takes an interval of bag slots (running intersection holds by
// construction). `disjoint` gives every attribute a single slot, so every
// separator is empty; one slot makes a single-bag tree.
JoinTree RandomSubsetTree(Rng* rng, uint32_t num_attrs, bool disjoint) {
  while (true) {
    const uint32_t m = 1 + static_cast<uint32_t>(rng->UniformU64(4));
    std::vector<AttrSet> bags(m);
    for (uint32_t a = 0; a < num_attrs; ++a) {
      if (rng->Bernoulli(0.25)) continue;  // leave it uncovered
      const uint32_t lo = static_cast<uint32_t>(rng->UniformU64(m));
      const uint32_t hi =
          disjoint ? lo : lo + static_cast<uint32_t>(rng->UniformU64(m - lo));
      for (uint32_t j = lo; j <= hi; ++j) bags[j].Add(a);
    }
    bool ok = true;
    for (AttrSet b : bags) ok = ok && !b.Empty();
    if (!ok) continue;
    Result<JoinTree> tree = JoinTree::Path(std::move(bags));
    if (tree.ok()) return std::move(tree).value();
  }
}

JoinTree RandomTree(Rng* rng, uint32_t num_attrs) {
  switch (rng->UniformU64(4)) {
    case 0:
      return testing_util::RandomJoinTree(rng, num_attrs);
    case 1:
      return RandomSubsetTree(rng, num_attrs, /*disjoint=*/true);
    default:
      return RandomSubsetTree(rng, num_attrs, /*disjoint=*/false);
  }
}

AttrSet RandomNonEmptySubset(Rng* rng, uint32_t num_attrs) {
  return AttrSet::FromMask(1 + rng->UniformU64((uint64_t{1} << num_attrs) - 1));
}

// Every session count against its hash oracle on (r, tree).
void ExpectSessionCountsMatchHash(AnalysisSession* session, const Relation& r,
                                  const JoinTree& tree, Rng* rng,
                                  const std::string& what) {
  SCOPED_TRACE(what + " tree " + tree.ToString());
  const AcyclicJoinCount want = CountAcyclicJoin(r, tree);
  Result<LossReport> loss = ComputeLoss(session, r, tree);
  ASSERT_TRUE(loss.ok()) << loss.status().ToString();
  ASSERT_TRUE(want.exact.has_value());
  ASSERT_TRUE(loss.value().join_size_exact.has_value());
  EXPECT_EQ(*loss.value().join_size_exact, *want.exact);
  EXPECT_EQ(loss.value().join_size, want.approx);
  EXPECT_EQ(loss.value().rho, ComputeLoss(r, tree).value().rho);
  if (r.NumRows() <= 40) {
    Result<Relation> joined = MaterializeAcyclicJoin(r, tree);
    ASSERT_TRUE(joined.ok());
    EXPECT_EQ(*loss.value().join_size_exact, joined.value().NumRows());
  }

  std::vector<Mvd> mvds = tree.SupportMvds();
  for (int k = 0; k < 3; ++k) {
    // Arbitrary MVDs too: lhs = side_a cap side_b, possibly empty.
    Mvd mvd;
    mvd.side_a = RandomNonEmptySubset(rng, r.NumAttrs());
    mvd.side_b = RandomNonEmptySubset(rng, r.NumAttrs());
    mvd.lhs = mvd.side_a.Intersect(mvd.side_b);
    mvds.push_back(mvd);
  }
  for (const Mvd& mvd : mvds) {
    Result<LossReport> got = ComputeMvdLoss(session, r, mvd);
    Result<LossReport> ref = ComputeMvdLoss(r, mvd);
    ASSERT_TRUE(got.ok() && ref.ok()) << mvd.ToString();
    EXPECT_EQ(*got.value().join_size_exact, *ref.value().join_size_exact)
        << mvd.ToString();
    EXPECT_EQ(got.value().rho, ref.value().rho) << mvd.ToString();
  }

  for (int k = 0; k < 4; ++k) {
    const AttrSet s = RandomNonEmptySubset(rng, r.NumAttrs());
    EXPECT_EQ(CountDistinct(session, r, s), CountDistinct(r, s))
        << s.ToString();
  }

  const double kl = KlFromEmpirical(session, r, tree);
  const double kl_ref = FactorizedDistribution(r, tree).KlFromEmpirical();
  EXPECT_NEAR(kl, kl_ref, 1e-9);
  // Lemma 4.1 (J <= ln(1 + rho)) is a statement about SETS whose schema
  // covers every attribute; with duplicates or uncovered attributes R'
  // can be smaller than |R|.
  if (tree.AllAttrs() == r.schema().AllAttrs() &&
      CountDistinct(r, r.schema().AllAttrs()) == r.NumRows()) {
    EntropyCalculator calc(session, &r);
    const double j = JMeasure(&calc, tree);
    EXPECT_NEAR(kl, j, 1e-9);
    EXPECT_LE(j, loss.value().log1p_rho + 1e-9);
  }
}

void RunDifferential(const SessionOptions& options, uint64_t seed,
                     bool append) {
  Rng rng(seed);
  for (int trial = 0; trial < 30; ++trial) {
    const uint32_t num_attrs = 2 + static_cast<uint32_t>(rng.UniformU64(4));
    const uint32_t domain = 1 + static_cast<uint32_t>(rng.UniformU64(4));
    const uint32_t rows = 1 + static_cast<uint32_t>(rng.UniformU64(60));
    const bool dedupe = rng.Bernoulli(0.5);
    Relation r = MakeRelation(num_attrs, RandomRows(&rng, num_attrs, domain,
                                                    rows),
                              dedupe);
    AnalysisSession session(options);
    // Warm the engine with an unrelated entropy sweep so the partitions
    // come from varied chains, not only cold builds.
    EntropyCalculator calc(&session, &r);
    for (int q = 0; q < 6; ++q) {
      (void)calc.Entropy(RandomNonEmptySubset(&rng, num_attrs));
    }
    const JoinTree tree = RandomTree(&rng, num_attrs);
    ExpectSessionCountsMatchHash(&session, r, tree, &rng, "before append");
    if (!append) continue;
    // The catch-up path: partitions cached above extend to the new rows.
    for (int batch = 0; batch < 2; ++batch) {
      ASSERT_TRUE(r.AppendBatch(RandomRows(&rng, num_attrs, domain + 1,
                                           1 + static_cast<uint32_t>(
                                                   rng.UniformU64(30))),
                                dedupe)
                      .ok());
      ExpectSessionCountsMatchHash(&session, r, tree, &rng, "after append");
    }
  }
}

SessionOptions WithArbiterBudget(size_t bytes) {
  SessionOptions options;
  ArbiterOptions ao;
  ao.budget_bytes = bytes;
  ao.engine_floor_bytes = 0;
  options.engine.cache_arbiter = std::make_shared<CacheArbiter>(ao);
  return options;
}

TEST(PartitionLoss, MatchesHashOraclesWithDefaultSession) {
  RunDifferential(SessionOptions{}, 1201, /*append=*/false);
}

TEST(PartitionLoss, MatchesHashOraclesAtCacheBudgetZero) {
  RunDifferential(WithArbiterBudget(0), 1202, /*append=*/false);
}

TEST(PartitionLoss, MatchesHashOraclesUnderTightArbiterBudget) {
  RunDifferential(WithArbiterBudget(2048), 1203, /*append=*/false);
}

TEST(PartitionLoss, MatchesHashOraclesAfterAppends) {
  RunDifferential(SessionOptions{}, 1204, /*append=*/true);
  RunDifferential(WithArbiterBudget(2048), 1205, /*append=*/true);
}

TEST(PartitionLoss, RejectsWhatTheHashFormsReject) {
  Relation empty = MakeRelation(2, {}, false);
  Relation r = MakeRelation(2, {{0, 1}, {1, 0}}, false);
  JoinTree wide = JoinTree::Path({AttrSet::FromMask(0b101)}).value();
  AnalysisSession session;
  const JoinTree tree = JoinTree::Path({AttrSet::FromMask(0b11)}).value();
  EXPECT_EQ(ComputeLoss(&session, empty, tree).status().code(),
            ComputeLoss(empty, tree).status().code());
  EXPECT_EQ(ComputeLoss(&session, r, wide).status().code(),
            ComputeLoss(r, wide).status().code());
  Mvd bad;
  bad.lhs = AttrSet::FromMask(0b1);
  bad.side_a = AttrSet::FromMask(0b10);
  bad.side_b = AttrSet::FromMask(0b11);
  EXPECT_EQ(ComputeMvdLoss(&session, r, bad).status().code(),
            ComputeMvdLoss(r, bad).status().code());
  EXPECT_EQ(KlFromEmpirical(&session, empty, tree), 0.0);
}

// The KL sum runs per row in a fixed set order, so neither the block order
// of the cached partitions (which depends on the chains that built them)
// nor the thread count can move a bit.
TEST(PartitionLoss, KlIsBitIdenticalAcrossCacheHistory) {
  Rng rng(1206);
  uint64_t differing_chains = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const uint32_t num_attrs = 3 + static_cast<uint32_t>(rng.UniformU64(3));
    const uint32_t domain = 2 + static_cast<uint32_t>(rng.UniformU64(3));
    Relation r = MakeRelation(
        num_attrs, RandomRows(&rng, num_attrs, domain, 200), false);
    const JoinTree tree = RandomTree(&rng, num_attrs);
    AnalysisSession warm;
    EntropyCalculator calc(&warm, &r);
    for (int q = 0; q < 12; ++q) {
      (void)calc.Entropy(RandomNonEmptySubset(&rng, num_attrs));
    }
    const double kl_warm = KlFromEmpirical(&warm, r, tree);
    AnalysisSession fresh;
    const double kl_fresh = KlFromEmpirical(&fresh, r, tree);
    EXPECT_EQ(kl_warm, kl_fresh) << tree.ToString();
    for (AttrSet bag : tree.bags()) {
      std::vector<uint32_t> chain_warm, chain_fresh;
      if (warm.EngineFor(r).CachedPartitionInfo(bag, &chain_warm, nullptr) &&
          fresh.EngineFor(r).CachedPartitionInfo(bag, &chain_fresh,
                                                 nullptr) &&
          chain_warm != chain_fresh) {
        ++differing_chains;
      }
    }
  }
  // The property is only tested if some bag was built along another chain.
  EXPECT_GT(differing_chains, 0u);
}

TEST(PartitionLoss, KlIsBitIdenticalAcrossThreadCounts) {
  // Enough stripped rows that the engine shards its refinements
  // (kShardedRefineMinMass) when given threads.
  Rng rng(1207);
  const uint32_t num_attrs = 4;
  Relation r = MakeRelation(
      num_attrs, RandomRows(&rng, num_attrs, 3, (1u << 19) + 4096), false);
  const JoinTree tree = JoinTree::Path({AttrSet::FromMask(0b0011),
                                        AttrSet::FromMask(0b0110),
                                        AttrSet::FromMask(0b1100)})
                            .value();
  double kl[2];
  uint64_t count[2];
  for (int i = 0; i < 2; ++i) {
    SessionOptions options;
    options.engine.num_threads = i == 0 ? 1 : 4;
    options.engine.refine_threads = options.engine.num_threads;
    AnalysisSession session(options);
    kl[i] = KlFromEmpirical(&session, r, tree);
    count[i] = *ComputeLoss(&session, r, tree).value().join_size_exact;
  }
  EXPECT_EQ(kl[0], kl[1]);
  EXPECT_EQ(count[0], count[1]);
  EXPECT_EQ(count[0], *CountAcyclicJoin(r, tree).exact);
}

TEST(PartitionLoss, AnalyzeAjdMatchesHashOracles) {
  Rng rng(1208);
  for (int trial = 0; trial < 10; ++trial) {
    const uint32_t num_attrs = 3 + static_cast<uint32_t>(rng.UniformU64(3));
    Relation r = testing_util::RandomTestRelation(&rng, num_attrs, 3, 80);
    const JoinTree tree = testing_util::RandomJoinTree(&rng, num_attrs);
    AnalysisSession session;
    Result<AjdAnalysis> a = AnalyzeAjd(&session, r, tree);
    ASSERT_TRUE(a.ok());
    EXPECT_EQ(*a.value().loss.join_size_exact, *CountAcyclicJoin(r, tree).exact);
    EXPECT_NEAR(a.value().kl,
                FactorizedDistribution(r, tree).KlFromEmpirical(), 1e-9);
    const std::vector<Mvd> support = tree.SupportMvds();
    ASSERT_EQ(a.value().support.size(), support.size());
    for (size_t i = 0; i < support.size(); ++i) {
      const Mvd& mvd = support[i];
      const MvdStat& stat = a.value().support[i];
      EXPECT_EQ(stat.rho, ComputeMvdLoss(r, mvd).value().rho);
      const AttrSet a_branch = mvd.side_a.Minus(mvd.lhs);
      const AttrSet b_branch = mvd.side_b.Minus(mvd.lhs);
      EXPECT_EQ(stat.d_a, a_branch.Empty() ? 1 : CountDistinct(r, a_branch));
      EXPECT_EQ(stat.d_b, b_branch.Empty() ? 1 : CountDistinct(r, b_branch));
      EXPECT_EQ(stat.d_c, mvd.lhs.Empty() ? 1 : CountDistinct(r, mvd.lhs));
    }
  }
}

// CertifyLoss reads d_a, d_b, d_c off the session's partitions; a
// certificate assembled from the hash CountDistinct values must render the
// same bytes.
TEST(PartitionLoss, CertificateMatchesHashDomainSizes) {
  Rng rng(1209);
  for (int trial = 0; trial < 8; ++trial) {
    const uint32_t num_attrs = 3 + static_cast<uint32_t>(rng.UniformU64(3));
    Relation r = testing_util::RandomTestRelation(&rng, num_attrs, 4, 300);
    const JoinTree tree = testing_util::RandomJoinTree(&rng, num_attrs);
    AnalysisSession session;
    Result<LossCertificate> cert = CertifyLoss(&session, r, tree);
    ASSERT_TRUE(cert.ok());
    LossCertificate hashed = cert.value();
    const double per_mvd_delta =
        hashed.delta / static_cast<double>(hashed.mvds.size());
    hashed.bound_nats = 0.0;
    for (MvdCertificate& mc : hashed.mvds) {
      const AttrSet a_branch = mc.mvd.side_a.Minus(mc.mvd.lhs);
      const AttrSet b_branch = mc.mvd.side_b.Minus(mc.mvd.lhs);
      mc.d_a = a_branch.Empty() ? 1 : CountDistinct(r, a_branch);
      mc.d_b = b_branch.Empty() ? 1 : CountDistinct(r, b_branch);
      mc.d_c = mc.mvd.lhs.Empty() ? 1 : CountDistinct(r, mc.mvd.lhs);
      mc.epsilon =
          EpsilonStarMvd(mc.d_a, mc.d_b, mc.d_c, hashed.n, per_mvd_delta);
      mc.qualifies_37 =
          Theorem51Applies(mc.d_a, mc.d_b, mc.d_c, hashed.n, per_mvd_delta);
      hashed.bound_nats += mc.cmi + mc.epsilon;
    }
    hashed.bound_rho = std::expm1(hashed.bound_nats);
    EXPECT_EQ(cert.value().ToString(), hashed.ToString());
  }
}

TEST(PartitionLoss, StreamingExactLossMatchesHashPerBatch) {
  Rng rng(1210);
  const uint32_t num_attrs = 4;
  Relation r = MakeRelation(num_attrs, RandomRows(&rng, num_attrs, 3, 40),
                            true);
  const JoinTree tree = testing_util::RandomPathJoinTree(&rng, num_attrs);
  StreamingOptions options;
  options.compute_exact_loss = true;
  options.drift_threshold = 0.0;  // keep the tree fixed
  Result<StreamingLossMonitor> monitor =
      StreamingLossMonitor::Create(&r, tree, options);
  ASSERT_TRUE(monitor.ok());
  for (int batch = 0; batch < 8; ++batch) {
    Result<StreamingPoint> point = monitor.value().IngestBatch(
        RandomRows(&rng, num_attrs, 3 + batch % 3, 25));
    ASSERT_TRUE(point.ok());
    ASSERT_TRUE(point.value().rho.has_value());
    EXPECT_EQ(*point.value().rho, ComputeLoss(r, tree).value().rho)
        << "batch " << batch;
  }
}

// --- EntropyEngine::PartitionOf -------------------------------------------

void ExpectSameBytes(const Partition& got, const Partition& want) {
  std::vector<uint32_t> got_rows, got_offsets, want_rows, want_offsets;
  got.FlattenStripped(&got_rows, &got_offsets);
  want.FlattenStripped(&want_rows, &want_offsets);
  EXPECT_EQ(got_rows, want_rows);
  EXPECT_EQ(got_offsets, want_offsets);
}

TEST(PartitionOf, EmptySetIsTheTrivialPartition) {
  Relation r = MakeRelation(2, {{0, 1}, {1, 0}, {1, 1}}, false);
  EntropyEngine engine(&r);
  std::shared_ptr<const Partition> p = engine.PartitionOf(AttrSet());
  ExpectSameBytes(*p, Partition::Trivial(3));
  EXPECT_EQ(engine.Stats().partition_queries, 0u);
  EXPECT_EQ(engine.PartitionCacheSize(), 0u);

  Relation one = MakeRelation(2, {{0, 1}}, false);
  EntropyEngine single(&one);
  EXPECT_EQ(single.PartitionOf(AttrSet())->NumBlocks(), 0u);
}

TEST(PartitionOf, CountsHitsApartFromEntropyQueries) {
  Rng rng(1211);
  Relation r = MakeRelation(3, RandomRows(&rng, 3, 3, 50), false);
  EntropyEngine engine(&r);
  const AttrSet s = AttrSet::FromMask(0b011);
  std::shared_ptr<const Partition> first = engine.PartitionOf(s);
  EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.partition_queries, 1u);
  EXPECT_EQ(stats.partition_hits, 0u);
  EXPECT_EQ(stats.queries, 0u);
  std::shared_ptr<const Partition> second = engine.PartitionOf(s);
  stats = engine.Stats();
  EXPECT_EQ(stats.partition_queries, 2u);
  EXPECT_EQ(stats.partition_hits, 1u);
  EXPECT_EQ(first.get(), second.get());  // the cached entry itself
  // The miss also cached H(s): the next entropy query is a hit.
  EXPECT_NEAR(engine.Entropy(s), EntropyOf(r, s), 1e-12);
  EXPECT_EQ(engine.Stats().hits, 1u);
  EXPECT_EQ(r.NumRows() - first->NumStrippedRows() + first->NumBlocks(),
            CountDistinct(r, s));
}

TEST(PartitionOf, BudgetZeroReturnsButDoesNotCache) {
  Rng rng(1212);
  Relation r = MakeRelation(3, RandomRows(&rng, 3, 3, 60), false);
  ArbiterOptions ao;
  ao.budget_bytes = 0;
  ao.engine_floor_bytes = 0;
  EngineOptions options;
  options.cache_arbiter = std::make_shared<CacheArbiter>(ao);
  EntropyEngine engine(&r, options);
  const AttrSet s = AttrSet::FromMask(0b111);
  std::shared_ptr<const Partition> p = engine.PartitionOf(s);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(engine.PartitionCacheSize(), 0u);
  EXPECT_FALSE(engine.CachedPartitionInfo(s, nullptr, nullptr));
  std::shared_ptr<const Partition> again = engine.PartitionOf(s);
  EXPECT_EQ(engine.Stats().partition_hits, 0u);
  ExpectSameBytes(*again, *p);
  EntropyEngine unbounded(&r);
  ExpectSameBytes(*p, *unbounded.PartitionOf(s));
}

// A held partition must never change under the holder: catch-up extends
// in place only while the cache owns the sole reference.
TEST(PartitionOf, HeldPartitionStaysUnchangedWhileAppendsPublish) {
  Rng rng(1213);
  const uint32_t num_attrs = 3;
  Relation r = MakeRelation(num_attrs, RandomRows(&rng, num_attrs, 4, 400),
                            false);
  std::vector<Rows> batches;
  for (int k = 0; k < 6; ++k) {
    batches.push_back(RandomRows(&rng, num_attrs, 4, 50));
  }
  EntropyEngine engine(&r);
  const AttrSet sets[] = {AttrSet::FromMask(0b001), AttrSet::FromMask(0b011),
                          AttrSet::FromMask(0b111)};
  std::vector<std::shared_ptr<const Partition>> held;
  std::vector<std::vector<uint32_t>> rows_before(3), offsets_before(3);
  for (int i = 0; i < 3; ++i) {
    held.push_back(engine.PartitionOf(sets[i]));
    held[i]->FlattenStripped(&rows_before[i], &offsets_before[i]);
  }
  std::atomic<bool> done{false};
  bool append_failed = false;
  std::thread appender([&] {
    for (const Rows& batch : batches) {
      if (!r.AppendBatch(batch).ok()) {
        append_failed = true;
        break;
      }
      engine.CatchUp();
      for (AttrSet s : sets) (void)engine.PartitionOf(s);
    }
    done.store(true);
  });
  // Read the held partitions while catch-ups publish.
  bool changed = false;
  while (!done.load() && !changed) {
    for (int i = 0; i < 3; ++i) {
      std::vector<uint32_t> rows, offsets;
      held[i]->FlattenStripped(&rows, &offsets);
      changed = changed || rows != rows_before[i] ||
                offsets != offsets_before[i];
    }
  }
  appender.join();
  ASSERT_FALSE(append_failed);
  EXPECT_FALSE(changed);
  for (int i = 0; i < 3; ++i) {
    std::vector<uint32_t> rows, offsets;
    held[i]->FlattenStripped(&rows, &offsets);
    EXPECT_EQ(rows, rows_before[i]);
    EXPECT_EQ(offsets, offsets_before[i]);
    // The engine's current partition covers the grown relation exactly.
    std::shared_ptr<const Partition> now = engine.PartitionOf(sets[i]);
    EXPECT_EQ(r.NumRows() - now->NumStrippedRows() + now->NumBlocks(),
              CountDistinct(r, sets[i]));
  }
  EXPECT_GT(engine.Stats().partitions_extended, 0u);
}

}  // namespace
}  // namespace ajd
