#include "workloads.h"

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <istream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <streambuf>

#include "core/analysis.h"
#include "core/loss.h"
#include "core/streaming.h"
#include "data.h"
#include "discovery/miner.h"
#include "engine/analysis_session.h"
#include "engine/cache_arbiter.h"
#include "engine/column_store.h"
#include "engine/entropy_engine.h"
#include "engine/partition.h"
#include "engine/refine_kernels.h"
#include "engine/worker_pool.h"
#include "info/entropy.h"
#include "info/factorized.h"
#include "info/j_measure.h"
#include "io/csv.h"
#include "persist/persistent_store.h"
#include "relation/acyclic_join.h"
#include "relation/ops.h"
#include "relation/relation.h"

namespace pipebench {
namespace {

using namespace ajd;
namespace fs = std::filesystem;

// Set-up runs at least kMinSetupReps and at most kMaxSetupReps times per
// run, stopping once kSetupBudgetS have gone into it; setup_s is the
// median. The first repetitions pay first-touch page faults, so cheap
// set-ups repeat more.
constexpr int kMinSetupReps = 3;
constexpr int kMaxSetupReps = 7;
constexpr double kSetupBudgetS = 2.0;
// J and KL agree with their references to this absolute tolerance (nats).
constexpr double kJTolerance = 1e-9;

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile, p in (0, 100].
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<size_t>(rank, 1)) - 1];
}

double MsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e6;
}

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string JsonString(const std::string& s) { return "\"" + s + "\""; }

// A read-only istream over a string the caller keeps alive: the CSV text
// is parsed in place instead of being copied into a stringstream.
class MemoryBuf : public std::streambuf {
 public:
  explicit MemoryBuf(const std::string& text) {
    char* p = const_cast<char*>(text.data());
    setg(p, p, p + text.size());
  }
};

Schema MakeSchema(uint32_t attrs) {
  return Schema::MakeUniform(AttrNames(attrs), 0).value();
}

// Shared bookkeeping of one run: status accounting, correctness checks,
// the clock, and the samples every workload reports.
class Harness {
 public:
  Harness(const RunConfig& cfg, Tracer* tracer) : cfg(cfg), tracer(tracer) {}

  const RunConfig& cfg;
  Tracer* tracer;

  bool Ok(const Status& s, const char* call) {
    ++attempted;
    if (s.ok()) return true;
    ++failed;
    std::fprintf(stderr, "pipebench: %s failed: %s\n", call,
                 s.ToString().c_str());
    return false;
  }

  void Expect(bool cond, const std::string& what) {
    if (cond) return;
    correct = false;
    std::fprintf(stderr, "pipebench: check failed: %s\n", what.c_str());
  }

  void ExpectNear(double got, double want, double tol,
                  const std::string& what) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), " (got %.15g, want %.15g)", got, want);
    Expect(std::abs(got - want) <= tol, what + buf);
  }

  // Runs `setup` per the repetition policy above (tiny runs: once) and
  // records each duration; the last repetition's state is what the run
  // uses.
  template <typename F>
  void SetUp(F&& setup) {
    double total_s = 0.0;
    for (int i = 0; i < (cfg.tiny ? 1 : kMaxSetupReps); ++i) {
      if (i >= kMinSetupReps && total_s >= kSetupBudgetS) break;
      const int64_t t0 = NowNs();
      setup();
      setup_s.push_back(MsSince(t0) / 1e3);
      total_s += setup_s.back();
    }
  }

  void StartClock() { start_ns_ = NowNs(); }
  bool TimeUp() const { return MsSince(start_ns_) / 1e3 >= cfg.seconds; }

  // Accumulates engine counters over one span.
  void AddEngine(const EngineStats& a, const EngineStats& b) {
    if (!counting) return;
    counters["engine.entropy_engine.queries"] += b.queries - a.queries;
    counters["hits"] += b.hits - a.hits;
    counters["engine.entropy_engine.refinements"] +=
        b.refinements - a.refinements;
    counters["engine.entropy_engine.base_reuses"] +=
        b.base_reuses - a.base_reuses;
    counters["engine.entropy_engine.evictions"] += b.evictions - a.evictions;
    counters["engine.entropy_engine.partitions_extended"] +=
        b.partitions_extended - a.partitions_extended;
    counters["engine.entropy_engine.partitions_replayed"] +=
        b.partitions_replayed - a.partitions_replayed;
    counters["persist.hits"] += b.persist_hits - a.persist_hits;
    counters["persist.reloads"] += b.persist_reloads - a.persist_reloads;
    counters["persist.extended"] += b.persist_extended - a.persist_extended;
    counters["persist.spills"] += b.persist_spills - a.persist_spills;
    counters["persist.fallbacks"] +=
        b.persist_fallbacks - a.persist_fallbacks;
  }

  void AddArbiter(const AnalysisSession& session, const ArbiterStats& a) {
    const CacheArbiter* arbiter = session.cache_arbiter();
    if (!counting || arbiter == nullptr) return;
    const ArbiterStats b = arbiter->Stats();
    counters["engine.cache_arbiter.charges"] += b.charges - a.charges;
    counters["engine.cache_arbiter.evictions"] += b.evictions - a.evictions;
  }

  void SampleArbiterBytes(const AnalysisSession& session) {
    if (!counting) return;
    bytes_peak = std::max(bytes_peak, static_cast<double>(session.CacheBytes()));
  }

  // One MineJoinTree call under a span, with engine deltas and the
  // process CPU time it burned per wall second.
  Result<MinerReport> Mine(AnalysisSession* session, const Relation& r,
                           const MinerOptions& options) {
    const EngineStats before = session->TotalStats();
    const double cpu0 = CpuSeconds();
    const int64_t t0 = NowNs();
    Result<MinerReport> report = [&] {
      ScopedSpan span(tracer, "discovery.miner.mine");
      return MineJoinTree(session, r, options);
    }();
    const EngineStats after = session->TotalStats();
    if (counting) {
      mine_wall_s += MsSince(t0) / 1e3;
      mine_cpu_s += CpuSeconds() - cpu0;
      counters["discovery.miner.queries"] += after.queries - before.queries;
      ++mines;
    }
    AddEngine(before, after);
    SampleArbiterBytes(*session);
    return report;
  }

  Result<AjdAnalysis> Analyze(AnalysisSession* session, const Relation& r,
                              const JoinTree& tree) {
    const EngineStats before = session->TotalStats();
    Result<AjdAnalysis> analysis = [&] {
      ScopedSpan span(tracer, "core.analysis.analyze");
      return AnalyzeAjd(session, r, tree);
    }();
    AddEngine(before, session->TotalStats());
    SampleArbiterBytes(*session);
    return analysis;
  }

  // J(T) through a session-backed calculator, under a span.
  double J(AnalysisSession* session, const Relation& r, const JoinTree& tree) {
    const EngineStats before = session->TotalStats();
    double j = 0.0;
    {
      ScopedSpan span(tracer, "info.j_measure.j");
      EntropyCalculator calc(session, &r);
      j = JMeasure(&calc, tree);
    }
    AddEngine(before, session->TotalStats());
    SampleArbiterBytes(*session);
    return j;
  }

  // Replays AnalyzeAjd's sub-steps as separate public calls on the same
  // inputs (traced runs only), plus the column-store and partition layers
  // over the mined tree's bags.
  void ReplayLayers(AnalysisSession* session, const Relation& r,
                    const JoinTree& tree, double analyze_ms) {
    ScopedSpan replay(tracer, "replay.layers");
    const int64_t t0 = NowNs();
    {
      ScopedSpan s(tracer, "relation.acyclic_join.count");
      (void)CountAcyclicJoin(r, tree);
    }
    {
      ScopedSpan s(tracer, "info.factorized.kl");
      FactorizedDistribution pt(r, tree);
      (void)pt.KlFromEmpirical();
    }
    {
      ScopedSpan s(tracer, "core.loss.mvd_loss");
      for (const Mvd& mvd : tree.SupportMvds()) {
        Ok(ComputeMvdLoss(r, mvd).status(), "ComputeMvdLoss");
      }
    }
    {
      ScopedSpan s(tracer, "relation.ops.count_distinct");
      for (const Mvd& mvd : tree.SupportMvds()) {
        for (AttrSet set : {mvd.side_a.Minus(mvd.lhs),
                            mvd.side_b.Minus(mvd.lhs), mvd.lhs}) {
          if (!set.Empty()) (void)CountDistinct(r, set);
        }
      }
    }
    {
      ScopedSpan s(tracer, "info.j_measure.j");
      EntropyCalculator calc(session, &r);
      (void)JMeasure(&calc, tree);
    }
    replay_ms += MsSince(t0);
    replay_analyze_ms += analyze_ms;

    ColumnStore store(&r);
    std::vector<Column> cols;
    {
      ScopedSpan s(tracer, "engine.column_store.densify");
      for (uint32_t pos = 0; pos < r.NumAttrs(); ++pos) {
        cols.push_back(store.column(pos));
      }
    }
    // Refinement over every bag's columns in order, serial and sharded on
    // the shared pool; the cost per stripped row entering each step.
    const std::shared_ptr<WorkerPool>& pool = WorkerPool::Shared();
    for (uint32_t threads : {1u, cfg.threads}) {
      ScopedSpan s(tracer, threads == 1 ? "engine.partition.refine_serial"
                                        : "engine.partition.refine_threads");
      double ns = 0.0, rows = 0.0;
      for (AttrSet bag : tree.bags()) {
        const std::vector<uint32_t> idx = bag.ToIndices();
        Partition p = Partition::OfColumn(cols[idx[0]]);
        for (size_t k = 1; k < idx.size(); ++k) {
          rows += static_cast<double>(p.NumStrippedRows());
          const int64_t t = NowNs();
          p = p.RefinedBySharded(cols[idx[k]], RefineKernel::kAuto, threads,
                                 pool.get());
          ns += static_cast<double>(NowNs() - t);
        }
      }
      refine_ns_per_row[threads == 1 ? 0 : 1].push_back(rows > 0 ? ns / rows
                                                                 : 0.0);
    }
  }

  // Workload-independent end-to-end metrics from the samples above.
  void FinishEndToEnd(RunResult* out) const {
    double rows_per_s = rows_time_s > 0 ? rows_done / rows_time_s : 0.0;
    out->end_to_end = {
        {"setup_s", Median(setup_s), "s"},
        {"op_ms_p50", Median(op_ms), "ms"},
        {"op_ms_p95", Percentile(op_ms, 95.0), "ms"},
        {"rows_per_s", rows_per_s, "rows/s"},
        {"first_j_ms", Median(first_j_ms), "ms"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
  }

  bool correct = true;
  /// Off while set-up and reference runs call the library: their engine
  /// counters and spans stay out of the workload's per-layer numbers.
  bool counting = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  std::vector<double> setup_s;
  std::vector<double> op_ms;       // one per workload operation
  std::vector<double> first_j_ms;  // operation start -> first J in hand
  double rows_done = 0.0;          // rows the operations ingested
  double rows_time_s = 0.0;        // ... and the time they took

  std::map<std::string, double> counters;  // per-layer totals
  double bytes_peak = 0.0;
  double mine_wall_s = 0.0, mine_cpu_s = 0.0;
  uint64_t mines = 0;
  double replay_ms = 0.0, replay_analyze_ms = 0.0;
  std::vector<double> refine_ns_per_row[2];  // serial, threaded
  std::vector<double> remine_ms;
  std::vector<double> saved_ms;
  std::vector<double> persist_all_ms;
  double store_mb = 0.0;
  double payload_loads = 0.0;

 private:
  int64_t start_ns_ = 0;
};

// Runs the library calls of a reference computation with no spans and no
// counters, restoring the harness on scope exit.
class Uncounted {
 public:
  explicit Uncounted(Harness* h)
      : h_(h), saved_tracer_(h->tracer), saved_counting_(h->counting) {
    h_->tracer = &off_;
    h_->counting = false;
  }
  ~Uncounted() {
    h_->tracer = saved_tracer_;
    h_->counting = saved_counting_;
  }
  Uncounted(const Uncounted&) = delete;
  Uncounted& operator=(const Uncounted&) = delete;

 private:
  Harness* h_;
  Tracer off_{false};
  Tracer* saved_tracer_;
  bool saved_counting_;
};

// ---------------------------------------------------------------------------
// fit_batch
// ---------------------------------------------------------------------------

void RunFitBatch(Harness& h, RunResult* out) {
  const uint32_t attrs = h.cfg.tiny ? 6 : 8;
  const uint64_t raw_rows = h.cfg.tiny ? 3000 : 640000;
  const double noise = 0.3;

  std::string csv;
  Relation reference;
  h.SetUp([&] {
    Rng rng(h.cfg.seed);
    const MarkovTreeModel model = MakeModel(attrs, &rng);
    Rows rows;
    SampleRows(model, noise, raw_rows, &rng, &rows);
    csv = RenderCsv(rows, attrs);
    Result<Relation> ref =
        Relation::FromRows(MakeSchema(attrs), std::move(rows), true);
    if (h.Ok(ref.status(), "Relation::FromRows")) {
      reference = std::move(ref).value();
    }
  });
  out->facts = {{"attrs", std::to_string(attrs)},
                {"rows_generated", std::to_string(raw_rows)},
                {"rows_distinct", std::to_string(reference.NumRows())},
                {"csv_bytes", std::to_string(csv.size())},
                {"noise", "0.3"}};

  SessionOptions so;
  so.engine.num_threads = h.cfg.threads;
  so.engine.refine_threads = h.cfg.threads;
  so.cache_budget_bytes = std::numeric_limits<size_t>::max();
  MinerOptions mopt;  // separator <= 2, bag <= 3
  CsvOptions copt;    // header, dedupe

  std::optional<std::string> first_report;
  std::optional<double> legacy_j;
  std::optional<AcyclicJoinCount> legacy_count;
  h.StartClock();
  do {
    Relation r = Relation::FromRows(MakeSchema(attrs), {}, true).value();
    AnalysisSession session(so);
    const ArbiterStats arbiter0 = session.cache_arbiter()->Stats();

    const int64_t t0 = NowNs();
    const int32_t op = h.tracer->Begin("op.fit");
    bool ok = false;
    std::optional<MinerReport> report;
    std::optional<AjdAnalysis> analysis;
    {
      MemoryBuf buf(csv);
      std::istream in(&buf);
      ScopedSpan span(h.tracer, "io.csv.ingest");
      ok = h.Ok(AppendCsvBatches(in, &r, copt, 1 << 16), "AppendCsvBatches");
    }
    if (ok) {
      Result<MinerReport> mined = h.Mine(&session, r, mopt);
      ok = h.Ok(mined.status(), "MineJoinTree");
      if (ok) report = std::move(mined).value();
    }
    const double first_j = MsSince(t0);
    if (ok) {
      Result<AjdAnalysis> a = h.Analyze(&session, r, report->tree);
      ok = h.Ok(a.status(), "AnalyzeAjd");
      if (ok) analysis = std::move(a).value();
    }
    h.tracer->End(op);
    const double op_ms = MsSince(t0);
    if (!ok) continue;
    h.op_ms.push_back(op_ms);
    h.first_j_ms.push_back(first_j);
    h.rows_done += static_cast<double>(raw_rows);
    h.rows_time_s += op_ms / 1e3;
    h.AddArbiter(session, arbiter0);

    // Correctness, untimed.
    const JoinTree& tree = report->tree;
    const std::string text = report->ToString(r.schema());
    if (!first_report) first_report = text;
    h.Expect(text == *first_report,
             "MinerReport::ToString differs between fits of one run");
    if (!legacy_j) {
      // The legacy single-shot entropies on the generator's own rows.
      double j = -EntropyOf(reference, tree.AllAttrs());
      for (AttrSet bag : tree.bags()) j += EntropyOf(reference, bag);
      for (const auto& [u, v] : tree.Edges()) {
        j -= EntropyOf(reference, tree.bag(u).Intersect(tree.bag(v)));
      }
      legacy_j = j + (h.cfg.perturb_reference ? 1e-6 : 0.0);
      legacy_count = CountAcyclicJoin(reference, tree);
    }
    h.Expect(analysis->n == reference.NumRows(),
             "CSV ingest and generator rows disagree on |R|");
    h.ExpectNear(analysis->j, *legacy_j, kJTolerance,
                 "J equals the legacy EntropyOf J");
    h.ExpectNear(analysis->kl, analysis->j, kJTolerance,
                 "KL(P || P^T) equals J (Theorem 3.2)");
    if (legacy_count->exact && analysis->loss.join_size_exact) {
      h.Expect(*legacy_count->exact == *analysis->loss.join_size_exact,
               "|R'| equals CountAcyclicJoin on the generator rows");
    } else {
      h.ExpectNear(analysis->loss.join_size, legacy_count->approx,
                   1e-12 * legacy_count->approx,
                   "|R'| equals CountAcyclicJoin on the generator rows");
    }
    h.Expect(std::expm1(analysis->j) <=
                 analysis->loss.rho * (1 + 1e-12) + 1e-12,
             "e^J - 1 <= rho (Lemma 4.1)");

    if (h.tracer->enabled() && h.refine_ns_per_row[0].empty()) {
      const std::vector<double> analyze =
          h.tracer->DurationsMs("core.analysis.analyze");
      h.ReplayLayers(&session, r, tree, analyze.back());
    }
  } while (!h.TimeUp());
}

// ---------------------------------------------------------------------------
// stream_drift
// ---------------------------------------------------------------------------

// Noise of batch b: a sawtooth that climbs from the base relation's level
// over each period, so J of the monitored tree rises until the drift
// policy re-mines, then the next period starts from clean rows again.
double BatchNoise(uint32_t b, uint32_t period) {
  return 0.1 + 0.2 * static_cast<double>(b % period) / period;
}

double ColdJ(const Relation& r, const JoinTree& tree) {
  AnalysisSession fresh;
  EntropyCalculator calc(&fresh, &r);
  return JMeasure(&calc, tree);
}

void RunStreamDrift(Harness& h, RunResult* out) {
  const uint32_t attrs = h.cfg.tiny ? 6 : 10;
  const uint64_t base_rows = h.cfg.tiny ? 2000 : 100000;
  const uint32_t batches = h.cfg.tiny ? 20 : 50;
  const uint32_t batch_rows = h.cfg.tiny ? 50 : 1000;
  const uint32_t period = h.cfg.tiny ? 10 : 50;
  const uint32_t check_every = h.cfg.tiny ? 5 : 25;

  Relation base;
  std::vector<Rows> batch_data;
  h.SetUp([&] {
    Rng rng(h.cfg.seed);
    const MarkovTreeModel model = MakeModel(attrs, &rng);
    Rows rows;
    SampleRows(model, 0.1, base_rows, &rng, &rows);
    Result<Relation> rel =
        Relation::FromRows(MakeSchema(attrs), std::move(rows), true);
    if (h.Ok(rel.status(), "Relation::FromRows")) base = std::move(rel).value();
    batch_data.assign(batches, Rows());
    for (uint32_t b = 0; b < batches; ++b) {
      SampleRows(model, BatchNoise(b, period), batch_rows, &rng,
                 &batch_data[b]);
    }
  });
  out->facts = {{"attrs", std::to_string(attrs)},
                {"rows_generated", std::to_string(base_rows)},
                {"rows_distinct", std::to_string(base.NumRows())},
                {"batches", std::to_string(batches)},
                {"batch_rows", std::to_string(batch_rows)}};

  StreamingOptions so;  // serial session, 0.1-nat absolute drift policy
  const double perturb = h.cfg.perturb_reference ? 1e-6 : 0.0;
  uint64_t episodes = 0, remines = 0, checks = 0;
  h.StartClock();
  do {
    Relation r = base;  // a copy: every episode replays the same stream
    const int64_t t0 = NowNs();
    std::optional<StreamingLossMonitor> monitor;
    {
      ScopedSpan op(h.tracer, "op.start");
      const double cpu0 = CpuSeconds();
      ScopedSpan span(h.tracer, "core.streaming.start");
      Result<StreamingLossMonitor> m =
          StreamingLossMonitor::WithMinedTree(&r, so);
      h.mine_wall_s += MsSince(t0) / 1e3;
      h.mine_cpu_s += CpuSeconds() - cpu0;
      if (!h.Ok(m.status(), "StreamingLossMonitor::WithMinedTree")) continue;
      monitor.emplace(std::move(m).value());
    }
    h.first_j_ms.push_back(MsSince(t0));
    ++episodes;
    AnalysisSession& session = monitor->session();
    for (uint32_t b = 0; b < batches; ++b) {
      const JoinTree tree_before = monitor->tree();
      const uint64_t rows_before = r.NumRows();
      const EngineStats stats0 = session.TotalStats();
      const int64_t tb = NowNs();
      Result<StreamingPoint> point = [&]() -> Result<StreamingPoint> {
        if (!h.tracer->enabled()) {
          return monitor->IngestBatch(batch_data[b], /*dedupe=*/true);
        }
        // IngestBatch under the default kFail policy, one layer at a time.
        ScopedSpan op(h.tracer, "op.batch");
        {
          ScopedSpan span(h.tracer, "relation.append");
          Status appended = r.AppendBatch(batch_data[b], /*dedupe=*/true);
          if (!appended.ok()) return appended;
        }
        {
          ScopedSpan span(h.tracer, "engine.entropy_engine.catchup");
          session.EngineFor(r).CatchUp();
        }
        ScopedSpan span(h.tracer, "core.streaming.observe");
        const int64_t to = NowNs();
        Result<StreamingPoint> observed = monitor->Observe();
        if (observed.ok() && observed.value().remined) {
          h.remine_ms.push_back(MsSince(to));
        }
        return observed;
      }();
      const double batch_ms = MsSince(tb);
      if (!h.Ok(point.status(), "IngestBatch")) continue;
      h.op_ms.push_back(batch_ms);
      h.rows_done += static_cast<double>(r.NumRows() - rows_before);
      h.rows_time_s += batch_ms / 1e3;
      h.AddEngine(stats0, session.TotalStats());
      h.SampleArbiterBytes(session);

      // Correctness, untimed: sampled batches and every re-mine.
      const StreamingPoint& p = point.value();
      if (p.remined) ++remines;
      if (p.remined || b % check_every == check_every - 1) {
        ++checks;
        h.ExpectNear(p.j, ColdJ(r, tree_before) + perturb, kJTolerance,
                     "streamed J equals a cold recompute");
        if (p.remined) {
          h.ExpectNear(*p.j_after_remine, ColdJ(r, monitor->tree()),
                       kJTolerance,
                       "re-mined tree's J equals a cold recompute");
        }
      }
    }
  } while (!h.TimeUp());
  out->facts.push_back({"episodes", std::to_string(episodes)});
  out->facts.push_back({"remines", std::to_string(remines)});
  out->facts.push_back({"checked_batches", std::to_string(checks)});
}

// ---------------------------------------------------------------------------
// restart_warm
// ---------------------------------------------------------------------------

bool WriteTree(const JoinTree& tree, const std::string& path) {
  std::ofstream f(path);
  for (AttrSet bag : tree.bags()) f << bag.mask() << ' ';
  f << '\n';
  for (const auto& [u, v] : tree.Edges()) f << u << ' ' << v << ' ';
  f << '\n';
  return static_cast<bool>(f);
}

Result<JoinTree> ReadTree(const std::string& path) {
  std::ifstream f(path);
  std::string bags_line, edges_line;
  if (!std::getline(f, bags_line) || !std::getline(f, edges_line)) {
    return Status::IoError("cannot read persisted tree " + path);
  }
  std::vector<AttrSet> bags;
  std::istringstream bl(bags_line);
  for (uint64_t mask = 0; bl >> mask;) bags.push_back(AttrSet::FromMask(mask));
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  std::istringstream el(edges_line);
  for (uint32_t u = 0, v = 0; el >> u >> v;) edges.emplace_back(u, v);
  return JoinTree::Make(std::move(bags), std::move(edges));
}

uint64_t DirBytes(const fs::path& dir) {
  uint64_t bytes = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) bytes += e.file_size();
  }
  return bytes;
}

// Copies a persisted store directory for one restart. Blob files are
// immutable once renamed into blobs/ (persist/persistent_store.h: new
// payloads get new ids, erasure unlinks), so they are hard-linked rather
// than rewritten; only the append-only MANIFEST is copied. That keeps the
// reset from writing the store's megabytes back to disk before every
// restart.
Status CloneStore(const fs::path& from, const fs::path& to) {
  std::error_code ec;
  fs::remove_all(to, ec);
  fs::create_directories(to, ec);
  for (auto it = fs::recursive_directory_iterator(from, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    const fs::path target = to / fs::relative(it->path(), from);
    if (it->is_directory()) {
      fs::create_directories(target, ec);
    } else if (it->path().parent_path().filename() == "blobs") {
      fs::create_hard_link(it->path(), target, ec);
    } else {
      fs::copy_file(it->path(), target, ec);
    }
  }
  return ec ? Status::IoError("cannot clone " + from.string() + ": " +
                              ec.message())
            : Status::OK();
}

// Writes back the dirty pages of the filesystem holding `dir` (untimed),
// so that the kernel's delayed write-back of the seed store set-up wrote,
// and of earlier restarts' spills, does not land inside a timed restart.
void SyncFs(const fs::path& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  (void)::syncfs(fd);
  ::close(fd);
}

struct RestartAnswer {
  double op_ms = 0.0;
  double j = 0.0;
  std::string report;
  std::string analysis;
  EngineStats stats;
};

void RunRestartWarm(Harness& h, RunResult* out) {
  const uint32_t attrs = h.cfg.tiny ? 6 : 10;
  const uint64_t base_rows = h.cfg.tiny ? 3000 : 60000;
  const uint64_t delta_rows = base_rows / 50;  // the relation grows by 2%
  const size_t budget = h.cfg.tiny ? size_t{256} << 10 : size_t{6} << 20;
  const fs::path work(h.cfg.work_dir);
  const fs::path seed_dir = work / "seed_store";
  const fs::path live_dir = work / "live_store";
  const std::string tree_path = (work / "seed_tree.txt").string();
  PersistOptions popt;
  popt.fsync_writes = false;  // timing the tier, not the disk

  Rows base, delta;
  RestartAnswer reference;
  MinerOptions mopt;
  SessionOptions restart_opts;
  restart_opts.cache_budget_bytes = budget;

  // One restart: Open (warm only), rebuild the grown relation, J of the
  // persisted tree, mine, analyze. Returns false when a call failed.
  auto restart = [&](bool warm, RestartAnswer* ans) -> bool {
    std::optional<Uncounted> cold;
    if (!warm) cold.emplace(&h);
    std::shared_ptr<PersistentCacheStore> store;
    Relation r;
    std::optional<AnalysisSession> session;
    std::optional<MinerReport> report;
    std::optional<AjdAnalysis> analysis;
    ArbiterStats arbiter0;
    double first_j = 0.0;
    const int64_t t0 = NowNs();
    const bool ok = [&] {
      ScopedSpan op(h.tracer, warm ? "op.restart" : "op.restart_cold");
      if (warm) {
        ScopedSpan span(h.tracer, "persist.open");
        Result<std::shared_ptr<PersistentCacheStore>> opened =
            PersistentCacheStore::Open(live_dir.string(), popt);
        if (!h.Ok(opened.status(), "PersistentCacheStore::Open")) return false;
        store = std::move(opened).value();
      }
      {
        ScopedSpan span(h.tracer, "relation.rebuild");
        Result<Relation> rel =
            Relation::FromRows(MakeSchema(attrs), base, true);
        if (!h.Ok(rel.status(), "Relation::FromRows")) return false;
        r = std::move(rel).value();
        if (!h.Ok(r.AppendBatch(delta, true), "Relation::AppendBatch")) {
          return false;
        }
      }
      Result<JoinTree> tree = ReadTree(tree_path);
      if (!h.Ok(tree.status(), "JoinTree::Make")) return false;
      SessionOptions so = restart_opts;
      so.engine.persist_store = store;
      session.emplace(so);
      arbiter0 = session->cache_arbiter()->Stats();
      {
        // Engine construction: with a store, the warm-restart reload and
        // delta extension of every persisted partition.
        const EngineStats before = session->TotalStats();
        {
          ScopedSpan span(h.tracer, warm ? "persist.warm_start"
                                         : "engine.entropy_engine.cold_start");
          (void)session->EngineFor(r);
        }
        h.AddEngine(before, session->TotalStats());
      }
      ans->j = h.J(&*session, r, tree.value());
      first_j = MsSince(t0);
      Result<MinerReport> mined = h.Mine(&*session, r, mopt);
      if (!h.Ok(mined.status(), "MineJoinTree")) return false;
      report = std::move(mined).value();
      Result<AjdAnalysis> a = h.Analyze(&*session, r, report->tree);
      if (!h.Ok(a.status(), "AnalyzeAjd")) return false;
      analysis = std::move(a).value();
      return true;
    }();
    if (!ok) return false;
    ans->op_ms = MsSince(t0);
    ans->stats = session->TotalStats();
    ans->report = report->ToString(r.schema());
    ans->analysis = analysis->ToString();
    if (!warm) return true;
    h.op_ms.push_back(ans->op_ms);
    h.first_j_ms.push_back(first_j);
    h.rows_done += static_cast<double>(r.NumRows());
    h.rows_time_s += ans->op_ms / 1e3;
    h.payload_loads += static_cast<double>(store->Stats().payload_loads);
    h.AddArbiter(*session, arbiter0);
    if (h.tracer->enabled() && h.refine_ns_per_row[0].empty()) {
      h.ReplayLayers(&*session, r, report->tree,
                     h.tracer->DurationsMs("core.analysis.analyze").back());
    }
    return true;
  };

  h.SetUp([&] {
    Rng rng(h.cfg.seed);
    const MarkovTreeModel model = MakeModel(attrs, &rng);
    Rows rows;
    SampleRows(model, 0.3, base_rows + delta_rows, &rng, &rows);
    base.assign(rows.begin(), rows.begin() + static_cast<ptrdiff_t>(base_rows));
    delta.assign(rows.begin() + static_cast<ptrdiff_t>(base_rows), rows.end());

    // Seed phase: mine the base rows with the store attached, persist.
    std::error_code ec;
    fs::remove_all(seed_dir, ec);
    Result<std::shared_ptr<PersistentCacheStore>> store =
        PersistentCacheStore::Open(seed_dir.string(), popt);
    if (!h.Ok(store.status(), "PersistentCacheStore::Open")) return;
    Result<Relation> rel = Relation::FromRows(MakeSchema(attrs), base, true);
    if (!h.Ok(rel.status(), "Relation::FromRows")) return;
    SessionOptions so;
    so.engine.persist_store = store.value();
    AnalysisSession session(so);
    Result<MinerReport> mined = MineJoinTree(&session, rel.value(), mopt);
    if (!h.Ok(mined.status(), "MineJoinTree")) return;
    h.Expect(WriteTree(mined.value().tree, tree_path),
             "persisted tree written");
    const int64_t t0 = NowNs();
    {
      ScopedSpan span(h.tracer, "persist.persist_all");
      h.Ok(session.PersistAll(), "AnalysisSession::PersistAll");
    }
    h.persist_all_ms.push_back(MsSince(t0));

    // Reference answers: the same restart with no disk tier.
    h.Expect(restart(false, &reference), "cold reference restart");
  });
  h.store_mb = static_cast<double>(DirBytes(seed_dir)) / 1e6;
  if (h.cfg.perturb_reference) reference.j += 1e-6;
  out->facts = {{"attrs", std::to_string(attrs)},
                {"rows_generated", std::to_string(base_rows + delta_rows)},
                {"rows_delta", std::to_string(delta_rows)},
                {"session_budget_bytes", std::to_string(budget)},
                {"flush_policy", JsonString("fsync_writes=false")}};

  std::vector<double> warm_ms, cold_ms;
  h.StartClock();
  do {
    // Every restart starts from the same persisted state: the timed one
    // spills and publishes into its own copy of the seed store.
    if (!h.Ok(CloneStore(seed_dir, live_dir), "clone seed store")) continue;
    SyncFs(live_dir);
    RestartAnswer warm;
    if (!restart(true, &warm)) continue;
    warm_ms.push_back(warm.op_ms);
    h.ExpectNear(warm.j, reference.j, kJTolerance,
                 "warm J of the persisted tree equals the cold one");
    h.Expect(warm.report == reference.report,
             "warm MinerReport equals the cold one");
    h.Expect(warm.analysis == reference.analysis,
             "warm AjdAnalysis equals the cold one");
    h.Expect(warm.stats.persist_reloads > 0, "persist.reloads > 0");
    h.Expect(warm.stats.persist_fallbacks == 0, "persist.fallbacks == 0");

    if (h.tracer->enabled()) {
      // The same restart with no store prices what the disk tier saves.
      RestartAnswer cold;
      if (restart(false, &cold)) {
        cold_ms.push_back(cold.op_ms);
        h.Expect(cold.report == reference.report,
                 "cold MinerReport is reproducible");
      }
    }
  } while (!h.TimeUp());
  if (!cold_ms.empty()) h.saved_ms.push_back(Median(cold_ms) - Median(warm_ms));
  std::error_code ec;
  fs::remove_all(live_dir, ec);
  fs::remove_all(seed_dir, ec);
  fs::remove(tree_path, ec);
}

// ---------------------------------------------------------------------------
// Per-layer metrics
// ---------------------------------------------------------------------------

// Median duration of the spans named `span`, 0 when the workload made none.
double SpanMedian(const Tracer& t, const char* span) {
  return Median(t.DurationsMs(span));
}

void FinishPerLayer(const Harness& h, const Tracer& t, const char* op_name,
                    RunResult* out) {
  const double ops = std::max<double>(1.0, static_cast<double>(h.op_ms.size()));
  auto counter = [&](const char* name) {
    auto it = h.counters.find(name);
    return it == h.counters.end() ? 0.0 : it->second;
  };
  auto per_op = [&](const char* name) { return counter(name) / ops; };
  const double queries = counter("engine.entropy_engine.queries");
  const LayerBreakdown lb = t.Breakdown(op_name);
  auto self_ms = [&](const char* layer) {
    auto it = lb.self_ms.find(layer);
    return it == lb.self_ms.end() || lb.roots == 0
               ? 0.0
               : it->second / static_cast<double>(lb.roots);
  };
  const double analyze_ms = SpanMedian(t, "core.analysis.analyze");
  std::vector<double> traced_op = t.DurationsMs(op_name);
  // The recorder's cost inside the operations, as a share of their time.
  const double span_cost_ns = SpanCostNs();
  const double overhead_share =
      lb.root_ms > 0 ? span_cost_ns * static_cast<double>(lb.spans) /
                           (lb.root_ms * 1e6)
                     : 0.0;

  out->per_layer = {
      {"io.csv.ingest_ms", SpanMedian(t, "io.csv.ingest"), "ms"},
      {"relation.append_ms", SpanMedian(t, "relation.append"), "ms"},
      {"relation.rebuild_ms", SpanMedian(t, "relation.rebuild"), "ms"},
      {"relation.acyclic_join.count_ms",
       SpanMedian(t, "relation.acyclic_join.count"), "ms"},
      {"relation.ops.count_distinct_ms",
       SpanMedian(t, "relation.ops.count_distinct"), "ms"},
      {"engine.column_store.densify_ms",
       SpanMedian(t, "engine.column_store.densify"), "ms"},
      {"engine.partition.refine_ns_per_row_serial",
       Median(h.refine_ns_per_row[0]), "ns/row"},
      {"engine.partition.refine_ns_per_row_threads",
       Median(h.refine_ns_per_row[1]), "ns/row"},
      {"engine.entropy_engine.queries", per_op("engine.entropy_engine.queries"),
       "count/op"},
      {"engine.entropy_engine.hit_rate",
       queries > 0 ? counter("hits") / queries : 0.0, "ratio"},
      {"engine.entropy_engine.refinements",
       per_op("engine.entropy_engine.refinements"), "count/op"},
      {"engine.entropy_engine.base_reuses",
       per_op("engine.entropy_engine.base_reuses"), "count/op"},
      {"engine.entropy_engine.evictions",
       per_op("engine.entropy_engine.evictions"), "count/op"},
      {"engine.entropy_engine.catchup_ms",
       SpanMedian(t, "engine.entropy_engine.catchup"), "ms"},
      {"engine.entropy_engine.partitions_extended",
       per_op("engine.entropy_engine.partitions_extended"), "count/op"},
      {"engine.entropy_engine.partitions_replayed",
       per_op("engine.entropy_engine.partitions_replayed"), "count/op"},
      {"engine.worker_pool.cpu_per_wall",
       h.mine_wall_s > 0 ? h.mine_cpu_s / h.mine_wall_s : 0.0, "ratio"},
      {"engine.cache_arbiter.bytes_peak", h.bytes_peak, "bytes"},
      {"engine.cache_arbiter.charges", per_op("engine.cache_arbiter.charges"),
       "count/op"},
      {"engine.cache_arbiter.evictions",
       per_op("engine.cache_arbiter.evictions"), "count/op"},
      {"persist.open_ms", SpanMedian(t, "persist.open"), "ms"},
      {"persist.warm_start_ms", SpanMedian(t, "persist.warm_start"), "ms"},
      {"persist.persist_all_ms", Median(h.persist_all_ms), "ms"},
      {"persist.hits", per_op("persist.hits"), "count/op"},
      {"persist.reloads", per_op("persist.reloads"), "count/op"},
      {"persist.extended", per_op("persist.extended"), "count/op"},
      {"persist.spills", per_op("persist.spills"), "count/op"},
      {"persist.fallbacks", per_op("persist.fallbacks"), "count/op"},
      {"persist.payload_loads", h.payload_loads / ops, "count/op"},
      {"persist.saved_ms", Median(h.saved_ms), "ms"},
      {"persist.store_mb", h.store_mb, "MB"},
      {"discovery.miner.mine_ms", SpanMedian(t, "discovery.miner.mine"), "ms"},
      {"discovery.miner.queries",
       h.mines > 0 ? counter("discovery.miner.queries") /
                         static_cast<double>(h.mines)
                   : 0.0,
       "count/op"},
      {"discovery.miner.remine_ms", Median(h.remine_ms), "ms"},
      {"info.factorized.kl_ms", SpanMedian(t, "info.factorized.kl"), "ms"},
      {"info.j_measure.j_ms", SpanMedian(t, "info.j_measure.j"), "ms"},
      {"core.loss.mvd_loss_ms", SpanMedian(t, "core.loss.mvd_loss"), "ms"},
      {"core.analysis.analyze_ms", analyze_ms, "ms"},
      {"core.analysis.replay_share",
       h.replay_analyze_ms > 0 ? h.replay_ms / h.replay_analyze_ms : 0.0,
       "ratio"},
      {"core.streaming.start_ms", SpanMedian(t, "core.streaming.start"), "ms"},
      {"core.streaming.observe_ms", SpanMedian(t, "core.streaming.observe"),
       "ms"},
      {"self.io_ms", self_ms("io"), "ms/op"},
      {"self.relation_ms", self_ms("relation"), "ms/op"},
      {"self.engine_ms", self_ms("engine"), "ms/op"},
      {"self.persist_ms", self_ms("persist"), "ms/op"},
      {"self.discovery_ms", self_ms("discovery"), "ms/op"},
      {"self.info_ms", self_ms("info"), "ms/op"},
      {"self.core_ms", self_ms("core"), "ms/op"},
      {"self.uncovered_ms", self_ms("op"), "ms/op"},
      {"trace.coverage", lb.coverage, "ratio"},
      {"trace.op_ms_p50", Median(traced_op), "ms"},
      {"trace.spans", static_cast<double>(t.spans().size()), "count"},
      {"trace.span_cost_ns", span_cost_ns, "ns"},
      {"trace.overhead_share", overhead_share, "ratio"},
  };
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"fit_batch", "stream_drift",
                                                 "restart_warm"};
  return names;
}

bool RunWorkload(const RunConfig& cfg, Tracer* tracer, RunResult* out) {
  Harness h(cfg, tracer);
  const char* op_name = nullptr;
  if (cfg.workload == "fit_batch") {
    RunFitBatch(h, out);
    op_name = "op.fit";
  } else if (cfg.workload == "stream_drift") {
    RunStreamDrift(h, out);
    op_name = "op.batch";
  } else if (cfg.workload == "restart_warm") {
    RunRestartWarm(h, out);
    op_name = "op.restart";
  } else {
    return false;
  }
  out->correct = h.correct && !h.op_ms.empty();
  out->attempted = std::max<uint64_t>(h.attempted, 1);
  out->failed = h.failed;
  out->facts.push_back({"ops", std::to_string(h.op_ms.size())});
  std::string reps;
  for (double t : h.setup_s) reps += (reps.empty() ? "" : ",") + std::to_string(t);
  out->facts.push_back({"setup_reps_s", "[" + reps + "]"});
  h.FinishEndToEnd(out);
  if (tracer->enabled()) FinishPerLayer(h, *tracer, op_name, out);
  return true;
}

}  // namespace pipebench
