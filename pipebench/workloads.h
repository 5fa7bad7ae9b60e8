// pipebench's three workloads. Each is a closed loop with one caller: it
// issues the workload's operation, waits for the answer, checks it, and
// issues the next one until the run's time is up. Inputs come from the
// seed alone; the library only ever sees the generated rows or CSV text.
//
//   fit_batch     one-shot schema fitting: CSV text -> AppendCsvBatches ->
//                 MineJoinTree (all cores) -> AnalyzeAjd.
//   stream_drift  a StreamingLossMonitor over a relation that grows by
//                 deduplicated batches whose noise drifts, re-mining on the
//                 default 0.1-nat drift policy.
//   restart_warm  restart from the disk tier: Open a persisted store,
//                 rebuild the relation grown by 2%, J of the persisted
//                 tree, then MineJoinTree and AnalyzeAjd under a session
//                 budget far below the miner's working set.
#ifndef PIPEBENCH_WORKLOADS_H_
#define PIPEBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "trace.h"

namespace pipebench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;               ///< test-sized inputs
  bool perturb_reference = false;  ///< corrupt a reference answer
  std::string work_dir;            ///< scratch directory of this run
  uint32_t threads = 1;            ///< hardware threads (nproc)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Input and run facts for the stamp: (key, JSON value).
  std::vector<std::pair<std::string, std::string>> facts;
};

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// Runs one workload. False when `cfg.workload` is unknown.
bool RunWorkload(const RunConfig& cfg, Tracer* tracer, RunResult* out);

}  // namespace pipebench

#endif  // PIPEBENCH_WORKLOADS_H_
