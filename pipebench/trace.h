// In-memory span recorder for pipebench's traced runs.
//
// A span brackets one call from the benchmark into a library layer: name,
// start, end, parent span and the root span (the workload operation) it
// belongs to. Span names are "<layer>.<module>.<what>" (io.csv.ingest,
// discovery.miner.mine, ...); the layer is the text before the first dot.
// Root spans are named "op.<operation>" and their self time is the part of
// the operation no layer span covers.
//
// Spans are kept in memory and written out once, when the run ends. With
// tracing disabled, Begin/End cost one branch and record nothing, so the
// untraced run times the same call sequence without the recorder.
#ifndef PIPEBENCH_TRACE_H_
#define PIPEBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pipebench {

/// Monotonic nanoseconds (steady_clock).
int64_t NowNs();

struct Span {
  const char* name = "";  ///< string literal; never owned
  int64_t start_ns = 0;
  int64_t end_ns = -1;    ///< -1 while open
  int32_t parent = -1;    ///< index of the enclosing span, -1 for a root
  int32_t root = -1;      ///< index of the root span of this subtree
};

/// Self time per layer and coverage over the subtrees of one root name.
struct LayerBreakdown {
  uint64_t roots = 0;            ///< root spans aggregated
  uint64_t spans = 0;            ///< spans in their subtrees, roots included
  double root_ms = 0.0;          ///< their summed duration
  std::map<std::string, double> self_ms;  ///< layer -> summed self time
  /// Share of root_ms covered by layer spans (1 - uncovered root self).
  double coverage = 0.0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open span; -1 when disabled.
  int32_t Begin(const char* name);
  /// Closes span `id` (must be the innermost open one); no-op for -1.
  void End(int32_t id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Durations (ms) of every closed span named `name`, in record order.
  std::vector<double> DurationsMs(const std::string& name) const;

  /// Self time per layer over every root span named `root_name`.
  LayerBreakdown Breakdown(const std::string& root_name) const;

  /// Writes {"stamp": <stamp_json>, "spans": [...]} to `path`.
  bool WriteJson(const std::string& path, const std::string& stamp_json) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer->Begin(name)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t id_;
};

/// What one Begin/End pair costs (ns), timed on a scratch recorder.
double SpanCostNs();

/// The layer of a span name: the text before the first dot.
std::string LayerOf(const char* name);

}  // namespace pipebench

#endif  // PIPEBENCH_TRACE_H_
