#include "trace.h"

#include <chrono>
#include <cstdio>
#include <cstring>

namespace pipebench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int32_t Tracer::Begin(const char* name) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  const int32_t id = static_cast<int32_t>(spans_.size());
  s.root = s.parent < 0 ? id : spans_[static_cast<size_t>(s.parent)].root;
  s.start_ns = NowNs();
  spans_.push_back(s);
  open_.push_back(id);
  return id;
}

void Tracer::End(int32_t id) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::vector<double> Tracer::DurationsMs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.end_ns >= 0 && name == s.name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
    }
  }
  return out;
}

std::string LayerOf(const char* name) {
  const char* dot = std::strchr(name, '.');
  return dot == nullptr ? std::string(name)
                        : std::string(name, static_cast<size_t>(dot - name));
}

LayerBreakdown Tracer::Breakdown(const std::string& root_name) const {
  LayerBreakdown out;
  // Children's summed duration per span, so self = duration - children.
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0 && s.end_ns >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  double uncovered_ms = 0.0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0 || s.root < 0) continue;
    const Span& root = spans_[static_cast<size_t>(s.root)];
    if (root_name != root.name || root.end_ns < 0) continue;
    const double self_ms =
        static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) / 1e6;
    out.self_ms[LayerOf(s.name)] += self_ms;
    ++out.spans;
    if (static_cast<int32_t>(i) == s.root) {
      ++out.roots;
      out.root_ms += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
      uncovered_ms += self_ms;
    }
  }
  out.coverage = out.root_ms > 0.0 ? 1.0 - uncovered_ms / out.root_ms : 0.0;
  return out;
}

double SpanCostNs() {
  constexpr int kPairs = 100000;
  Tracer scratch(true);
  const int64_t t0 = NowNs();
  for (int i = 0; i < kPairs; ++i) scratch.End(scratch.Begin("calibration"));
  return static_cast<double>(NowNs() - t0) / kPairs;
}

bool Tracer::WriteJson(const std::string& path,
                       const std::string& stamp_json) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"stamp\":%s,\"spans\":[", stamp_json.c_str());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%d,\"root\":%d}",
                 i == 0 ? "" : ",", i, s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent, s.root);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace pipebench
