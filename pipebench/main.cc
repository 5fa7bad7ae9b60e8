// pipebench: one command for the AJD pipeline's end-to-end and per-layer
// numbers. Usually driven through run.py, which builds this binary first:
//
//   pipebench --workload fit_batch|stream_drift|restart_warm --seed N
//             --seconds S --trace 0|1 --work-dir DIR
//             [--trace-out FILE] [--source ID] [--tiny] [--perturb-reference]
//
// Prints a stamp line ({"stamp": {...}}: host, build and input facts) and,
// as the last line, the result: {"correct", "attempted", "failed",
// "metrics"}. --trace 0 reports the end-to-end metrics; --trace 1 records
// spans around every call into a library layer, reports the per-layer
// metrics, and writes the spans to --trace-out. Exits 1 when an answer is
// wrong or nothing completed, 2 on bad arguments.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "trace.h"
#include "workloads.h"

namespace {

using pipebench::Metric;
using pipebench::RunConfig;
using pipebench::RunResult;

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string CpuModel() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

std::string Stamp(const RunConfig& cfg, const RunResult& res,
                  const std::string& source) {
  std::string s = "{";
  s += "\"workload\":\"" + cfg.workload + "\"";
  s += ",\"seed\":" + std::to_string(cfg.seed);
  s += ",\"seconds\":" + std::to_string(cfg.seconds);
  s += ",\"trace\":" + std::string(cfg.trace ? "1" : "0");
  s += ",\"tiny\":" + std::string(cfg.tiny ? "true" : "false");
  s += ",\"nproc\":" + std::to_string(cfg.threads);
  s += ",\"cpu_model\":\"" + JsonEscape(CpuModel()) + "\"";
  s += ",\"compiler\":\"" + JsonEscape(__VERSION__) + "\"";
  s += ",\"build_type\":\"" + std::string(PIPEBENCH_BUILD_TYPE) + "\"";
  s += ",\"source\":\"" + JsonEscape(source) + "\"";
  for (const auto& [key, value] : res.facts) s += ",\"" + key + "\":" + value;
  return s + "}";
}

void AppendMetrics(const std::vector<Metric>& metrics, std::string* out) {
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    *out += (i == 0 ? "\"" : ",\"") + metrics[i].name + "\":{\"value\":" +
            buf + ",\"unit\":\"" + metrics[i].unit + "\"}";
  }
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "pipebench: %s\nusage: pipebench --workload NAME --seed N "
               "--seconds S --trace 0|1 --work-dir DIR [--trace-out FILE] "
               "[--source ID] [--tiny] [--perturb-reference]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  std::string trace_out, source = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--tiny") {
      cfg.tiny = true;
    } else if (arg == "--perturb-reference") {
      cfg.perturb_reference = true;
    } else if (!has_value) {
      return Usage(("missing value for " + arg).c_str());
    } else if (arg == "--workload") {
      cfg.workload = argv[++i];
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      cfg.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--work-dir") {
      cfg.work_dir = argv[++i];
    } else if (arg == "--trace-out") {
      trace_out = argv[++i];
    } else if (arg == "--source") {
      source = argv[++i];
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  bool known = false;
  for (const std::string& w : pipebench::WorkloadNames()) {
    known = known || w == cfg.workload;
  }
  if (!known) return Usage(("unknown workload '" + cfg.workload + "'").c_str());
  if (cfg.work_dir.empty()) return Usage("--work-dir is required");
  if (!(cfg.seconds > 0)) return Usage("--seconds must be positive");
  std::error_code ec;
  std::filesystem::create_directories(cfg.work_dir, ec);
  if (ec) return Usage(("cannot create " + cfg.work_dir).c_str());
  cfg.threads = std::max(1u, std::thread::hardware_concurrency());

  pipebench::Tracer tracer(cfg.trace);
  RunResult res;
  pipebench::RunWorkload(cfg, &tracer, &res);

  const std::string stamp = Stamp(cfg, res, source);
  std::printf("{\"stamp\":%s}\n", stamp.c_str());
  if (cfg.trace && !trace_out.empty() && !tracer.WriteJson(trace_out, stamp)) {
    std::fprintf(stderr, "pipebench: cannot write %s\n", trace_out.c_str());
  }
  std::string metrics;
  AppendMetrics(cfg.trace ? res.per_layer : res.end_to_end, &metrics);
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":{%s}}\n",
              res.correct ? "true" : "false",
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed), metrics.c_str());
  std::fflush(stdout);
  return res.correct ? 0 : 1;
}
