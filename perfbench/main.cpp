// perfbench: the GraphBIG benchmark driver.
//
//   perfbench --workload <social|road|out_of_core|serving> --seed <n>
//             --seconds <s> --trace <0|1>
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// records spans around every call into the program, writes them as a
// Chrome trace under .bench_out/ and prints the per-layer metrics. The
// last line of standard output is one JSON object with correct,
// attempted, failed and metrics; a wrong answer sets "correct": false.
// The exit code is 0 whenever that line is printed, and 1 or 2 when the
// run could not finish (bad arguments, a set-up error).
#include <sys/resource.h>
#include <sys/stat.h>

#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>

#include "bench.h"

namespace perfbench {

std::int64_t g_start_ns = 0;

double peak_rss_mb() {
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void init_per_layer(Metrics& m) {
  for (const char* s : {"datagen.generate_s", "graph.build_s", "graph.freeze_s",
                        "snap.save_s", "disk.open_s", "serve.start_s"}) {
    m.set(s, 0.0, "s");
  }
  for (const char* s : {"graph.snapshot_mb", "snap.file_mb", "disk.pool_mb",
                        "serve.snapshot_end_mb"}) {
    m.set(s, 0.0, "MB");
  }
  for (const char* s : {"disk.pool_hits", "disk.pool_misses", "disk.pool_evictions"}) {
    m.set(s, 0.0, "count");
  }
  m.set("disk.pool_hit_ratio", 0.0, "ratio");
  for (const char* k : {"bfs", "ccomp"}) {
    for (const char* c : {"supersteps", "pull_steps", "edges"}) {
      m.set(std::string("engine.") + k + "." + c, 0.0, "count");
    }
  }
  for (const char* k : {"bfs", "spath", "ccomp", "kcore", "dcentr", "tc"}) {
    for (const char* g : {"rmat", "ldbc", "road"}) {
      if (std::string(k) == "tc" && std::string(g) == "road") continue;
      m.set(std::string("workloads.") + k + "." + g + ".p10_ms", 0.0, "ms");
    }
  }
  for (const char* k : {"bfs", "spath", "ccomp", "kcore", "dcentr", "tc", "khop", "publish"}) {
    for (const char* q : {"p10_ms", "p50_ms", "p90_ms"}) {
      m.set(std::string("workloads.") + k + "." + q, 0.0, "ms");
    }
  }
  for (const char* k : {"bfs", "spath", "ccomp", "kcore", "dcentr", "tc"}) {
    m.set(std::string("workloads.") + k + ".edges_per_s", 0.0, "1/s");
  }
  for (const char* k : {"bfs", "spath", "ccomp", "tc"}) {
    m.set(std::string("baseline.") + k + ".p10_ms", 0.0, "ms");
  }
  for (const char* k : {"bfs", "spath", "ccomp", "kcore", "dcentr", "tc", "khop", "publish"}) {
    m.set(std::string("reference.") + k + ".p10_ms", 0.0, "ms");
  }
  for (const char* s : {"serve.queue_ms", "serve.pin_ms", "serve.exec_ms",
                        "serve.report_ms", "serve.latency_p50_ms", "serve.latency_p99_ms"}) {
    m.set(s, 0.0, "ms");
  }
  m.set("serve.qps", 0.0, "1/s");
  for (const char* s : {"serve.publish_incremental", "serve.publish_full",
                        "serve.refresh_rows_rewritten", "serve.publish_waits"}) {
    m.set(s, 0.0, "count");
  }
  m.set("trace.overhead_pct", 0.0, "%");
  m.set("trace.spans", 0.0, "count");
  for (const char* l : kTraceLayers) {
    m.set(std::string("trace.self_s.") + l, 0.0, "s");
  }
}

void finish_trace(const Options& opts, double overhead_pct, Metrics& m) {
  Tracer& t = Tracer::instance();
  t.set_enabled(false);
  const std::string path = std::string(kOutDir) + "/trace_" + opts.workload + "_" +
                           std::to_string(opts.seed) + ".json";
  if (!t.write_chrome(path)) {
    throw std::runtime_error("cannot write trace file " + path);
  }
  std::cout << "trace written to " << path << "\n";
  m.set("trace.overhead_pct", overhead_pct, "%");
  m.set("trace.spans", static_cast<double>(t.span_count()), "count");
  const auto self = t.self_seconds_by_layer();
  for (const char* l : kTraceLayers) {
    auto it = self.find(l);
    m.set(std::string("trace.self_s.") + l, it == self.end() ? 0.0 : it->second, "s");
  }
}

}  // namespace perfbench

namespace {

int usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <social|road|out_of_core|serving>"
               " --seed <n> --seconds <s> --trace <0|1>\n";
  return 2;
}

bool parse_uint(const std::string& s, std::uint64_t* out) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos) return false;
  try {
    *out = std::stoull(s);
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  g_start_ns = now_ns();
  Options opts;
  std::uint64_t trace = 0;
  std::uint64_t seconds = 0;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string val = argv[++i];
    if (arg == "--workload") {
      opts.workload = val;
    } else if (arg == "--seed") {
      if (!parse_uint(val, &opts.seed)) return usage("--seed must be a whole number");
    } else if (arg == "--seconds") {
      if (!parse_uint(val, &seconds) || seconds == 0 || seconds > 3600) {
        return usage("--seconds must be a whole number from 1 to 3600");
      }
      have_seconds = true;
    } else if (arg == "--trace") {
      if (!parse_uint(val, &trace) || trace > 1) return usage("--trace must be 0 or 1");
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_seconds) return usage("--seconds is required");
  opts.seconds = static_cast<double>(seconds);
  opts.trace = trace == 1;
  const bool serving = opts.workload == "serving";
  if (!serving && opts.workload != "social" && opts.workload != "road" &&
      opts.workload != "out_of_core") {
    return usage(("unknown workload '" + opts.workload + "'").c_str());
  }

  ::mkdir(kOutDir, 0755);
  Tracer::instance().set_enabled(opts.trace);
  Outcome out;
  try {
    if (serving) {
      run_serving(opts, out);
    } else {
      run_analytic(opts, out);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: run aborted: " << e.what() << "\n";
    return 1;
  }
  std::cout << "perfbench " << opts.workload << " seed " << opts.seed << ": "
            << out.attempted << " operations, " << out.failed << " failed, "
            << out.errors.size() << " wrong answers\n";
  for (const std::string& e : out.errors) std::cout << "  WRONG: " << e << "\n";
  std::cout << out.metrics.table();
  std::cout << out.metrics.result_line(out.errors.empty(), out.attempted, out.failed)
            << std::endl;
  return 0;
}
