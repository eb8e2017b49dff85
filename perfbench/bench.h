// Shared declarations of the perfbench driver: options, the run outcome,
// the workload entry points and the per-layer metric names every traced
// run prints.
#pragma once

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Directory, relative to the checkout, for the snapshot file and traces.
inline constexpr const char* kOutDir = ".bench_out";

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Answers that did not match the reference; empty means correct.
  std::vector<std::string> errors;
  Metrics metrics;

  void error(const std::string& what) {
    if (errors.size() < 16) errors.push_back(what);
  }

  /// An operation that did not complete. It counts in `failed` and is
  /// named on standard error; `correct` speaks only of completed ones.
  void fail(const std::string& what) {
    if (failed++ < 16) std::cerr << "perfbench: operation failed: " << what << "\n";
  }
};

/// Layers whose self time the traced mode reports (span-name prefixes).
inline constexpr const char* kTraceLayers[] = {
    "datagen", "graph", "snap", "disk", "workloads",
    "baseline", "reference", "serve", "churn"};

/// Nanosecond timestamp taken first thing in main(); setup_s runs from it
/// to the first measured operation.
extern std::int64_t g_start_ns;

void run_analytic(const Options& opts, Outcome& out);
void run_serving(const Options& opts, Outcome& out);

/// Peak resident set of this process, in MB.
double peak_rss_mb();

/// Sets every per-layer metric to 0, so a workload that does not exercise
/// a layer still prints it; the workload then overwrites what it measured.
void init_per_layer(Metrics& m);

/// Writes the trace file and the trace.* metrics once a traced run ends.
void finish_trace(const Options& opts, double overhead_pct, Metrics& m);

}  // namespace perfbench
