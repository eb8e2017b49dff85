// Timing, sample statistics, span tracing and result printing shared by
// the perfbench workloads. Everything here runs in the benchmark's own
// code, around calls into the program; nothing is added inside it.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linearly interpolated quantile (numpy's default); 0 for no samples.
double quantile(std::vector<double> samples, double q);

/// Metrics printed on the result line, in insertion order.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// The final JSON line: correct, attempted, failed, metrics.
  std::string result_line(bool correct, std::uint64_t attempted,
                          std::uint64_t failed) const;
  /// Human-readable table, one metric per line.
  std::string table() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Span recorder for the traced mode. Spans carry name, start, end, the
/// span open on the same thread when they began (parent), and the thread.
/// When tracing is off a Scope costs one branch.
class Tracer {
 public:
  static Tracer& instance();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  class Scope {
   public:
    explicit Scope(const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    std::int64_t id_ = -1;
  };

  /// Chrome trace-event JSON ("X" events, one track per thread).
  bool write_chrome(const std::string& path) const;

  /// Self time per layer, in seconds: each span's duration minus the part
  /// its children cover, summed by the name's prefix before the first '.'.
  std::map<std::string, double> self_seconds_by_layer() const;

  std::size_t span_count() const;

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int64_t parent;
    std::uint32_t tid;
  };

  std::int64_t begin(const char* name);
  void end(std::int64_t id);

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
