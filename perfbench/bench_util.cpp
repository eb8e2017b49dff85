#include "bench_util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string Metrics::result_line(bool correct, std::uint64_t attempted,
                                 std::uint64_t failed) const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (i > 0) os << ", ";
    os << '"' << entries_[i].name << "\": {\"value\": "
       << json_number(entries_[i].value) << ", \"unit\": \""
       << entries_[i].unit << "\"}";
  }
  os << "}}";
  return os.str();
}

std::string Metrics::table() const {
  std::ostringstream os;
  for (const Entry& e : entries_) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "  %-34s %14.4f %s\n", e.name.c_str(),
                  e.value, e.unit.c_str());
    os << buf;
  }
  return os.str();
}

namespace {

thread_local std::int64_t t_open_span = -1;

std::uint32_t thread_tag() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t tag = next.fetch_add(1);
  return tag;
}

}  // namespace

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

Tracer::Scope::Scope(const char* name) {
  Tracer& t = instance();
  if (t.enabled()) id_ = t.begin(name);
}

Tracer::Scope::~Scope() {
  if (id_ >= 0) instance().end(id_);
}

std::int64_t Tracer::begin(const char* name) {
  const std::int64_t parent = t_open_span;
  const std::uint32_t tid = thread_tag();
  std::lock_guard<std::mutex> lock(mu_);
  const auto id = static_cast<std::int64_t>(spans_.size());
  spans_.push_back({name, now_ns(), 0, parent, tid});
  t_open_span = id;
  return id;
}

void Tracer::end(std::int64_t id) {
  const std::int64_t stop = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end_ns = stop;
  t_open_span = s.parent;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                  "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                  "\"args\": {\"id\": %zu, \"parent\": %lld}}\n",
                  i == 0 ? "" : ",", s.name, s.tid,
                  static_cast<double>(s.start_ns - origin) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                  static_cast<long long>(s.parent));
    out << buf;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

std::map<std::string, double> Tracer::self_seconds_by_layer() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string name(s.name);
    const std::string layer = name.substr(0, name.find('.'));
    self[layer] +=
        static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) / 1e9;
  }
  return self;
}

std::size_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

}  // namespace perfbench
