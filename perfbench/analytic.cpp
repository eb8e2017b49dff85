// The analytic workloads: social, road and out_of_core.
//
// Each run builds its graphs and picks its roots from the seed, then
// repeats whole rounds of single-threaded operations (RunContext::pool ==
// nullptr) until the time is up. A round interleaves every kernel on every
// graph, so a slow phase of the machine spreads over all metrics instead of
// hitting one. Each call into the program is timed alone; its answer is
// then read from the operation's private PropertyColumns and checked
// against the benchmark's own reference, outside the timed region.
//
// Right after each program operation the round runs its floor: the
// benchmark's own reference computation of the same answer on the same
// graph (reference.cpp), timed the same way. The end-to-end figures are
// ratios of a kernel's p10 to its floor's p10, so a phase in which the
// whole machine runs slower moves both and cancels out.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <random>
#include <stdexcept>

#include "baseline/prototype.h"
#include "bench.h"
#include "datagen/generators.h"
#include "graph/csr.h"
#include "graph/disk_graph.h"
#include "graph/snap_format.h"
#include "reference.h"
#include "workloads/workload.h"

namespace perfbench {

namespace {

using graphbig::graph::PropertyColumns;
namespace wl = graphbig::workloads;
namespace gg = graphbig::graph;
namespace dg = graphbig::datagen;

enum class Kind { kBfs, kSpath, kCcomp, kKcore, kDcentr, kTc };

struct KindInfo {
  const char* name;  // metric name part
  const char* span;  // trace span name
  /// Runs through the FrontierEngine when single-threaded. Sequential
  /// SPath (Dijkstra), kCore (bucket peeling), DCentr and TC bypass it and
  /// would report zero telemetry.
  bool engine;
  /// How many times one floor sample repeats the reference computation,
  /// so that it lasts about as long as the program's operation. A slow
  /// phase of the machine that a short operation can slip between would
  /// otherwise reach the kernel and its floor unequally.
  int floor_reps;
};

constexpr KindInfo kKinds[] = {
    {"bfs", "workloads.bfs", true, 1},       {"spath", "workloads.spath", false, 1},
    {"ccomp", "workloads.ccomp", true, 16},  {"kcore", "workloads.kcore", false, 2},
    {"dcentr", "workloads.dcentr", false, 4}, {"tc", "workloads.tc", false, 4},
};

enum class BaseKind { kBfs, kSpath, kCcomp, kTc };
constexpr const char* kBaseNames[] = {"bfs", "spath", "ccomp", "tc"};
constexpr const char* kBaseSpans[] = {"baseline.bfs", "baseline.spath",
                                      "baseline.ccomp", "baseline.tc"};

/// One input graph with its backends and lazily built references.
struct Input {
  std::string name;  // rmat | ldbc | road
  dg::EdgeList el;
  std::unique_ptr<gg::GraphSnapshot> snap;
  std::unique_ptr<gg::DiskGraph> disk;
  std::uint32_t rows = 0;
  std::vector<std::uint32_t> roots;

  // Reference answers, computed from the edge list after set-up.
  std::map<std::uint32_t, std::vector<std::int64_t>> depth;
  std::map<std::uint32_t, std::vector<double>> dist;
  std::vector<std::uint32_t> comp;
  std::vector<std::int64_t> cores, degrees;
  std::uint64_t triangles = 0;
  /// The edge list in CSR form: the references' input, and the floor
  /// operations' during the measured window.
  RefGraph ref;

  // Baseline prototype inputs, built before the first baseline operation.
  std::unique_ptr<gg::Csr> csr, sym;

  void compute_references() {
    ref = RefGraph::from_edges(el.num_vertices, el.directed, el.edges, el.weights);
    const RefGraph& g = ref;
    for (const std::uint32_t r : roots) {
      depth[r] = ref_bfs(g, r);
      dist[r] = ref_dijkstra(g, r);
    }
    comp = ref_components(g);
    cores = ref_cores(g);
    degrees = ref_degrees(g);
    triangles = ref_triangles(g);
  }
};

/// Who computes an operation: the program's workload, a `src/baseline`
/// prototype, or the benchmark's own reference code (the floor).
enum class Source { kProgram, kBaseline, kFloor };

/// One scheduled operation of a round.
struct Op {
  Source src = Source::kProgram;
  Kind kind = Kind::kBfs;
  BaseKind base = BaseKind::kBfs;
  Input* in = nullptr;
  std::uint32_t root = 0;
};

/// Timings of one kernel on one graph, by root (0 for unrooted kernels).
struct Samples {
  // Index 0: untraced rounds; 1: traced rounds.
  std::map<std::uint32_t, std::vector<double>> ms[2];
  std::uint64_t edges[2] = {0, 0};  // RunResult::edges_processed
  double secs[2] = {0.0, 0.0};
  /// Which samples the figures come from: the untraced ones, unless a
  /// heavy social operation (one to two per run) ran only in traced
  /// rounds, whose two spans cost microseconds against its seconds.
  int figures() const { return ms[0].empty() ? 1 : 0; }
  // Engine telemetry, summed over traced operations.
  std::uint64_t traced_ops = 0, supersteps = 0, pull_steps = 0,
                engine_edges = 0;
};

/// Roots: seeded picks among well-connected vertices, so every seed
/// traverses the giant component. Social graphs draw from the top 1% by
/// out-degree; the road grid draws from its central quarter.
std::vector<std::uint32_t> pick_roots(const dg::EdgeList& el, bool grid,
                                      std::uint64_t side, std::mt19937_64& rng,
                                      int count) {
  std::vector<std::uint32_t> out_deg(el.num_vertices, 0);
  for (const auto& [s, d] : el.edges) {
    ++out_deg[s];
    if (!el.directed) ++out_deg[d];
  }
  std::vector<std::uint32_t> cand;
  if (grid) {
    for (std::uint64_t r = side / 4; r < 3 * side / 4; ++r) {
      for (std::uint64_t c = side / 4; c < 3 * side / 4; ++c) {
        const auto v = static_cast<std::uint32_t>(r * side + c);
        if (out_deg[v] >= 2) cand.push_back(v);
      }
    }
  } else {
    std::vector<std::uint32_t> sorted = out_deg;
    std::sort(sorted.begin(), sorted.end(), std::greater<>());
    const std::uint32_t cut = std::max<std::uint32_t>(sorted[sorted.size() / 100], 1);
    for (std::uint32_t v = 0; v < el.num_vertices; ++v) {
      if (out_deg[v] >= cut) cand.push_back(v);
    }
  }
  std::shuffle(cand.begin(), cand.end(), rng);
  cand.resize(std::min<std::size_t>(cand.size(), static_cast<std::size_t>(count)));
  return cand;
}

std::vector<std::int64_t> int_column(const PropertyColumns& cols,
                                     std::uint32_t rows, gg::PropKey key) {
  std::vector<std::int64_t> v(rows);
  for (std::uint32_t r = 0; r < rows; ++r) v[r] = cols.get_int(r, key);
  return v;
}

std::vector<double> double_column(const PropertyColumns& cols,
                                  std::uint32_t rows, gg::PropKey key) {
  std::vector<double> v(rows);
  for (std::uint32_t r = 0; r < rows; ++r) v[r] = cols.get_double(r, key);
  return v;
}

double elapsed_s(std::int64_t since) {
  return static_cast<double>(now_ns() - since) / 1e9;
}

class AnalyticRun {
 public:
  AnalyticRun(const Options& opts, Outcome& out) : opts_(opts), out_(out) {}

  void run() {
    setup();
    // References are computed after set-up is timed and before the
    // measured window, so neither figure includes the benchmark's own work.
    {
      Tracer::Scope span("reference.compute");
      for (auto& in : inputs_) in->compute_references();
    }
    measure();
    peak_rss_mb_ = peak_rss_mb();
    report();
  }

 private:
  // ---- set-up ----

  void add_input(const std::string& name, dg::EdgeList el) {
    auto in = std::make_unique<Input>();
    in->name = name;
    in->el = std::move(el);
    inputs_.push_back(std::move(in));
  }

  void setup() {
    std::mt19937_64 rng(opts_.seed * 0x9E3779B97F4A7C15ull + 1);
    const std::string& w = opts_.workload;
    {
      Tracer::Scope span("datagen.generate");
      const std::int64_t t0 = now_ns();
      if (w == "social" || w == "out_of_core") {
        dg::RmatConfig rc;
        rc.scale = 16;
        rc.edge_factor = 8;
        rc.seed = rng();
        add_input("rmat", dg::generate_rmat(rc));
      }
      if (w == "social") {
        dg::LdbcConfig lc;
        lc.num_vertices = std::uint64_t{1} << 17;
        lc.avg_degree = 16.0;
        lc.seed = rng();
        add_input("ldbc", dg::generate_ldbc(lc));
      }
      if (w == "road") {
        // The grid `roadnet --scale medium` is meant to build (the
        // registry's seed, side 384); only the roots follow --seed. CComp's
        // cost on a grid swings by a third between generator seeds, with
        // how many supersteps its direction heuristic runs as pull, so a
        // per-seed grid would make the figure track the seed.
        dg::RoadConfig rc;
        rc.rows = kRoadSide;
        rc.cols = kRoadSide;
        rc.seed = 109;
        add_input("road", dg::generate_road(rc));
      }
      generate_s_ = elapsed_s(t0);
    }
    for (auto& in : inputs_) {
      // Social rounds carry a TC of one to two seconds, so four roots per
      // graph keep several rounds in a run; the shorter road and disk
      // rounds average eight roots, which halves the spread that root
      // choice adds to the BFS and SPath figures.
      const int roots = w == "social" ? 4 : 8;
      in->roots = pick_roots(in->el, in->name == "road", kRoadSide, rng, roots);
      if (in->roots.empty()) throw std::runtime_error("no root candidates");
      gg::PropertyGraph g;
      {
        Tracer::Scope span("graph.build");
        const std::int64_t t0 = now_ns();
        g = dg::build_property_graph(in->el);
        build_s_ += elapsed_s(t0);
      }
      {
        Tracer::Scope span("graph.freeze");
        const std::int64_t t0 = now_ns();
        in->snap = std::make_unique<gg::GraphSnapshot>(gg::GraphSnapshot::freeze(g));
        freeze_s_ += elapsed_s(t0);
      }
      in->rows = in->snap->row_count();
      snapshot_bytes_ += in->snap->footprint_bytes();
    }
    if (w == "out_of_core") open_disk(*inputs_.front());
    setup_s_ = static_cast<double>(now_ns() - g_start_ns) / 1e9;
  }

  void open_disk(Input& in) {
    snap_path_ = std::string(kOutDir) + "/out_of_core_" + std::to_string(opts_.seed) + ".snap";
    gg::snap::SnapInfo info;
    {
      Tracer::Scope span("snap.save");
      const std::int64_t t0 = now_ns();
      info = gg::snap::save_snapshot(*in.snap, snap_path_);
      save_s_ = elapsed_s(t0);
    }
    in.snap.reset();  // traversals go through the pager only
    file_bytes_ = info.file_bytes;
    gg::DiskGraphOptions dopts;
    const std::uint64_t file_pages = (info.file_bytes + dopts.page_bytes - 1) / dopts.page_bytes;
    dopts.pool_pages = static_cast<std::uint32_t>(std::max<std::uint64_t>(file_pages / 4, 1));
    {
      Tracer::Scope span("disk.open");
      const std::int64_t t0 = now_ns();
      in.disk = std::make_unique<gg::DiskGraph>(snap_path_, dopts);
      open_s_ = elapsed_s(t0);
    }
    pool_bytes_ = static_cast<std::uint64_t>(in.disk->pool().pages()) * in.disk->pool().page_bytes();
  }

  // ---- schedule ----

  /// The rounds of one cycle. Every round runs each cheap operation on
  /// every graph once, each program operation followed by its floor; on
  /// social it then runs one triangle count (one to two seconds), on each
  /// graph in turn, so heavy operations neither take most of the run nor
  /// bunch together in one phase of it. The `src/baseline` prototypes feed
  /// only per-layer metrics, so they run only in traced runs.
  std::vector<std::vector<Op>> cycle() const {
    const std::string& w = opts_.workload;
    const bool baselines = opts_.trace && w != "out_of_core";
    std::vector<Op> cheap;
    auto with_floor = [&](Kind k, Input* in, std::uint32_t root) {
      cheap.push_back({Source::kProgram, k, BaseKind::kBfs, in, root});
      cheap.push_back({Source::kFloor, k, BaseKind::kBfs, in, root});
    };
    for (const auto& in : inputs_) {
      for (const std::uint32_t r : in->roots) {
        with_floor(Kind::kBfs, in.get(), r);
        with_floor(Kind::kSpath, in.get(), r);
        if (baselines) {
          cheap.push_back({Source::kBaseline, Kind::kBfs, BaseKind::kBfs, in.get(), r});
          cheap.push_back({Source::kBaseline, Kind::kBfs, BaseKind::kSpath, in.get(), r});
        }
      }
      for (const Kind k : {Kind::kCcomp, Kind::kKcore, Kind::kDcentr}) with_floor(k, in.get(), 0);
      if (baselines) {
        cheap.push_back({Source::kBaseline, Kind::kBfs, BaseKind::kCcomp, in.get(), 0});
        if (w == "road") cheap.push_back({Source::kBaseline, Kind::kBfs, BaseKind::kTc, in.get(), 0});
      }
    }
    if (w != "social") return {cheap};
    std::vector<std::vector<Op>> rounds;
    for (const auto& in : inputs_) {
      rounds.push_back(cheap);
      rounds.back().push_back({Source::kProgram, Kind::kTc, BaseKind::kTc, in.get(), 0});
      rounds.back().push_back({Source::kFloor, Kind::kTc, BaseKind::kTc, in.get(), 0});
      if (baselines) {
        rounds.push_back(cheap);
        rounds.back().push_back({Source::kBaseline, Kind::kTc, BaseKind::kTc, in.get(), 0});
      }
    }
    return rounds;
  }

  // ---- measurement ----

  void measure() {
    const std::vector<std::vector<Op>> rounds = cycle();
    const std::int64_t t0 = now_ns();
    std::int64_t longest_round_ns = 0;
    for (std::size_t r = 0;; ++r) {
      const std::int64_t rs = now_ns();
      if (r > 0 && static_cast<double>(rs - t0 + longest_round_ns) / 1e9 > opts_.seconds) break;
      // The traced mode alternates rounds with and without spans, so the
      // same run measures the tracing overhead; with an even number of
      // rounds per cycle the pattern shifts by one each cycle, so every
      // round kind runs both ways.
      const std::size_t shift = rounds.size() % 2 == 0 ? r / rounds.size() : 0;
      const bool traced = opts_.trace && (r + shift) % 2 == 0;
      Tracer::instance().set_enabled(traced);
      for (const Op& op : rounds[r % rounds.size()]) execute(op, traced);
      Tracer::instance().set_enabled(opts_.trace);
      longest_round_ns = std::max(longest_round_ns, now_ns() - rs);
      ++rounds_;
    }
  }

  void execute(const Op& op, bool traced) {
    if (op.src == Source::kFloor) {
      run_floor(op, traced);
      return;
    }
    ++out_.attempted;
    try {
      if (op.src == Source::kBaseline) {
        run_baseline(op, traced);
      } else {
        run_kernel(op, traced);
      }
    } catch (const std::exception& e) {
      out_.fail(key_of(op) + ": " + e.what());
    }
  }

  static std::string key_of(const Op& op) {
    const std::string graph = std::string(".") + op.in->name;
    switch (op.src) {
      case Source::kBaseline: return std::string("baseline.") + kBaseNames[static_cast<int>(op.base)] + graph;
      case Source::kFloor: return std::string("reference.") + kKinds[static_cast<int>(op.kind)].name + graph;
      case Source::kProgram: break;
    }
    return kKinds[static_cast<int>(op.kind)].name + graph;
  }

  Samples& record(const Op& op, bool traced, double ms, std::uint64_t edges) {
    Samples& s = samples_[key_of(op)];
    const int t = traced ? 1 : 0;
    s.ms[t][op.root].push_back(ms);
    s.edges[t] += edges;
    s.secs[t] += ms / 1e3;
    return s;
  }

  const wl::Workload& workload_of(Kind k) const {
    switch (k) {
      case Kind::kBfs: return wl::bfs();
      case Kind::kSpath: return wl::spath();
      case Kind::kCcomp: return wl::ccomp();
      case Kind::kKcore: return wl::kcore();
      case Kind::kDcentr: return wl::dcentr();
      default: return wl::tc();
    }
  }

  void run_kernel(const Op& op, bool traced) {
    Input& in = *op.in;
    PropertyColumns cols(in.rows);
    wl::RunContext ctx;
    ctx.snapshot = in.snap.get();
    ctx.disk = in.disk.get();
    ctx.columns = &cols;
    ctx.pool = nullptr;
    ctx.root = op.root;
    graphbig::engine::TraversalTelemetry telemetry;
    if (traced) ctx.telemetry = &telemetry;
    const wl::Workload& w = workload_of(op.kind);
    gg::BufferPool::Stats before;
    if (in.disk) before = in.disk->pool().stats();

    wl::RunResult r;
    const std::int64_t t0 = now_ns();
    {
      Tracer::Scope span(kKinds[static_cast<int>(op.kind)].span);
      r = w.run(ctx);
    }
    const std::int64_t t1 = now_ns();

    Samples& s = record(op, traced, static_cast<double>(t1 - t0) / 1e6, r.edges_processed);
    if (traced) {
      ++s.traced_ops;
      s.supersteps += telemetry.supersteps;
      s.pull_steps += telemetry.pull_steps;
      std::uint64_t edges = telemetry.tail_edges;
      for (const auto& step : telemetry.steps) edges += step.edges;
      s.engine_edges += edges;
    }
    if (in.disk) account_pool(in, before);

    Tracer::Scope span("reference.check");
    std::string err;
    switch (op.kind) {
      case Kind::kBfs:
        err = check_bfs(in.depth.at(op.root), int_column(cols, in.rows, wl::props::kDepth),
                        r.vertices_processed);
        if (err.empty()) {
          err = check_total("bfs checksum", bfs_checksum(in.depth.at(op.root), nullptr), r.checksum);
        }
        break;
      case Kind::kSpath:
        err = check_dijkstra(in.dist.at(op.root), double_column(cols, in.rows, wl::props::kDistance),
                             r.vertices_processed);
        break;
      case Kind::kCcomp:
        err = check_partition(in.comp, int_column(cols, in.rows, wl::props::kLabel));
        break;
      case Kind::kKcore:
        err = check_exact("kcore", in.cores, int_column(cols, in.rows, wl::props::kCore));
        break;
      case Kind::kDcentr:
        err = check_exact("dcentr", in.degrees, int_column(cols, in.rows, wl::props::kDegree));
        break;
      case Kind::kTc:
        err = check_total("tc triangles", in.triangles, r.checksum);
        break;
    }
    if (!err.empty()) out_.error(in.name + " " + err);
  }

  void account_pool(Input& in, const gg::BufferPool::Stats& before) {
    const gg::BufferPool::Stats after = in.disk->pool().stats();
    pool_hits_ += after.hits - before.hits;
    pool_misses_ += after.misses - before.misses;
    pool_evictions_ += after.evictions - before.evictions;
    const std::string err = check_pool_frames(after.misses, after.evictions, in.disk->pool().pages());
    if (!err.empty()) out_.error("out_of_core: " + err);
  }

  /// The floor of a program operation: the benchmark's own reference
  /// computation of the same answer, on the edge list's CSR, repeated
  /// floor_reps times; the sample is the time of one computation. Its
  /// result is the reference itself, so there is nothing to check.
  void run_floor(const Op& op, bool traced) {
    const RefGraph& g = op.in->ref;
    const int reps = kKinds[static_cast<int>(op.kind)].floor_reps;
    const std::int64_t t0 = now_ns();
    {
      Tracer::Scope span("reference.floor");
      for (int i = 0; i < reps; ++i) {
        switch (op.kind) {
          case Kind::kBfs: ref_bfs(g, op.root); break;
          case Kind::kSpath: ref_dijkstra(g, op.root); break;
          case Kind::kCcomp: ref_components(g); break;
          case Kind::kKcore: ref_cores(g); break;
          case Kind::kDcentr: ref_degrees(g); break;
          case Kind::kTc: ref_triangles(g); break;
        }
      }
    }
    record(op, traced, static_cast<double>(now_ns() - t0) / 1e6 / reps, 0);
  }

  void run_baseline(const Op& op, bool traced) {
    Input& in = *op.in;
    if (!in.csr) {
      in.csr = std::make_unique<gg::Csr>(gg::build_csr(*in.snap));
      in.sym = std::make_unique<gg::Csr>(gg::symmetrize(*in.csr));
    }
    graphbig::baseline::PrototypeResult r;
    const std::int64_t t0 = now_ns();
    {
      Tracer::Scope span(kBaseSpans[static_cast<int>(op.base)]);
      switch (op.base) {
        case BaseKind::kBfs: r = graphbig::baseline::csr_bfs(*in.csr, op.root); break;
        case BaseKind::kSpath: r = graphbig::baseline::csr_spath(*in.csr, op.root); break;
        case BaseKind::kCcomp: r = graphbig::baseline::csr_ccomp(*in.sym); break;
        case BaseKind::kTc: r = graphbig::baseline::csr_tc(*in.sym); break;
      }
    }
    const std::int64_t t1 = now_ns();
    record(op, traced, static_cast<double>(t1 - t0) / 1e6, r.edges_processed);

    Tracer::Scope span("reference.check");
    std::string err;
    switch (op.base) {
      case BaseKind::kBfs:
        err = check_total("baseline bfs checksum", bfs_checksum(in.depth.at(op.root), nullptr),
                          r.checksum);
        break;
      case BaseKind::kSpath: {
        std::uint64_t reached = 0;
        for (const double d : in.dist.at(op.root)) reached += d != kUnreached ? 1 : 0;
        err = check_total("baseline spath reached", reached, r.vertices_processed);
        break;
      }
      case BaseKind::kCcomp: {
        const auto& rep = in.comp;
        std::uint64_t comps = 0, label_sum = 0;
        for (std::uint32_t v = 0; v < rep.size(); ++v) {
          comps += rep[v] == v ? 1 : 0;
          label_sum += rep[v] % 1000003u;  // every vertex adds its label
        }
        err = check_total("baseline ccomp checksum", comps * 2654435761u + label_sum, r.checksum);
        break;
      }
      case BaseKind::kTc:
        err = check_total("baseline tc triangles", in.triangles, r.checksum);
        break;
    }
    if (!err.empty()) out_.error(in.name + " " + err);
  }

  // ---- report ----

  /// A quantile of one kernel on one graph: the mean over its roots of
  /// each root's quantile, so that the cost of a root, not the cheapest
  /// root, sets the figure.
  static double graph_q(const std::map<std::uint32_t, std::vector<double>>& by_root,
                        double q) {
    if (by_root.empty()) return 0.0;
    double sum = 0.0;
    for (const auto& [root, ms] : by_root) sum += quantile(ms, q);
    return sum / static_cast<double>(by_root.size());
  }

  static std::size_t fewest_samples(const std::map<std::uint32_t, std::vector<double>>& by_root) {
    if (by_root.empty()) return 0;
    std::size_t n = SIZE_MAX;
    for (const auto& [root, ms] : by_root) n = std::min(n, ms.size());
    return n;
  }

  /// Sum over graphs of the given quantile of one kernel: the time to run
  /// it once on each graph.
  double kernel_q(const std::string& kernel, double q) const {
    double sum = 0.0;
    for (const auto& in : inputs_) {
      auto it = samples_.find(kernel + "." + in->name);
      if (it != samples_.end()) sum += graph_q(it->second.ms[it->second.figures()], q);
    }
    return sum;
  }

  /// A kernel's p10 over its floor's p10, both summed over graphs: how
  /// many times the reference's time the program takes for one pass.
  double vs_ref(const std::string& kernel) const {
    const double floor = kernel_q("reference." + kernel, 0.10);
    return floor > 0.0 ? kernel_q(kernel, 0.10) / floor : 0.0;
  }

  /// Geometric mean over every kernel on every graph of the p10 ratio to
  /// its floor, so each kernel weighs the same whatever its time.
  double mix_vs_ref() const {
    double log_sum = 0.0;
    int terms = 0;
    for (const KindInfo& k : kKinds) {
      for (const auto& in : inputs_) {
        auto prog = samples_.find(std::string(k.name) + "." + in->name);
        auto floor = samples_.find(std::string("reference.") + k.name + "." + in->name);
        if (prog == samples_.end() || floor == samples_.end()) continue;
        log_sum += std::log(graph_q(prog->second.ms[prog->second.figures()], 0.10) /
                            graph_q(floor->second.ms[floor->second.figures()], 0.10));
        ++terms;
      }
    }
    return terms > 0 ? std::exp(log_sum / terms) : 0.0;
  }

  void describe() const {
    for (const auto& in : inputs_) {
      std::printf("input %s: %llu vertices, %zu edges (%s), roots", in->name.c_str(),
                  static_cast<unsigned long long>(in->el.num_vertices), in->el.num_edges(),
                  in->el.directed ? "directed" : "undirected");
      for (const std::uint32_t r : in->roots) std::printf(" %u", r);
      if (in->disk) {
        std::printf(", file %llu pages, pool %u pages of %u bytes",
                    static_cast<unsigned long long>(in->disk->pool().page_count()),
                    in->disk->pool().pages(), in->disk->pool().page_bytes());
      }
      std::printf("\n");
    }
    std::printf("%d rounds of %zu round kinds\n", rounds_, cycle().size());
  }

  void report() {
    describe();
    Metrics& m = out_.metrics;
    if (!opts_.trace) {
      m.set("setup_s", setup_s_, "s");
      m.set("peak_rss_mb", peak_rss_mb_, "MB");
      m.set("bfs_vs_ref", vs_ref("bfs"), "ratio");
      m.set("spath_vs_ref", vs_ref("spath"), "ratio");
      m.set("dcentr_vs_ref", vs_ref("dcentr"), "ratio");
      m.set("mix_vs_ref", mix_vs_ref(), "ratio");
      return;
    }
    init_per_layer(m);
    m.set("datagen.generate_s", generate_s_, "s");
    m.set("graph.build_s", build_s_, "s");
    m.set("graph.freeze_s", freeze_s_, "s");
    m.set("snap.save_s", save_s_, "s");
    m.set("disk.open_s", open_s_, "s");
    m.set("graph.snapshot_mb", static_cast<double>(snapshot_bytes_) / 1048576.0, "MB");
    m.set("snap.file_mb", static_cast<double>(file_bytes_) / 1048576.0, "MB");
    m.set("disk.pool_mb", static_cast<double>(pool_bytes_) / 1048576.0, "MB");
    if (!snap_path_.empty()) {
      const double rounds = static_cast<double>(std::max(rounds_, 1));
      m.set("disk.pool_hits", static_cast<double>(pool_hits_) / rounds, "count");
      m.set("disk.pool_misses", static_cast<double>(pool_misses_) / rounds, "count");
      m.set("disk.pool_evictions", static_cast<double>(pool_evictions_) / rounds, "count");
      const std::uint64_t pins = pool_hits_ + pool_misses_;
      m.set("disk.pool_hit_ratio", pins == 0 ? 0.0 : static_cast<double>(pool_hits_) / static_cast<double>(pins), "ratio");
    }
    double plain = 0.0, traced = 0.0;
    for (const KindInfo& k : kKinds) {
      std::uint64_t edges = 0;
      double secs = 0.0;
      double ops_supersteps = 0.0, ops_pulls = 0.0, ops_edges = 0.0;
      for (const auto& in : inputs_) {
        auto it = samples_.find(std::string(k.name) + "." + in->name);
        if (it == samples_.end()) continue;
        const Samples& s = it->second;
        m.set(std::string("workloads.") + k.name + "." + in->name + ".p10_ms",
              graph_q(s.ms[s.figures()], 0.10), "ms");
        edges += s.edges[s.figures()];
        secs += s.secs[s.figures()];
        if (s.traced_ops > 0) {
          const double n = static_cast<double>(s.traced_ops);
          ops_supersteps += static_cast<double>(s.supersteps) / n;
          ops_pulls += static_cast<double>(s.pull_steps) / n;
          ops_edges += static_cast<double>(s.engine_edges) / n;
        }
        // The overhead compares kernels with a few samples each way; a
        // social TC has one or two, and its run-to-run noise would swamp
        // a span's cost.
        if (fewest_samples(s.ms[0]) >= 3 && fewest_samples(s.ms[1]) >= 3) {
          plain += graph_q(s.ms[0], 0.10);
          traced += graph_q(s.ms[1], 0.10);
        }
      }
      if (secs == 0.0) continue;
      m.set(std::string("workloads.") + k.name + ".p10_ms", kernel_q(k.name, 0.10), "ms");
      m.set(std::string("workloads.") + k.name + ".p50_ms", kernel_q(k.name, 0.50), "ms");
      m.set(std::string("workloads.") + k.name + ".p90_ms", kernel_q(k.name, 0.90), "ms");
      m.set(std::string("workloads.") + k.name + ".edges_per_s", static_cast<double>(edges) / secs, "1/s");
      if (k.engine) {
        m.set(std::string("engine.") + k.name + ".supersteps", ops_supersteps, "count");
        m.set(std::string("engine.") + k.name + ".pull_steps", ops_pulls, "count");
        m.set(std::string("engine.") + k.name + ".edges", ops_edges, "count");
      }
    }
    for (const char* b : kBaseNames) {
      const std::string name = std::string("baseline.") + b;
      if (kernel_q(name, 0.10) > 0.0) m.set(name + ".p10_ms", kernel_q(name, 0.10), "ms");
    }
    for (const KindInfo& k : kKinds) {
      const std::string name = std::string("reference.") + k.name;
      if (kernel_q(name, 0.10) > 0.0) m.set(name + ".p10_ms", kernel_q(name, 0.10), "ms");
    }
    finish_trace(opts_, plain > 0.0 ? 100.0 * (traced - plain) / plain : 0.0, m);
  }

 public:
  ~AnalyticRun() {
    for (auto& in : inputs_) in->disk.reset();
    if (!snap_path_.empty()) std::remove(snap_path_.c_str());
  }

 private:
  static constexpr std::uint64_t kRoadSide = 384;

  const Options& opts_;
  Outcome& out_;
  std::vector<std::unique_ptr<Input>> inputs_;
  std::map<std::string, Samples> samples_;
  std::string snap_path_;
  double generate_s_ = 0, build_s_ = 0, freeze_s_ = 0, save_s_ = 0, open_s_ = 0;
  double setup_s_ = 0, peak_rss_mb_ = 0;
  std::uint64_t snapshot_bytes_ = 0, file_bytes_ = 0, pool_bytes_ = 0;
  std::uint64_t pool_hits_ = 0, pool_misses_ = 0, pool_evictions_ = 0;
  int rounds_ = 0;
};

}  // namespace

void run_analytic(const Options& opts, Outcome& out) {
  AnalyticRun run(opts, out);
  run.run();
}

}  // namespace perfbench
