// The serving workload: a closed loop through QueryFrontend::submit.
//
// Threads: the load generator (this thread), one writer and two frontend
// workers -- four threads on four cores. The generator keeps a fixed
// number of requests outstanding, well inside the queue capacity, so
// nothing is shed; requests follow graphbig_serve's 40/25/20/15
// BFS/k-hop/SPath/DCentr mix. Every kPublishPeriod the writer applies one
// ChurnDriver batch to the live graph and publishes it through the
// SnapshotManager. The cadence is fixed in time rather than in requests:
// every publish grows the resident set (see CHANGES.md), so a request-count
// cadence would make a faster read path read as a memory regression.
// In the rest of each period the writer runs floor operations: the
// benchmark's own answer to one kind of request (queue BFS, 2-hop BFS,
// Dijkstra, degree sweep on the generated graph) or to a publish (a CSR
// rebuilt from its mirror of the live graph), the kinds in turn. Each
// end-to-end figure divides a kind's p10 by its floor's p10 from the same
// window, so a phase in which the whole machine runs slower cancels out.
//
// Verification replays every recorded churn batch into the benchmark's
// own adjacency mirror (accepted ops must equal the batch's `applied`),
// checks every DCentr answer against the mirror's degree total at the
// request's generation, and recomputes every BFS, k-hop and SPath answer
// of every kVerifyEvery-th generation on the mirror.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <random>
#include <thread>

#include "bench.h"
#include "datagen/generators.h"
#include "graph/churn.h"
#include "reference.h"
#include "serve/query_frontend.h"
#include "serve/snapshot_manager.h"

namespace perfbench {

namespace {

namespace gg = graphbig::graph;
namespace dg = graphbig::datagen;
namespace sv = graphbig::serve;

constexpr int kWorkers = 2;
constexpr std::uint64_t kOutstanding = 2;
constexpr auto kPublishPeriod = std::chrono::milliseconds(200);
constexpr std::uint64_t kVerifyEvery = 8;
constexpr int kKHop = 2;

constexpr const char* kKindNames[] = {"bfs", "khop", "spath", "dcentr", "publish"};
constexpr int kPublish = 4;  // index of the publish in per-kind arrays
/// How many times one floor sample repeats its reference computation: the
/// degree sweep four times, so that it lasts about as long as a DCentr
/// request (see the analytic workloads' floor_reps).
constexpr int kFloorReps[] = {1, 1, 1, 4, 1};

MirrorOp mirror_op(const gg::ChurnOp& op) {
  using K = gg::ChurnOp::Kind;
  MirrorOp m;
  switch (op.kind) {
    case K::kAddVertex: m.kind = MirrorOp::Kind::kAddVertex; break;
    case K::kAddEdge: m.kind = MirrorOp::Kind::kAddEdge; break;
    case K::kDeleteEdge: m.kind = MirrorOp::Kind::kDeleteEdge; break;
    case K::kDeleteVertex: m.kind = MirrorOp::Kind::kDeleteVertex; break;
  }
  m.a = op.a;
  m.b = op.b;
  m.weight = op.weight;
  return m;
}

Query query_of(sv::QueryKind k) {
  switch (k) {
    case sv::QueryKind::kBfs: return Query::kBfs;
    case sv::QueryKind::kKHop: return Query::kKHop;
    case sv::QueryKind::kSPath: return Query::kSPath;
    case sv::QueryKind::kDCentr: break;
  }
  return Query::kDCentr;
}

}  // namespace

void run_serving(const Options& opts, Outcome& out) {
  std::mt19937_64 rng(opts.seed * 0x9E3779B97F4A7C15ull + 2);
  Metrics& m = out.metrics;
  if (opts.trace) init_per_layer(m);

  // ---- set-up ----
  dg::EdgeList el;
  double generate_s = 0, build_s = 0, freeze_s = 0, start_s = 0;
  {
    Tracer::Scope span("datagen.generate");
    const std::int64_t t0 = now_ns();
    dg::LdbcConfig lc;
    lc.num_vertices = std::uint64_t{1} << 17;
    lc.avg_degree = 16.0;
    lc.seed = rng();
    el = dg::generate_ldbc(lc);
    generate_s = static_cast<double>(now_ns() - t0) / 1e9;
  }
  // Roots: the top 1% of vertices by out-degree, so requests traverse the
  // giant component whatever the seed.
  std::vector<std::uint32_t> roots;
  {
    std::vector<std::uint32_t> deg(el.num_vertices, 0);
    for (const auto& e : el.edges) ++deg[e.first];
    std::vector<std::uint32_t> sorted = deg;
    std::sort(sorted.begin(), sorted.end(), std::greater<>());
    const std::uint32_t cut = std::max<std::uint32_t>(sorted[sorted.size() / 100], 1);
    for (std::uint32_t v = 0; v < deg.size(); ++v) {
      if (deg[v] >= cut) roots.push_back(v);
    }
  }
  gg::PropertyGraph live;
  {
    Tracer::Scope span("graph.build");
    const std::int64_t t0 = now_ns();
    live = dg::build_property_graph(el);
    build_s = static_cast<double>(now_ns() - t0) / 1e9;
  }
  std::unique_ptr<sv::SnapshotManager> mgr;
  {
    Tracer::Scope span("graph.freeze");
    const std::int64_t t0 = now_ns();
    mgr = std::make_unique<sv::SnapshotManager>(live);
    freeze_s = static_cast<double>(now_ns() - t0) / 1e9;
  }
  gg::ChurnConfig cc;
  cc.seed = rng();
  gg::ChurnDriver driver(cc, live);
  std::unique_ptr<sv::QueryFrontend> fe;
  {
    Tracer::Scope span("serve.start");
    const std::int64_t t0 = now_ns();
    sv::QueryFrontendOptions fo;
    fo.workers = kWorkers;
    fe = std::make_unique<sv::QueryFrontend>(*mgr, fo);
    start_s = static_cast<double>(now_ns() - t0) / 1e9;
  }
  double snapshot_mb = 0.0;
  {
    sv::SnapshotManager::Lease lease = mgr->acquire();
    snapshot_mb = static_cast<double>(lease.snapshot()->footprint_bytes()) / 1048576.0;
  }
  const double setup_s = static_cast<double>(now_ns() - g_start_ns) / 1e9;
  std::printf("input ldbc: %llu vertices, %zu edges (directed), %zu root candidates\n",
              static_cast<unsigned long long>(el.num_vertices), el.num_edges(), roots.size());

  // The writer's floor inputs, built after set-up is timed: a CSR of the
  // generated graph for the request kinds, and a mirror of the live graph
  // that follows every batch, for the publish.
  const RefGraph floor_graph =
      RefGraph::from_edges(el.num_vertices, el.directed, el.edges, el.weights);
  Mirror floor_mirror(el.num_vertices, el.directed, el.edges, el.weights);
  std::mt19937_64 floor_rng(rng());

  // ---- writer: one churn batch + publish every kPublishPeriod, then
  // floor operations in the rest of the period ----
  std::mutex wmu;
  std::condition_variable wcv;
  bool stop_writer = false;
  std::vector<gg::ChurnBatch> batches;
  std::vector<double> publish_ms, publish_traced_ms;
  std::vector<double> floor_ms[5];
  double last_floor_ms[5] = {0, 0, 0, 0, 0};  // writer only
  int floor_kind = 0;                          // writer only
  std::uint64_t rows_rewritten = 0;
  bool gen_skew = false;  // written by the writer, read after join
  std::thread writer([&] {
    auto next = std::chrono::steady_clock::now() + kPublishPeriod;
    for (;; next += kPublishPeriod) {
      {
        std::unique_lock<std::mutex> lock(wmu);
        if (wcv.wait_until(lock, next, [&] { return stop_writer; })) return;
      }
      const bool traced = Tracer::instance().enabled();
      const std::int64_t t0 = now_ns();
      gg::ChurnBatch batch;
      {
        Tracer::Scope span("churn.apply_batch");
        batch = driver.apply_batch(live);
      }
      gg::RefreshStats rs;
      {
        Tracer::Scope span("serve.publish");
        rs = mgr->publish(live);
      }
      const double ms = static_cast<double>(now_ns() - t0) / 1e6;
      (traced ? publish_traced_ms : publish_ms).push_back(ms);
      rows_rewritten += rs.rows_rewritten;
      if (mgr->current_generation() != batches.size() + 1) gen_skew = true;
      for (const auto& op : batch.ops) floor_mirror.apply(mirror_op(op));
      batches.push_back(std::move(batch));

      // The floors: the benchmark's own answer to one kind of operation
      // at a time, the kinds in turn, for as long as the period leaves
      // room, so every kind's floor is sampled through the whole window
      // alongside the requests it divides.
      Tracer::Scope span("reference.floor");
      const auto period_end = next + kPublishPeriod;
      while (std::chrono::steady_clock::now() +
                 std::chrono::microseconds(static_cast<std::int64_t>(last_floor_ms[floor_kind] * 1e3)) <
             period_end) {
        const int kind = floor_kind;
        const auto root = roots[floor_rng() % roots.size()];
        const std::int64_t f0 = now_ns();
        for (int i = 0; i < kFloorReps[kind]; ++i) {
          switch (kind) {
            case 0: ref_bfs(floor_graph, root); break;
            case 1: ref_bfs(floor_graph, root, kKHop); break;
            case 2: ref_dijkstra(floor_graph, root); break;
            case 3: ref_degrees(floor_graph); break;
            default: floor_mirror.to_ref(); break;
          }
        }
        last_floor_ms[kind] = static_cast<double>(now_ns() - f0) / 1e6;
        floor_ms[kind].push_back(last_floor_ms[kind] / kFloorReps[kind]);
        floor_kind = (floor_kind + 1) % 5;
      }
    }
  });

  // ---- closed-loop load generator ----
  std::uint64_t issued = 0, shed = 0;
  std::vector<bool> traced_request;
  const std::int64_t t0 = now_ns();
  const auto deadline = t0 + static_cast<std::int64_t>(opts.seconds * 1e9);
  while (now_ns() < deadline) {
    while (issued - fe->stats().completed - shed >= kOutstanding) {
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
    // In the traced mode, tracing alternates every 64 requests so the
    // same run measures its own overhead.
    const bool traced = opts.trace && (issued / 64) % 2 == 0;
    Tracer::instance().set_enabled(traced);
    sv::QueryRequest req;
    req.id = issued;
    const std::uint64_t mix = rng() % 100;
    req.kind = mix < 40   ? sv::QueryKind::kBfs
               : mix < 65 ? sv::QueryKind::kKHop
               : mix < 85 ? sv::QueryKind::kSPath
                          : sv::QueryKind::kDCentr;
    req.root = roots[rng() % roots.size()];
    req.khop = kKHop;
    bool admitted = false;
    {
      Tracer::Scope span("serve.submit");
      admitted = fe->submit(req);
    }
    traced_request.push_back(traced);
    ++issued;
    if (!admitted) ++shed;
  }
  while (fe->stats().completed + shed < issued) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  const double window_s = static_cast<double>(now_ns() - t0) / 1e9;
  {
    std::lock_guard<std::mutex> lock(wmu);
    stop_writer = true;
  }
  wcv.notify_one();
  writer.join();
  Tracer::instance().set_enabled(opts.trace);
  fe->shutdown();
  const sv::QueryFrontendStats fs = fe->stats();
  const std::vector<sv::QueryRecord> records = fe->take_records();
  const sv::SnapshotManagerStats ms = mgr->stats();
  double snapshot_end_mb = 0.0;
  {
    sv::SnapshotManager::Lease lease = mgr->acquire();
    snapshot_end_mb = static_cast<double>(lease.snapshot()->footprint_bytes()) / 1048576.0;
  }
  std::printf("snapshot footprint %.1f MB at start, %.1f MB after %zu publishes\n",
              snapshot_mb, snapshot_end_mb, batches.size());

  // Peak memory of the serving run, including the writer's floor inputs
  // and before the verification mirror is built.
  const double rss_mb = peak_rss_mb();
  out.attempted = issued + batches.size();
  out.failed = shed;

  // ---- verification ----
  if (gen_skew) out.error("serving: a publish did not advance the generation by one");
  const std::string counts =
      check_serving_counts(issued, fs.submitted, fs.shed, fs.completed, records.size());
  if (!counts.empty()) out.error("serving: " + counts);
  {
    Tracer::Scope span("reference.check");
    std::vector<const sv::QueryRecord*> by_gen;
    for (const auto& r : records) by_gen.push_back(&r);
    std::stable_sort(by_gen.begin(), by_gen.end(),
                     [](const auto* a, const auto* b) { return a->generation < b->generation; });
    Mirror mirror(el.num_vertices, el.directed, el.edges, el.weights);
    std::uint64_t gen = 0;
    std::size_t next = 0;
    std::unique_ptr<RefGraph> ref;
    std::uint64_t ref_gen = ~0ull;
    while (next < by_gen.size()) {
      const sv::QueryRecord& rec = *by_gen[next];
      if (rec.generation > batches.size()) {
        out.error("serving: record names an unpublished generation");
        break;
      }
      while (gen < rec.generation) {
        const gg::ChurnBatch& b = batches[gen];
        std::uint64_t accepted = 0;
        for (const auto& op : b.ops) accepted += mirror.apply(mirror_op(op)) ? 1 : 0;
        const std::string err = check_replay(b.serial, b.applied, accepted);
        if (!err.empty()) out.error("serving: " + err);
        ++gen;
      }
      const Query kind = query_of(rec.kind);
      const bool dcentr = kind == Query::kDCentr;
      if (dcentr || gen % kVerifyEvery == 0) {
        if (!dcentr && ref_gen != gen) {
          ref = std::make_unique<RefGraph>(mirror.to_ref());
          ref_gen = gen;
        }
        static const RefGraph kEmpty;
        const std::string err =
            check_answer(kind, expected_answer(kind, rec.root, rec.khop, mirror, dcentr ? kEmpty : *ref),
                         rec.checksum, rec.vertices);
        if (!err.empty()) {
          out.error("serving: request " + std::to_string(rec.id) + " at generation " +
                    std::to_string(gen) + ": " + err);
        }
      }
      ++next;
    }
  }

  // ---- report ----
  std::vector<double> lat[4], lat_traced[4], all, queue, pin, exec, report;
  for (const auto& r : records) {
    const auto k = static_cast<std::size_t>(r.kind);
    const double ms_lat = static_cast<double>(r.latency_us) / 1e3;
    (traced_request[r.id] ? lat_traced[k] : lat[k]).push_back(ms_lat);
    if (traced_request[r.id]) continue;
    all.push_back(ms_lat);
    queue.push_back(static_cast<double>(r.queue_us) / 1e3);
    pin.push_back(static_cast<double>(r.pin_us) / 1e3);
    exec.push_back(static_cast<double>(r.exec_us) / 1e3);
    report.push_back(static_cast<double>(r.report_us) / 1e3);
  }
  // p10 of each kind's operation (requests from the untraced blocks), and
  // of its floor; the publish is the fifth kind.
  double p10[5], floor_p10[5];
  for (int k = 0; k < 5; ++k) {
    p10[k] = quantile(k == kPublish ? publish_ms : lat[k], 0.10);
    floor_p10[k] = quantile(floor_ms[k], 0.10);
  }
  auto vs_ref = [&](int k) { return floor_p10[k] > 0.0 ? p10[k] / floor_p10[k] : 0.0; };
  if (!opts.trace) {
    m.set("setup_s", setup_s, "s");
    m.set("peak_rss_mb", rss_mb, "MB");
    m.set("bfs_vs_ref", vs_ref(0), "ratio");
    m.set("spath_vs_ref", vs_ref(2), "ratio");
    m.set("dcentr_vs_ref", vs_ref(3), "ratio");
    double log_sum = 0.0;
    for (int k = 0; k < 5; ++k) log_sum += std::log(vs_ref(k));
    m.set("mix_vs_ref", std::exp(log_sum / 5.0), "ratio");
    return;
  }
  m.set("datagen.generate_s", generate_s, "s");
  m.set("graph.build_s", build_s, "s");
  m.set("graph.freeze_s", freeze_s, "s");
  m.set("serve.start_s", start_s, "s");
  m.set("graph.snapshot_mb", snapshot_mb, "MB");
  m.set("serve.snapshot_end_mb", snapshot_end_mb, "MB");
  for (int k = 0; k < 5; ++k) {
    const std::string base = std::string("workloads.") + kKindNames[k];
    const std::vector<double>& v = k == kPublish ? publish_ms : lat[k];
    m.set(base + ".p10_ms", p10[k], "ms");
    m.set(base + ".p50_ms", quantile(v, 0.50), "ms");
    m.set(base + ".p90_ms", quantile(v, 0.90), "ms");
    m.set(std::string("reference.") + kKindNames[k] + ".p10_ms", floor_p10[k], "ms");
  }
  m.set("serve.queue_ms", quantile(queue, 0.5), "ms");
  m.set("serve.pin_ms", quantile(pin, 0.5), "ms");
  m.set("serve.exec_ms", quantile(exec, 0.5), "ms");
  m.set("serve.report_ms", quantile(report, 0.5), "ms");
  m.set("serve.latency_p50_ms", quantile(all, 0.5), "ms");
  m.set("serve.latency_p99_ms", quantile(all, 0.99), "ms");
  m.set("serve.qps", static_cast<double>(records.size()) / window_s, "1/s");
  m.set("serve.publish_incremental", static_cast<double>(ms.incremental), "count");
  m.set("serve.publish_full", static_cast<double>(ms.full), "count");
  m.set("serve.refresh_rows_rewritten",
        batches.empty() ? 0.0 : static_cast<double>(rows_rewritten) / static_cast<double>(batches.size()),
        "count");
  m.set("serve.publish_waits", static_cast<double>(ms.publish_waits), "count");
  double plain = quantile(publish_ms, 0.10), traced = quantile(publish_traced_ms, 0.10);
  for (int k = 0; k < 4; ++k) {
    plain += quantile(lat[k], 0.10);
    traced += quantile(lat_traced[k], 0.10);
  }
  finish_trace(opts, plain > 0.0 ? 100.0 * (traced - plain) / plain : 0.0, m);
}

}  // namespace perfbench
