// Tests of the benchmark's reference answers and checkers: each reference
// runs on small graphs with answers known by hand (a path, a star, K4, two
// components, a weighted diamond, a churned mirror), and each checker is
// shown one correct and at least one corrupted answer, which it must
// reject.
//
//   cmake --build .bench_build/perfbench --target perfbench_selftest
//   .bench_build/perfbench/perfbench_selftest
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "reference.h"

using namespace perfbench;

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    ++g_failures;
    std::printf("FAIL: %s\n", what);
  }
}

using Edges = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

RefGraph directed(std::uint32_t n, const Edges& e, const std::vector<double>& w = {}) {
  return RefGraph::from_edges(n, true, e, w);
}

void test_path() {
  const RefGraph g = directed(4, {{0, 1}, {1, 2}, {2, 3}});
  const std::vector<std::int64_t> want{0, 1, 2, 3};
  expect(ref_bfs(g, 0) == want, "path: bfs depths from 0");
  expect(ref_bfs(g, 3) == std::vector<std::int64_t>({-1, -1, -1, 0}), "path: bfs from the sink");
  expect(ref_bfs(g, 0, 1) == std::vector<std::int64_t>({0, 1, -1, -1}), "path: 1-hop");
  std::uint64_t reached = 0;
  expect(bfs_checksum(want, &reached) == 4 * 1000003u + 6 && reached == 4, "path: bfs checksum");
  expect(ref_degrees(g) == std::vector<std::int64_t>({1, 2, 2, 1}), "path: degrees");
  expect(ref_cores(g) == std::vector<std::int64_t>({1, 1, 1, 1}), "path: cores");
  expect(ref_triangles(g) == 0, "path: no triangles");

  // check_bfs: unreachable rows hold 0 because the operation never wrote them.
  expect(check_bfs(want, {0, 1, 2, 3}, 4).empty(), "check_bfs accepts the answer");
  expect(!check_bfs(want, {0, 1, 3, 3}, 4).empty(), "check_bfs rejects a wrong depth");
  expect(!check_bfs(want, {0, 1, 2, 3}, 3).empty(), "check_bfs rejects a wrong reach count");
  const auto from_sink = ref_bfs(g, 3);
  expect(check_bfs(from_sink, {0, 0, 0, 0}, 1).empty(), "check_bfs accepts an unreached tail");
  expect(!check_bfs(from_sink, {0, 1, 0, 0}, 1).empty(),
         "check_bfs rejects a depth written on an unreachable vertex");
}

void test_star() {
  const RefGraph g = directed(5, {{0, 1}, {0, 2}, {0, 3}, {0, 4}});
  expect(ref_bfs(g, 0) == std::vector<std::int64_t>({0, 1, 1, 1, 1}), "star: bfs depths");
  const auto deg = ref_degrees(g);
  expect(deg == std::vector<std::int64_t>({4, 1, 1, 1, 1}), "star: degrees");
  expect(ref_cores(g) == std::vector<std::int64_t>({1, 1, 1, 1, 1}), "star: cores");
  // k-hop sets, compared by the checksum a serving request reports.
  std::uint64_t reached = 0;
  const std::uint64_t hop = bfs_checksum(ref_bfs(g, 0, 1), &reached);
  expect(hop == 5 * 1000003u + 4 && reached == 5, "star: 1-hop set from the centre");
  expect(ref_bfs(g, 0, 0) == std::vector<std::int64_t>({0, -1, -1, -1, -1}), "star: 0-hop set");
  expect(ref_bfs(g, 1, 2) == std::vector<std::int64_t>({-1, 0, -1, -1, -1}), "star: leaf reaches nothing");
  expect(check_total("khop", hop, hop).empty(), "check_total accepts the k-hop checksum");
  expect(!check_total("khop", hop, hop - 1000003u).empty(),
         "check_total rejects a k-hop set one vertex short");
  expect(check_exact("dcentr", deg, {4, 1, 1, 1, 1}).empty(), "check_exact accepts degrees");
  expect(!check_exact("dcentr", deg, {4, 1, 1, 2, 1}).empty(), "check_exact rejects a wrong degree");
}

void test_k4() {
  // One arc per pair: undirected degree 3, core 3, four triangles.
  const RefGraph g = directed(4, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}});
  expect(ref_triangles(g) == 4, "k4: four triangles");
  const auto cores = ref_cores(g);
  expect(cores == std::vector<std::int64_t>({3, 3, 3, 3}), "k4: cores");
  expect(check_exact("kcore", cores, {3, 3, 3, 3}).empty(), "check_exact accepts cores");
  expect(!check_exact("kcore", cores, {3, 3, 2, 3}).empty(), "check_exact rejects a wrong core");
  expect(check_total("tc", ref_triangles(g), 4).empty(), "check_total accepts the count");
  expect(!check_total("tc", ref_triangles(g), 3).empty(), "check_total rejects a wrong count");

  // Undirected insertion stores both arcs: the multigraph degree doubles,
  // the simple graph's triangles do not.
  const RefGraph u = RefGraph::from_edges(4, false, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}, {});
  expect(ref_triangles(u) == 4, "k4 undirected: four triangles");
  expect(ref_cores(u) == std::vector<std::int64_t>({6, 6, 6, 6}), "k4 undirected: cores count both arcs");
}

void test_components() {
  // {0,1,2} (a triangle, reached backwards from 2) and {3,4}.
  const RefGraph g = directed(5, {{1, 0}, {2, 1}, {0, 2}, {4, 3}});
  const auto comp = ref_components(g);
  expect(comp == std::vector<std::uint32_t>({0, 0, 0, 3, 3}), "two components: representatives");
  expect(check_partition(comp, {7, 7, 7, 9, 9}).empty(), "check_partition accepts any labels");
  expect(!check_partition(comp, {7, 7, 9, 9, 9}).empty(), "check_partition rejects merged components");
  expect(!check_partition(comp, {7, 8, 7, 9, 9}).empty(), "check_partition rejects a split component");
  // A core example with a pendant: the triangle is the 2-core in the
  // one-arc-per-pair view; vertices 3 and 4 are 1-core.
  expect(ref_cores(g) == std::vector<std::int64_t>({2, 2, 2, 1, 1}), "two components: cores");
  expect(ref_triangles(g) == 1, "two components: one triangle");
}

void test_diamond() {
  const RefGraph g =
      directed(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}, {1, 2}}, {1.0, 4.0, 2.0, 0.5, 1.5});
  const auto dist = ref_dijkstra(g, 0);
  expect(dist == std::vector<double>({0.0, 1.0, 2.5, 3.0}), "diamond: distances");
  const auto from3 = ref_dijkstra(g, 3);
  expect(from3[3] == 0.0 && from3[0] == kUnreached, "diamond: sink reaches nothing");
  expect(check_dijkstra(dist, {0.0, 1.0, 2.5, 3.0}, 4).empty(), "check_dijkstra accepts distances");
  expect(!check_dijkstra(dist, {0.0, 1.0, std::nextafter(2.5, 3.0), 3.0}, 4).empty(),
         "check_dijkstra rejects a distance one ulp off");
  expect(!check_dijkstra(dist, {0.0, 1.0, 2.5, 3.0}, 3).empty(), "check_dijkstra rejects a wrong reach count");
  expect(!check_dijkstra(from3, {0.0, 0.0, 0.5, 0.0}, 1).empty(),
         "check_dijkstra rejects a distance written on an unreachable vertex");
}

void test_mirror() {
  // 0 -> 1 (1.0), 1 -> 2 (2.0); the replay adds 0 -> 2 and a vertex 3
  // reached by 2 -> 3, and refuses a duplicate arc, a re-added vertex and
  // the deletion of an absent arc.
  Mirror m(3, true, {{0, 1}, {1, 2}}, {1.0, 2.0});
  using K = MirrorOp::Kind;
  const std::vector<MirrorOp> ops = {
      {K::kAddEdge, 0, 2, 4.0}, {K::kAddEdge, 0, 1, 9.0},   {K::kAddVertex, 3, 0, 1.0},
      {K::kAddVertex, 1, 0, 1.0}, {K::kAddEdge, 2, 3, 0.5}, {K::kDeleteEdge, 2, 0, 1.0}};
  std::uint64_t accepted = 0;
  for (const auto& op : ops) accepted += m.apply(op) ? 1 : 0;
  expect(accepted == 3 && m.arcs() == 4, "mirror: replay accepts three ops");
  expect(check_replay(7, 3, accepted).empty(), "check_replay accepts a matching count");
  expect(!check_replay(7, 4, accepted).empty(), "check_replay rejects a batch that applied more");
  expect(!check_replay(7, 2, accepted).empty(), "check_replay rejects a batch that applied fewer");

  const RefGraph ref = m.to_ref();
  const RefGraph none;
  // DCentr: the total of out + in degrees is twice the arcs.
  const auto dc = expected_answer(Query::kDCentr, 0, 0, m, none);
  expect(dc.first == 8, "mirror: dcentr total");
  expect(check_answer(Query::kDCentr, dc, 8, 0).empty(), "check_answer accepts the dcentr total");
  expect(!check_answer(Query::kDCentr, dc, 10, 0).empty(), "check_answer rejects a wrong dcentr total");
  // BFS from 0: depths 0, 1, 1, 2.
  const auto bfs = expected_answer(Query::kBfs, 0, 0, m, ref);
  expect(bfs.first == 4 * 1000003u + 4 && bfs.second == 4, "mirror: bfs checksum");
  expect(check_answer(Query::kBfs, bfs, bfs.first, 4).empty(), "check_answer accepts the bfs answer");
  expect(!check_answer(Query::kBfs, bfs, bfs.first + 1, 4).empty(), "check_answer rejects a wrong bfs checksum");
  // 1-hop from 0: {0, 1, 2}.
  const auto hop = expected_answer(Query::kKHop, 0, 1, m, ref);
  expect(hop.first == 3 * 1000003u + 2 && hop.second == 3, "mirror: 1-hop checksum");
  expect(check_answer(Query::kKHop, hop, hop.first, 3).empty(), "check_answer accepts the k-hop answer");
  expect(!check_answer(Query::kKHop, hop, hop.first, 4).empty(),
         "check_answer rejects a k-hop answer with a wrong vertex count");
  expect(!check_answer(Query::kKHop, hop, hop.first - 1, 3).empty(),
         "check_answer rejects a wrong k-hop checksum");
  // SPath from 0: 0, 1, 3 (via 1, not the direct 4.0), 3.5; the checksum
  // carries the distance total times 16.
  const auto sp = expected_answer(Query::kSPath, 0, 0, m, ref);
  expect(sp.first == 4 * 1000003u + 120 && sp.second == 4, "mirror: spath checksum");
  expect(check_answer(Query::kSPath, sp, sp.first, 4).empty(), "check_answer accepts the spath answer");
  expect(!check_answer(Query::kSPath, sp, sp.first + 1, 4).empty(),
         "check_answer rejects a wrong spath checksum");

  // A deleted root answers nothing; the deletion takes its arcs along.
  expect(m.apply({K::kDeleteVertex, 2, 0, 1.0}) && m.arcs() == 1, "mirror: delete vertex 2 and its three arcs");
  expect(expected_answer(Query::kBfs, 2, 0, m, m.to_ref()) == std::make_pair<std::uint64_t, std::uint64_t>(0, 0),
         "mirror: a deleted root reaches nothing");
}

void test_bookkeeping() {
  expect(check_serving_counts(10, 8, 2, 8, 8).empty(), "check_serving_counts accepts a consistent run");
  expect(!check_serving_counts(10, 8, 1, 8, 8).empty(), "check_serving_counts rejects a lost request");
  expect(!check_serving_counts(10, 8, 2, 7, 7).empty(),
         "check_serving_counts rejects an admitted request that never completed");
  expect(!check_serving_counts(10, 8, 2, 8, 7).empty(), "check_serving_counts rejects a missing record");
  expect(check_pool_frames(100, 90, 10).empty(), "check_pool_frames accepts a full pool");
  expect(!check_pool_frames(100, 89, 10).empty(), "check_pool_frames rejects frames beyond the pool");
}

}  // namespace

int main() {
  test_path();
  test_star();
  test_k4();
  test_components();
  test_diamond();
  test_mirror();
  test_bookkeeping();
  if (g_failures != 0) {
    std::printf("perfbench_selftest: %d failures\n", g_failures);
    return 1;
  }
  std::printf("perfbench_selftest: all checks passed\n");
  return 0;
}
