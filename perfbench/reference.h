// Reference answers and answer checkers for the perfbench workloads.
//
// Every reference is computed by this file's own code from the generated
// edge list, never from a graph the program built, so a fault in the
// program's graph construction shows up as a mismatch instead of being
// copied into the expected answer. The algorithms are deliberately
// different from the program's: queue BFS, binary-heap Dijkstra,
// union-find components, Batagelj-Zaversnik bin-sort core peeling and
// degree-ordered triangle listing.
//
// Checkers take plain vectors (the per-vertex values an operation left in
// its PropertyColumns) and return an empty string when the answer holds,
// else a message naming the first bad vertex.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline constexpr double kUnreached = std::numeric_limits<double>::infinity();

/// Directed multigraph in CSR form, built the way the program's
/// build_property_graph inserts edges: each listed edge s->d, plus d->s
/// when the list is undirected. Vertex id == row.
struct RefGraph {
  std::uint32_t n = 0;
  std::vector<std::uint64_t> out_ptr, in_ptr;
  std::vector<std::uint32_t> out_dst, in_src;
  std::vector<double> out_w;

  /// `weights` empty means unit weights.
  static RefGraph from_edges(
      std::uint64_t num_vertices, bool directed,
      const std::vector<std::pair<std::uint32_t, std::uint32_t>>& edges,
      const std::vector<double>& weights);
};

/// BFS depth per vertex over out-edges; -1 when unreachable. With
/// max_depth >= 0 the search stops after that many levels (k-hop).
std::vector<std::int64_t> ref_bfs(const RefGraph& g, std::uint32_t root,
                                  int max_depth = -1);

/// Dijkstra distances over weighted out-edges; kUnreached when unreachable.
std::vector<double> ref_dijkstra(const RefGraph& g, std::uint32_t root);

/// Weakly connected components: representative (smallest member id) per
/// vertex.
std::vector<std::uint32_t> ref_components(const RefGraph& g);

/// Core numbers over the undirected multigraph degree (out + in arcs).
std::vector<std::int64_t> ref_cores(const RefGraph& g);

/// out-degree + in-degree per vertex, counted over the out-arcs.
std::vector<std::int64_t> ref_degrees(const RefGraph& g);

/// Triangles of the simple undirected graph underlying g (self loops and
/// parallel or reciprocal arcs collapse to one edge).
std::uint64_t ref_triangles(const RefGraph& g);

// ---- checkers ----

/// `got` holds the kDepth column: reachable vertices carry their depth,
/// unreachable ones were never written (0). `reached` is the operation's
/// reported vertex count.
std::string check_bfs(const std::vector<std::int64_t>& ref,
                      const std::vector<std::int64_t>& got,
                      std::uint64_t reached);

/// `got` holds the kDistance column; distances must match bit for bit.
std::string check_dijkstra(const std::vector<double>& ref,
                           const std::vector<double>& got,
                           std::uint64_t reached);

/// `got` holds the kLabel column; compared as a partition.
std::string check_partition(const std::vector<std::uint32_t>& ref,
                            const std::vector<std::int64_t>& got);

/// Exact per-vertex comparison (kCore, kDegree).
std::string check_exact(const char* what, const std::vector<std::int64_t>& ref,
                        const std::vector<std::int64_t>& got);

std::string check_total(const char* what, std::uint64_t ref,
                        std::uint64_t got);

/// The BFS-shaped checksum the program's BFS and k-hop report:
/// reached * 1000003 + sum of depths.
std::uint64_t bfs_checksum(const std::vector<std::int64_t>& depth,
                           std::uint64_t* reached);

/// A pager can hold at most its own frames: misses that did not evict a
/// page (frames in use) may never exceed the pool's pages.
std::string check_pool_frames(std::uint64_t misses, std::uint64_t evictions,
                              std::uint64_t pool_pages);

// ---- serving ----

/// One mutation of the live graph, as the program's churn driver records
/// it (the serving workload converts graph::ChurnOp into this).
struct MirrorOp {
  enum class Kind { kAddVertex, kAddEdge, kDeleteEdge, kDeleteVertex };
  Kind kind = Kind::kAddEdge;
  std::uint64_t a = 0, b = 0;
  double weight = 1.0;
};

/// The benchmark's own copy of the live graph: set-semantics adjacency by
/// vertex id, mutated by replaying the recorded churn ops.
class Mirror {
 public:
  Mirror(std::uint64_t num_vertices, bool directed,
         const std::vector<std::pair<std::uint32_t, std::uint32_t>>& edges,
         const std::vector<double>& weights);

  /// Applies one op with the live graph's rules; true when accepted.
  bool apply(const MirrorOp& op);

  bool alive(std::uint64_t v) const { return v < alive_.size() && alive_[v] != 0; }
  std::uint64_t arcs() const { return arcs_; }

  /// The current graph in CSR form, directed, one arc per stored arc.
  RefGraph to_ref() const;

 private:
  bool erase_out(std::uint32_t a, std::uint32_t b);

  std::vector<std::vector<std::pair<std::uint32_t, double>>> out_;
  std::vector<std::vector<std::uint32_t>> in_;  // sources, one per arc
  std::vector<std::uint8_t> alive_;
  std::uint64_t arcs_ = 0;
};

/// A batch's replayed ops must be accepted exactly as often as the
/// program reported applying them.
std::string check_replay(std::uint64_t batch, std::uint64_t applied,
                         std::uint64_t accepted);

enum class Query { kBfs, kKHop, kSPath, kDCentr };

/// Expected (checksum, vertices) of one request on the mirror's graph;
/// `ref` must be mirror.to_ref() unless the query is DCentr.
std::pair<std::uint64_t, std::uint64_t> expected_answer(
    Query kind, std::uint64_t root, int khop, const Mirror& mirror,
    const RefGraph& ref);

/// Compares a request's reported checksum and vertex count with the
/// expected pair (a DCentr answer reports no vertex count).
std::string check_answer(Query kind, std::pair<std::uint64_t, std::uint64_t> want,
                         std::uint64_t checksum, std::uint64_t vertices);

/// The closed loop's bookkeeping: every issued request was admitted or
/// shed, every admitted one completed, and each left one record.
std::string check_serving_counts(std::uint64_t issued, std::uint64_t submitted,
                                 std::uint64_t shed, std::uint64_t completed,
                                 std::uint64_t records);

}  // namespace perfbench
