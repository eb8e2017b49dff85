#include "reference.h"

#include <algorithm>
#include <deque>
#include <functional>
#include <numeric>
#include <queue>
#include <sstream>
#include <unordered_map>

namespace perfbench {

RefGraph RefGraph::from_edges(
    std::uint64_t num_vertices, bool directed,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& edges,
    const std::vector<double>& weights) {
  RefGraph g;
  g.n = static_cast<std::uint32_t>(num_vertices);
  struct Arc {
    std::uint32_t s, d;
    double w;
  };
  std::vector<Arc> arcs;
  arcs.reserve(edges.size() * (directed ? 1 : 2));
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const double w = weights.empty() ? 1.0 : weights[i];
    arcs.push_back({edges[i].first, edges[i].second, w});
    if (!directed) arcs.push_back({edges[i].second, edges[i].first, w});
  }
  g.out_ptr.assign(g.n + 1, 0);
  g.in_ptr.assign(g.n + 1, 0);
  for (const Arc& a : arcs) {
    ++g.out_ptr[a.s + 1];
    ++g.in_ptr[a.d + 1];
  }
  std::partial_sum(g.out_ptr.begin(), g.out_ptr.end(), g.out_ptr.begin());
  std::partial_sum(g.in_ptr.begin(), g.in_ptr.end(), g.in_ptr.begin());
  g.out_dst.resize(arcs.size());
  g.out_w.resize(arcs.size());
  g.in_src.resize(arcs.size());
  std::vector<std::uint64_t> oc(g.out_ptr.begin(), g.out_ptr.end() - 1);
  std::vector<std::uint64_t> ic(g.in_ptr.begin(), g.in_ptr.end() - 1);
  for (const Arc& a : arcs) {
    g.out_dst[oc[a.s]] = a.d;
    g.out_w[oc[a.s]++] = a.w;
    g.in_src[ic[a.d]++] = a.s;
  }
  return g;
}

std::vector<std::int64_t> ref_bfs(const RefGraph& g, std::uint32_t root,
                                  int max_depth) {
  std::vector<std::int64_t> depth(g.n, -1);
  if (root >= g.n) return depth;
  std::deque<std::uint32_t> queue{root};
  depth[root] = 0;
  while (!queue.empty()) {
    const std::uint32_t u = queue.front();
    queue.pop_front();
    if (max_depth >= 0 && depth[u] >= max_depth) continue;
    for (std::uint64_t e = g.out_ptr[u]; e < g.out_ptr[u + 1]; ++e) {
      const std::uint32_t v = g.out_dst[e];
      if (depth[v] < 0) {
        depth[v] = depth[u] + 1;
        queue.push_back(v);
      }
    }
  }
  return depth;
}

std::vector<double> ref_dijkstra(const RefGraph& g, std::uint32_t root) {
  std::vector<double> dist(g.n, kUnreached);
  if (root >= g.n) return dist;
  using Entry = std::pair<double, std::uint32_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  dist[root] = 0.0;
  heap.emplace(0.0, root);
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > dist[u]) continue;
    for (std::uint64_t e = g.out_ptr[u]; e < g.out_ptr[u + 1]; ++e) {
      const double nd = d + g.out_w[e];
      const std::uint32_t v = g.out_dst[e];
      if (nd < dist[v]) {
        dist[v] = nd;
        heap.emplace(nd, v);
      }
    }
  }
  return dist;
}

std::vector<std::uint32_t> ref_components(const RefGraph& g) {
  std::vector<std::uint32_t> parent(g.n);
  std::iota(parent.begin(), parent.end(), 0u);
  auto find = [&](std::uint32_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (std::uint32_t u = 0; u < g.n; ++u) {
    for (std::uint64_t e = g.out_ptr[u]; e < g.out_ptr[u + 1]; ++e) {
      const std::uint32_t a = find(u), b = find(g.out_dst[e]);
      // Union by smaller root keeps each root the smallest member id.
      if (a < b) {
        parent[b] = a;
      } else if (b < a) {
        parent[a] = b;
      }
    }
  }
  std::vector<std::uint32_t> rep(g.n);
  for (std::uint32_t v = 0; v < g.n; ++v) rep[v] = find(v);
  return rep;
}

std::vector<std::int64_t> ref_cores(const RefGraph& g) {
  // Batagelj & Zaversnik: vertices bin-sorted by degree, processed in
  // ascending order; a neighbor above the current degree moves down one
  // bin.
  const std::uint32_t n = g.n;
  std::vector<std::int64_t> deg = ref_degrees(g);
  std::int64_t max_deg = 0;
  for (const auto d : deg) max_deg = std::max(max_deg, d);
  std::vector<std::uint32_t> bin(static_cast<std::size_t>(max_deg) + 2, 0);
  for (const auto d : deg) ++bin[static_cast<std::size_t>(d)];
  std::uint32_t start = 0;
  for (auto& b : bin) {
    const std::uint32_t count = b;
    b = start;
    start += count;
  }
  std::vector<std::uint32_t> vert(n), pos(n);
  for (std::uint32_t v = 0; v < n; ++v) {
    pos[v] = bin[static_cast<std::size_t>(deg[v])]++;
    vert[pos[v]] = v;
  }
  for (std::size_t d = bin.size() - 1; d > 0; --d) bin[d] = bin[d - 1];
  bin[0] = 0;
  auto lower = [&](std::uint32_t v, std::uint32_t u) {
    if (deg[u] <= deg[v]) return;
    const auto du = static_cast<std::size_t>(deg[u]);
    const std::uint32_t pu = pos[u];
    const std::uint32_t pw = bin[du];
    const std::uint32_t w = vert[pw];
    if (u != w) {
      pos[u] = pw;
      vert[pu] = w;
      pos[w] = pu;
      vert[pw] = u;
    }
    ++bin[du];
    --deg[u];
  };
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t v = vert[i];
    for (std::uint64_t e = g.out_ptr[v]; e < g.out_ptr[v + 1]; ++e) {
      lower(v, g.out_dst[e]);
    }
    for (std::uint64_t e = g.in_ptr[v]; e < g.in_ptr[v + 1]; ++e) {
      lower(v, g.in_src[e]);
    }
  }
  return deg;
}

std::vector<std::int64_t> ref_degrees(const RefGraph& g) {
  // Counted arc by arc rather than read off the row offsets, so the
  // in-degrees do not come from in_ptr, and the work is one pass over the
  // arcs like the program's.
  std::vector<std::int64_t> deg(g.n, 0);
  for (std::uint32_t u = 0; u < g.n; ++u) {
    for (std::uint64_t i = g.out_ptr[u]; i < g.out_ptr[u + 1]; ++i) {
      ++deg[u];
      ++deg[g.out_dst[i]];
    }
  }
  return deg;
}

std::uint64_t ref_triangles(const RefGraph& g) {
  const std::uint32_t n = g.n;
  // Simple undirected neighbor sets.
  std::vector<std::vector<std::uint32_t>> nbr(n);
  for (std::uint32_t u = 0; u < n; ++u) {
    for (std::uint64_t e = g.out_ptr[u]; e < g.out_ptr[u + 1]; ++e) {
      const std::uint32_t v = g.out_dst[e];
      if (v == u) continue;
      nbr[u].push_back(v);
      nbr[v].push_back(u);
    }
  }
  for (auto& list : nbr) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }
  // Orient each edge from lower to higher (degree, id) rank, then count
  // each triangle once at its lowest-ranked corner with a marker array.
  auto before = [&](std::uint32_t a, std::uint32_t b) {
    return nbr[a].size() != nbr[b].size() ? nbr[a].size() < nbr[b].size()
                                          : a < b;
  };
  std::vector<std::vector<std::uint32_t>> fwd(n);
  for (std::uint32_t u = 0; u < n; ++u) {
    for (const std::uint32_t v : nbr[u]) {
      if (before(u, v)) fwd[u].push_back(v);
    }
  }
  std::vector<std::uint32_t> mark(n, ~0u);
  std::uint64_t total = 0;
  for (std::uint32_t u = 0; u < n; ++u) {
    for (const std::uint32_t v : fwd[u]) mark[v] = u;
    for (const std::uint32_t v : fwd[u]) {
      for (const std::uint32_t w : fwd[v]) {
        if (mark[w] == u) ++total;
      }
    }
  }
  return total;
}

namespace {

template <typename T>
std::string at_vertex(const char* what, std::size_t v, const T& want,
                      const T& got) {
  std::ostringstream os;
  os.precision(17);
  os << what << ": vertex " << v << " expected " << want << " got " << got;
  return os.str();
}

}  // namespace

std::string check_bfs(const std::vector<std::int64_t>& ref,
                      const std::vector<std::int64_t>& got,
                      std::uint64_t reached) {
  if (got.size() != ref.size()) return "bfs: row count differs";
  std::uint64_t want_reached = 0;
  for (std::size_t v = 0; v < ref.size(); ++v) {
    const std::int64_t want = ref[v] < 0 ? 0 : ref[v];
    if (ref[v] >= 0) ++want_reached;
    if (got[v] != want) return at_vertex("bfs depth", v, want, got[v]);
  }
  if (reached != want_reached) {
    return at_vertex("bfs reached", 0, want_reached, reached);
  }
  return "";
}

std::string check_dijkstra(const std::vector<double>& ref,
                           const std::vector<double>& got,
                           std::uint64_t reached) {
  if (got.size() != ref.size()) return "spath: row count differs";
  std::uint64_t want_reached = 0;
  for (std::size_t v = 0; v < ref.size(); ++v) {
    const bool reachable = ref[v] != kUnreached;
    const double want = reachable ? ref[v] : 0.0;
    if (reachable) ++want_reached;
    if (got[v] != want) return at_vertex("spath distance", v, want, got[v]);
  }
  if (reached != want_reached) {
    return at_vertex("spath reached", 0, want_reached, reached);
  }
  return "";
}

std::string check_partition(const std::vector<std::uint32_t>& ref,
                            const std::vector<std::int64_t>& got) {
  if (got.size() != ref.size()) return "ccomp: row count differs";
  std::unordered_map<std::uint32_t, std::int64_t> label_of;
  std::unordered_map<std::int64_t, std::uint32_t> rep_of;
  for (std::size_t v = 0; v < ref.size(); ++v) {
    const auto [l, fresh_l] = label_of.emplace(ref[v], got[v]);
    if (l->second != got[v]) {
      return at_vertex("ccomp label (split component)", v, l->second, got[v]);
    }
    const auto [r, fresh_r] = rep_of.emplace(got[v], ref[v]);
    if (r->second != ref[v]) {
      return at_vertex("ccomp label (merged components)", v, r->second,
                       ref[v]);
    }
  }
  return "";
}

std::string check_exact(const char* what, const std::vector<std::int64_t>& ref,
                        const std::vector<std::int64_t>& got) {
  if (got.size() != ref.size()) return std::string(what) + ": row count differs";
  for (std::size_t v = 0; v < ref.size(); ++v) {
    if (got[v] != ref[v]) return at_vertex(what, v, ref[v], got[v]);
  }
  return "";
}

std::string check_total(const char* what, std::uint64_t ref,
                        std::uint64_t got) {
  if (got == ref) return "";
  std::ostringstream os;
  os << what << ": expected " << ref << " got " << got;
  return os.str();
}

std::uint64_t bfs_checksum(const std::vector<std::int64_t>& depth,
                           std::uint64_t* reached) {
  std::uint64_t count = 0, sum = 0;
  for (const auto d : depth) {
    if (d < 0) continue;
    ++count;
    sum += static_cast<std::uint64_t>(d);
  }
  if (reached != nullptr) *reached = count;
  return count * 1000003u + sum;
}

std::string check_pool_frames(std::uint64_t misses, std::uint64_t evictions,
                              std::uint64_t pool_pages) {
  if (misses - evictions <= pool_pages) return "";
  std::ostringstream os;
  os << "pager: " << misses - evictions << " frames in use exceed the pool's "
     << pool_pages << " pages";
  return os.str();
}

Mirror::Mirror(std::uint64_t num_vertices, bool directed,
               const std::vector<std::pair<std::uint32_t, std::uint32_t>>& edges,
               const std::vector<double>& weights)
    : out_(num_vertices), in_(num_vertices), alive_(num_vertices, 1) {
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const double w = weights.empty() ? 1.0 : weights[i];
    const auto [s, d] = edges[i];
    out_[s].push_back({d, w});
    in_[d].push_back(s);
    if (!directed) {
      out_[d].push_back({s, w});
      in_[s].push_back(d);
    }
  }
  for (const auto& row : out_) arcs_ += row.size();
}

namespace {

void erase_one(std::vector<std::uint32_t>& row, std::uint32_t v) {
  auto it = std::find(row.begin(), row.end(), v);
  if (it != row.end()) row.erase(it);
}

}  // namespace

bool Mirror::apply(const MirrorOp& op) {
  using K = MirrorOp::Kind;
  const auto a = static_cast<std::uint32_t>(op.a);
  const auto b = static_cast<std::uint32_t>(op.b);
  switch (op.kind) {
    case K::kAddVertex:
      if (alive(a)) return false;
      if (a >= out_.size()) {
        out_.resize(a + 1);
        in_.resize(a + 1);
        alive_.resize(a + 1, 0);
      }
      alive_[a] = 1;
      return true;
    case K::kAddEdge:
      if (!alive(a) || !alive(b)) return false;
      for (const auto& e : out_[a]) {
        if (e.first == b) return false;
      }
      out_[a].push_back({b, op.weight});
      in_[b].push_back(a);
      ++arcs_;
      return true;
    case K::kDeleteEdge:
      if (!alive(a) || !alive(b) || !erase_out(a, b)) return false;
      erase_one(in_[b], a);
      return true;
    case K::kDeleteVertex:
      if (!alive(a)) return false;
      for (const auto& e : out_[a]) erase_one(in_[e.first], a);
      arcs_ -= out_[a].size();
      out_[a].clear();
      for (const std::uint32_t s : in_[a]) erase_out(s, a);
      in_[a].clear();
      alive_[a] = 0;
      return true;
  }
  return false;
}

bool Mirror::erase_out(std::uint32_t a, std::uint32_t b) {
  auto& row = out_[a];
  auto it = std::find_if(row.begin(), row.end(),
                         [&](const auto& e) { return e.first == b; });
  if (it == row.end()) return false;
  row.erase(it);
  --arcs_;
  return true;
}

RefGraph Mirror::to_ref() const {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  std::vector<double> weights;
  edges.reserve(arcs_);
  weights.reserve(arcs_);
  for (std::uint32_t u = 0; u < out_.size(); ++u) {
    for (const auto& [v, w] : out_[u]) {
      edges.emplace_back(u, v);
      weights.push_back(w);
    }
  }
  return RefGraph::from_edges(out_.size(), true, edges, weights);
}

std::string check_replay(std::uint64_t batch, std::uint64_t applied,
                         std::uint64_t accepted) {
  if (applied == accepted) return "";
  std::ostringstream os;
  os << "batch " << batch << " applied " << applied << " ops, mirror accepted "
     << accepted;
  return os.str();
}

std::pair<std::uint64_t, std::uint64_t> expected_answer(
    Query kind, std::uint64_t root, int khop, const Mirror& mirror,
    const RefGraph& ref) {
  // DCentr ignores the root; a rooted request on a deleted root is empty.
  if (kind == Query::kDCentr) return {2 * mirror.arcs(), 0};
  if (!mirror.alive(root)) return {0, 0};
  const auto r = static_cast<std::uint32_t>(root);
  std::uint64_t reached = 0;
  switch (kind) {
    case Query::kBfs: {
      const std::uint64_t sum = bfs_checksum(ref_bfs(ref, r), &reached);
      return {sum, reached};
    }
    case Query::kKHop: {
      const std::uint64_t sum = bfs_checksum(ref_bfs(ref, r, khop), &reached);
      return {sum, reached};
    }
    case Query::kSPath: {
      // The program folds distances in slot order; churn only appends
      // vertices with ascending ids, so slot order is id order here.
      double dist_sum = 0.0;
      for (const double d : ref_dijkstra(ref, r)) {
        if (d == kUnreached) continue;
        ++reached;
        dist_sum += d;
      }
      return {reached * 1000003u + static_cast<std::uint64_t>(dist_sum * 16.0), reached};
    }
    case Query::kDCentr:
      break;
  }
  return {0, 0};
}

std::string check_answer(Query kind, std::pair<std::uint64_t, std::uint64_t> want,
                         std::uint64_t checksum, std::uint64_t vertices) {
  if (checksum == want.first && (kind == Query::kDCentr || vertices == want.second)) {
    return "";
  }
  static constexpr const char* kNames[] = {"bfs", "khop", "spath", "dcentr"};
  std::ostringstream os;
  os << kNames[static_cast<int>(kind)] << " answered checksum " << checksum
     << " over " << vertices << " vertices, expected " << want.first << " over "
     << want.second;
  return os.str();
}

std::string check_serving_counts(std::uint64_t issued, std::uint64_t submitted,
                                 std::uint64_t shed, std::uint64_t completed,
                                 std::uint64_t records) {
  std::ostringstream os;
  if (submitted + shed != issued) {
    os << "submitted " << submitted << " + shed " << shed << " != issued " << issued;
  } else if (completed != submitted) {
    os << "completed " << completed << " != submitted " << submitted;
  } else if (records != completed) {
    os << "records " << records << " != completed " << completed;
  }
  return os.str();
}

}  // namespace perfbench
