// Social-network triad census: distributed triangle listing on a
// community-structured (stochastic block model) graph.
//
// Triangle counts per community are the classic "triadic closure" signal
// in network science. Here each simulated node learns the triangles it is
// part of via the paper's machinery at p = 3 (structurally the
// Chang–Pettie–Zhang lister the paper builds on), and we aggregate a
// per-community census — all from node-local outputs, as a real
// distributed deployment would.
//
//   ./example_social_triangles [communities] [community_size]
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "baselines/baselines.h"
#include "enumeration/clique_enumeration.h"
#include "graph/generators.h"

int main(int argc, char** argv) {
  using namespace dcl;
  const int communities = (argc > 1) ? std::atoi(argv[1]) : 4;
  const NodeId size = (argc > 2) ? std::atoi(argv[2]) : 60;

  Rng rng(7);
  std::vector<NodeId> blocks(static_cast<std::size_t>(communities), size);
  const Graph g = stochastic_block_model(blocks, 0.30, 0.02, rng);
  std::printf("social graph: %d communities x %d members, m=%lld\n",
              communities, size, static_cast<long long>(g.edge_count()));

  ListingOutput out(g.node_count());
  const auto result = chang_style_triangle_list(g, out, /*seed=*/7);
  std::printf("distributed triangle listing: %llu triangles in %.1f rounds\n",
              static_cast<unsigned long long>(out.unique_count()),
              result.total_rounds());

  // Census: classify each triangle by how many communities it spans.
  auto community_of = [&](NodeId v) { return static_cast<int>(v / size); };
  std::vector<std::uint64_t> span_count(4, 0);
  std::vector<std::uint64_t> per_community(
      static_cast<std::size_t>(communities), 0);
  for (const auto& tri : out.cliques().to_vector()) {
    const int a = community_of(tri[0]);
    const int b = community_of(tri[1]);
    const int c = community_of(tri[2]);
    int distinct = 1 + (b != a) + (c != a && c != b);
    ++span_count[static_cast<std::size_t>(distinct)];
    if (distinct == 1) ++per_community[static_cast<std::size_t>(a)];
  }
  std::printf("\ntriad census:\n");
  std::printf("  intra-community triangles: %llu\n",
              static_cast<unsigned long long>(span_count[1]));
  std::printf("  spanning 2 communities:    %llu\n",
              static_cast<unsigned long long>(span_count[2]));
  std::printf("  spanning 3 communities:    %llu\n",
              static_cast<unsigned long long>(span_count[3]));
  for (int c = 0; c < communities; ++c) {
    std::printf("  community %d closes %llu triads\n", c,
                static_cast<unsigned long long>(
                    per_community[static_cast<std::size_t>(c)]));
  }

  // Sanity: the distributed census equals the centralized one.
  const auto truth = count_k_cliques(g, 3);
  std::printf("\ncentralized check: %llu triangles — %s\n",
              static_cast<unsigned long long>(truth),
              truth == out.unique_count() ? "match" : "MISMATCH");
  return truth == out.unique_count() ? 0 : 1;
}
