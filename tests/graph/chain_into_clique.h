#ifndef FRAPPE_TESTS_GRAPH_CHAIN_INTO_CLIQUE_H_
#define FRAPPE_TESTS_GRAPH_CHAIN_INTO_CLIQUE_H_

#include <vector>

#include "graph/graph_store.h"

namespace frappe::graph::testing {

// A long sparse chain into a dense clique: chain[0] -> ... -> chain[7],
// whose last node links to each of 120 clique nodes, and every clique node
// has 8 out-edges inside the clique. An out-direction run from chain[0]
// sees a one-node frontier for seven levels, then the whole clique in one.
struct ChainIntoClique {
  GraphStore store;
  TypeId edge_type;
  std::vector<NodeId> chain;
  std::vector<NodeId> clique;
};

inline ChainIntoClique MakeChainIntoClique() {
  constexpr size_t kChain = 8, kClique = 120;
  ChainIntoClique g;
  TypeId nt = g.store.InternNodeType("n");
  g.edge_type = g.store.InternEdgeType("e");
  for (size_t i = 0; i < kChain; ++i) g.chain.push_back(g.store.AddNode(nt));
  for (size_t i = 0; i < kClique; ++i) {
    g.clique.push_back(g.store.AddNode(nt));
  }
  for (size_t i = 1; i < kChain; ++i) {
    g.store.AddEdge(g.chain[i - 1], g.chain[i], g.edge_type);
  }
  for (NodeId c : g.clique) g.store.AddEdge(g.chain.back(), c, g.edge_type);
  for (NodeId a : g.clique) {
    for (size_t j = 0; j < 8; ++j) {
      g.store.AddEdge(a, g.clique[(a * 13 + j * 7) % kClique], g.edge_type);
    }
  }
  return g;
}

}  // namespace frappe::graph::testing

#endif  // FRAPPE_TESTS_GRAPH_CHAIN_INTO_CLIQUE_H_
