#ifndef RAQLET_ENGINE_GRAPH_GRAPH_STORE_H_
#define RAQLET_ENGINE_GRAPH_GRAPH_STORE_H_

// In-memory property-graph store: label-partitioned nodes with property
// lookup by id, and forward/backward adjacency lists per edge type. Built
// from the same Database the other engines query, so all three paradigms
// see identical data (the Neo4j stand-in's substrate; see
// docs/architecture.md, "The three engines").
//
// The store is immutable after Build and holds no locks: the graph
// executor (either binding-table mode, see engine/graph/executor.h) only
// ever reads it. Property values are read straight out of the source
// Database's columnar relation storage, not copied — an edge is
// identified across the engine by its row index in the edge relation
// (Neighbor::edge_row), which is also how edge property access and
// edge-id binding resolve (zero-copy column borrows via EdgeColumn).

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "schema/dl_schema.h"
#include "storage/database.h"

namespace raqlet::engine {

class GraphStore {
 public:
  /// Builds the store from the EDB relations described by `dl`. The
  /// database must outlive the store (property tuples are referenced, not
  /// copied).
  static Result<GraphStore> Build(const schema::DlSchema& dl,
                                  const Database& db);

  struct Neighbor {
    int64_t node = 0;        // neighbour node id
    uint32_t edge_row = 0;   // row index in the edge relation
  };

  /// Outgoing / incoming neighbours of `node` over `edge_label`
  /// (UPPER_SNAKE). Empty when the node has none. Neighbour lists are in
  /// edge-relation insertion order — the executors' deterministic emit
  /// order (bit-identical across binding-table modes) depends on it.
  const std::vector<Neighbor>& OutNeighbors(const std::string& edge_label,
                                            int64_t node) const;
  const std::vector<Neighbor>& InNeighbors(const std::string& edge_label,
                                           int64_t node) const;

  /// All node ids carrying `label`, in insertion order (the scan order of
  /// unbound node patterns, load-bearing for determinism like the above).
  const std::vector<int64_t>& NodesWithLabel(const std::string& label) const;

  bool HasLabel(const std::string& label, int64_t node) const;

  /// Property of a node, or error if the node/property is unknown.
  Result<Value> NodeProperty(const std::string& label, int64_t node,
                             const std::string& property) const;

  /// Property of an edge identified by its row in the edge relation.
  Result<Value> EdgeProperty(const std::string& edge_label, uint32_t edge_row,
                             const std::string& property) const;

  /// Zero-copy view of one column of the edge relation (used to bind edge
  /// ids for a whole expansion without materializing row tuples). Valid
  /// until the underlying relation is next mutated — i.e. for the full
  /// lifetime of a query against an immutable store.
  Result<Relation::ColumnView> EdgeColumn(const std::string& edge_label,
                                          int col) const;

  size_t NodeCount() const { return total_nodes_; }
  size_t EdgeCount() const { return total_edges_; }

 private:
  struct LabelData {
    const schema::NodeRelationInfo* info = nullptr;
    const Relation* relation = nullptr;
    std::vector<int64_t> node_ids;
    std::unordered_map<int64_t, uint32_t> row_of;  // node id -> row index
  };
  struct EdgeData {
    const schema::EdgeRelationInfo* info = nullptr;
    const Relation* relation = nullptr;
    std::unordered_map<int64_t, std::vector<Neighbor>> forward;
    std::unordered_map<int64_t, std::vector<Neighbor>> backward;
  };

  std::map<std::string, LabelData> labels_;
  std::map<std::string, EdgeData> edges_;  // keyed by UPPER_SNAKE label
  size_t total_nodes_ = 0;
  size_t total_edges_ = 0;
};

}  // namespace raqlet::engine

#endif  // RAQLET_ENGINE_GRAPH_GRAPH_STORE_H_
