// banger/graph/task_graph.hpp
//
// The flattened, leaf-level task DAG that scheduling, simulation, and
// execution operate on. Flattening a hierarchical Design (design.hpp)
// expands supernodes and converts storage nodes into direct task->task
// data dependences, so a TaskGraph contains only primitive tasks and
// weighted communication edges.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/error.hpp"

namespace banger::graph {

using TaskId = std::uint32_t;
using EdgeId = std::uint32_t;
inline constexpr TaskId kNoTask = static_cast<TaskId>(-1);

/// A primitive task after flattening.
struct Task {
  /// Fully-qualified name ("root.solve.f121"), unique in the TaskGraph.
  std::string name;
  /// Work estimate in abstract units.
  double work = 1.0;
  /// PITS source for the body (may be empty for skeleton designs).
  std::string pits;
  /// Variables consumed / produced, in declaration order.
  std::vector<std::string> inputs;
  std::vector<std::string> outputs;

  /// Source location of the originating node directive in the `.pitl`
  /// file ({0,0} for programmatic designs), the file line of the first
  /// PITS body line (0 when unknown), and the indentation stripped from
  /// the pits block. Carried through flattening so diagnostics can point
  /// at real locations.
  SourcePos pos;
  int pits_line = 0;
  int pits_indent = 0;
};

/// Maps a position inside `task`'s routine to file coordinates: the
/// routine starts on file line `pits_line`, indented by `pits_indent`.
/// Invalid positions, and any position when `pits_line` is 0 (designs
/// built in code), stay unchanged. Every report about a routine — check
/// diagnostics, parse and run-time errors — goes through this one rule.
[[nodiscard]] inline SourcePos routine_to_file(const Task& task,
                                               SourcePos pos) {
  if (!pos.valid() || task.pits_line <= 0) return pos;
  return {task.pits_line + pos.line - 1, pos.column + task.pits_indent};
}

/// A data dependence: `to` may not start before `from` finishes, and if
/// they run on different processors, `bytes` of data must be shipped.
struct Edge {
  TaskId from = kNoTask;
  TaskId to = kNoTask;
  double bytes = 0.0;
  /// Variable name(s) carried, comma-joined when several stores merge.
  std::string var;
};

/// Contiguous, read-only view over one task's edge ids inside the CSR
/// adjacency arena. Iterates in the same order the old per-task vectors
/// did (ascending edge id == first-insertion order), so every consumer's
/// tie-breaking is unchanged.
class EdgeSpan {
 public:
  using value_type = EdgeId;
  using const_iterator = const EdgeId*;

  constexpr EdgeSpan() noexcept = default;
  constexpr EdgeSpan(const EdgeId* data, std::size_t size) noexcept
      : data_(data), size_(size) {}

  [[nodiscard]] constexpr const_iterator begin() const noexcept {
    return data_;
  }
  [[nodiscard]] constexpr const_iterator end() const noexcept {
    return data_ + size_;
  }
  [[nodiscard]] constexpr std::size_t size() const noexcept { return size_; }
  [[nodiscard]] constexpr bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] constexpr EdgeId operator[](std::size_t i) const noexcept {
    return data_[i];
  }
  [[nodiscard]] constexpr EdgeId front() const noexcept { return data_[0]; }
  [[nodiscard]] constexpr EdgeId back() const noexcept {
    return data_[size_ - 1];
  }

 private:
  const EdgeId* data_ = nullptr;
  std::size_t size_ = 0;
};

/// Immutable-after-build DAG of primitive tasks. Parallel edges between
/// the same task pair are merged at insert time (their byte counts add:
/// two distinct variables both have to travel).
///
/// Adjacency lives in a flat CSR arena (one edge-id array + per-task
/// offsets per direction) instead of a vector-of-vectors, so building
/// and walking 10^5-10^6-task graphs costs two large allocations rather
/// than one per task. The arena is rebuilt lazily: add_edge marks it
/// stale, the first adjacency query rebuilds it in O(V + E).
class TaskGraph {
 public:
  TaskGraph() = default;
  // The lazily-built arena carries an atomic flag and a mutex, so the
  // copy/move operations are spelled out: copies drop the arena (it is
  // rebuilt on first query), moves carry it over.
  TaskGraph(const TaskGraph& other);
  TaskGraph& operator=(const TaskGraph& other);
  TaskGraph(TaskGraph&& other) noexcept;
  TaskGraph& operator=(TaskGraph&& other) noexcept;
  ~TaskGraph() = default;

  TaskId add_task(Task task);

  /// Adds (or merges into an existing) edge. Endpoints must exist and
  /// differ.
  EdgeId add_edge(TaskId from, TaskId to, double bytes, std::string var = {});

  /// Pre-sizes the task/edge arrays (builders that know their final
  /// shape avoid reallocation churn; purely an optimisation).
  void reserve(std::size_t tasks, std::size_t edges);

  [[nodiscard]] std::size_t num_tasks() const noexcept { return tasks_.size(); }
  [[nodiscard]] std::size_t num_edges() const noexcept { return edges_.size(); }

  [[nodiscard]] const Task& task(TaskId id) const;
  [[nodiscard]] Task& task(TaskId id);
  [[nodiscard]] const Edge& edge(EdgeId id) const;
  [[nodiscard]] const std::vector<Task>& tasks() const noexcept { return tasks_; }
  [[nodiscard]] const std::vector<Edge>& edges() const noexcept { return edges_; }

  [[nodiscard]] std::optional<TaskId> find(const std::string& name) const;
  [[nodiscard]] TaskId require(const std::string& name) const;

  /// Edge ids entering / leaving a task, in ascending edge-id order
  /// (identical to the historical per-task insertion order). The view
  /// stays valid until the next add_edge.
  [[nodiscard]] EdgeSpan in_edges(TaskId id) const;
  [[nodiscard]] EdgeSpan out_edges(TaskId id) const;

  /// Predecessor / successor task ids (derived from edges).
  [[nodiscard]] std::vector<TaskId> preds(TaskId id) const;
  [[nodiscard]] std::vector<TaskId> succs(TaskId id) const;

  /// Tasks with no predecessors / successors.
  [[nodiscard]] std::vector<TaskId> sources() const;
  [[nodiscard]] std::vector<TaskId> sinks() const;

  /// Deterministic topological order; throws Error{Graph} if cyclic.
  [[nodiscard]] std::vector<TaskId> topo_order() const;
  [[nodiscard]] bool is_acyclic() const;

  /// Sum of all task work.
  [[nodiscard]] double total_work() const noexcept;
  /// Sum of all edge bytes.
  [[nodiscard]] double total_bytes() const noexcept;

 private:
  /// Rebuilds the CSR arrays from edges_ (counting sort by endpoint;
  /// edge ids come out ascending per task). Thread-safe: concurrent
  /// readers of an unbuilt arena serialise on a mutex behind a
  /// double-checked atomic flag, so parallel schedulers may share one
  /// graph (mutation remains single-threaded, as before).
  void ensure_adjacency() const;

  std::vector<Task> tasks_;
  std::vector<Edge> edges_;
  std::unordered_map<std::string, TaskId> by_name_;
  // Merge map for parallel edges: (from,to) -> edge id.
  std::unordered_map<std::uint64_t, EdgeId> edge_index_;

  // CSR adjacency arena, rebuilt lazily (mutable: queries are logically
  // const). offsets have num_tasks()+1 entries; ids hold each edge id
  // once per direction.
  mutable std::vector<std::uint32_t> in_offsets_;
  mutable std::vector<std::uint32_t> out_offsets_;
  mutable std::vector<EdgeId> in_ids_;
  mutable std::vector<EdgeId> out_ids_;
  mutable std::atomic<bool> adjacency_valid_{false};
  mutable std::mutex adjacency_mutex_;
};

}  // namespace banger::graph
