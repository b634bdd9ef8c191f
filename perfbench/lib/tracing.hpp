// perfbench/lib/tracing.hpp
//
// Layer attribution from outside the library. Every call the benchmark
// makes into a layer's public function can be wrapped in a Wall-domain
// span on an obs::TraceRecorder; the spans of one op carry the op's id
// and nest inside the op span, which is their parent. Spans stay in
// memory and are written as a Perfetto (Chrome trace-event) JSON file
// when the run ends.
//
// A layer's self time is its span's duration; the layer calls of one
// op are sequential and never nest, so the op's `unattributed` time is
// its wall time minus the sum of its children, and the rows of the
// per-layer table add up to the op wall time by construction.
//
// With tracing off, call() is a plain function call.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

class LayerTracer {
 public:
  explicit LayerTracer(bool enabled);
  LayerTracer(const LayerTracer&) = delete;
  LayerTracer& operator=(const LayerTracer&) = delete;

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Runs `fn`, inside a child span `layer` of op `op` on track `tid`
  /// when tracing is on.
  template <class F>
  decltype(auto) call(int tid, std::uint64_t op, const char* layer, F&& fn) {
    if (!enabled_) return fn();
    const Child child(*this, tid, op, layer);
    return fn();
  }

  /// Closes op `op` on track `tid`: records its span and folds the
  /// children recorded on that track since the previous op into the
  /// per-layer self-time totals.
  void op(int tid, std::uint64_t op, const char* name, double start,
          double end);

  /// A span that is not a child of an op (replays, push waits). Its
  /// totals are reported per layer, apart from op attribution.
  void span(int tid, std::uint64_t op, const char* name, double start,
            double end);

  struct Row {
    std::string layer;
    double total_s = 0.0;
    std::uint64_t count = 0;
  };
  /// Per-layer self time of op children, sorted by layer name.
  [[nodiscard]] std::vector<Row> self_rows() const;
  /// Totals of standalone spans, sorted by name.
  [[nodiscard]] std::vector<Row> standalone_rows() const;
  [[nodiscard]] std::uint64_t ops() const;
  [[nodiscard]] double op_wall_s() const;
  [[nodiscard]] double unattributed_s() const;

  /// Mean per-op self time of `layer` in milliseconds (0 if never seen).
  [[nodiscard]] double self_ms_per_op(const std::string& layer) const;
  /// Mean duration of standalone spans named `name` (0 if none).
  [[nodiscard]] double standalone_ms_mean(const std::string& name) const;

  /// The per-layer table: one row per layer plus `unattributed`, each
  /// as mean ms per op and share of op wall time.
  [[nodiscard]] std::string table() const;

  /// Writes the Perfetto JSON; returns false if the file cannot be
  /// written.
  bool write_perfetto(const std::string& path) const;

 private:
  struct Child {
    Child(LayerTracer& t, int tid, std::uint64_t op, const char* layer);
    ~Child();
    Child(const Child&) = delete;
    Child& operator=(const Child&) = delete;
    LayerTracer& tracer;
    int tid;
    std::uint64_t op;
    const char* layer;
    double start;
  };
  void child(int tid, std::uint64_t op, const char* layer, double start,
             double end);
  void record(int tid, std::uint64_t op, const char* name, const char* cat,
              double start, double end);

  /// Chrome-trace pid of the benchmark's spans, apart from the tracks
  /// the library itself records on.
  static constexpr int kTrack = 8;

  const bool enabled_;
  const double epoch_;  ///< now_s() at construction: span time zero
  banger::obs::TraceRecorder rec_;
  mutable std::mutex mu_;  // guards everything below
  std::map<int, std::vector<std::pair<std::string, double>>> pending_;
  std::map<std::string, Row> self_;
  std::map<std::string, Row> standalone_;
  std::uint64_t ops_ = 0;
  double op_wall_s_ = 0.0;
  double unattributed_s_ = 0.0;
};

}  // namespace perfbench
