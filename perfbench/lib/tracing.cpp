// perfbench/lib/tracing.cpp
#include "lib/tracing.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "lib/stats.hpp"

namespace perfbench {

LayerTracer::LayerTracer(bool enabled)
    : enabled_(enabled), epoch_(now_s()) {}

LayerTracer::Child::Child(LayerTracer& t, int tid_, std::uint64_t op_,
                          const char* layer_)
    : tracer(t), tid(tid_), op(op_), layer(layer_), start(now_s()) {}

LayerTracer::Child::~Child() { tracer.child(tid, op, layer, start, now_s()); }

void LayerTracer::record(int tid, std::uint64_t op, const char* name,
                         const char* cat, double start, double end) {
  rec_.span(banger::obs::Domain::Wall, kTrack, tid, start - epoch_,
            end - epoch_, name, cat, "\"op\": " + std::to_string(op));
}

void LayerTracer::child(int tid, std::uint64_t op, const char* layer,
                        double start, double end) {
  record(tid, op, layer, "layer", start, end);
  const std::lock_guard<std::mutex> lock(mu_);
  pending_[tid].emplace_back(layer, end - start);
}

void LayerTracer::op(int tid, std::uint64_t op, const char* name,
                     double start, double end) {
  if (!enabled_) return;
  record(tid, op, name, "op", start, end);
  const std::lock_guard<std::mutex> lock(mu_);
  double children = 0.0;
  auto& pending = pending_[tid];
  for (const auto& [layer, seconds] : pending) {
    Row& row = self_[layer];
    row.layer = layer;
    row.total_s += seconds;
    ++row.count;
    children += seconds;
  }
  pending.clear();
  ++ops_;
  op_wall_s_ += end - start;
  unattributed_s_ += (end - start) - children;
}

void LayerTracer::span(int tid, std::uint64_t op, const char* name,
                       double start, double end) {
  if (!enabled_) return;
  record(tid, op, name, "layer", start, end);
  const std::lock_guard<std::mutex> lock(mu_);
  Row& row = standalone_[name];
  row.layer = name;
  row.total_s += end - start;
  ++row.count;
}

std::vector<LayerTracer::Row> LayerTracer::self_rows() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<Row> rows;
  for (const auto& [name, row] : self_) rows.push_back(row);
  return rows;
}

std::vector<LayerTracer::Row> LayerTracer::standalone_rows() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<Row> rows;
  for (const auto& [name, row] : standalone_) rows.push_back(row);
  return rows;
}

std::uint64_t LayerTracer::ops() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return ops_;
}

double LayerTracer::op_wall_s() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return op_wall_s_;
}

double LayerTracer::unattributed_s() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return unattributed_s_;
}

double LayerTracer::self_ms_per_op(const std::string& layer) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = self_.find(layer);
  if (it == self_.end() || ops_ == 0) return 0.0;
  return it->second.total_s * 1e3 / static_cast<double>(ops_);
}

double LayerTracer::standalone_ms_mean(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = standalone_.find(name);
  if (it == standalone_.end() || it->second.count == 0) return 0.0;
  return it->second.total_s * 1e3 / static_cast<double>(it->second.count);
}

std::string LayerTracer::table() const {
  const auto rows = self_rows();
  const double n = static_cast<double>(std::max<std::uint64_t>(ops(), 1));
  const double wall = op_wall_s();
  std::string out;
  char buf[160];
  std::snprintf(buf, sizeof buf, "# %-22s %12s %8s\n", "layer (self time)",
                "ms/op", "share");
  out += buf;
  auto line = [&](const std::string& name, double total_s) {
    std::snprintf(buf, sizeof buf, "# %-22s %12.4f %7.2f%%\n", name.c_str(),
                  total_s * 1e3 / n, wall > 0 ? 100.0 * total_s / wall : 0.0);
    out += buf;
  };
  for (const Row& row : rows) line(row.layer, row.total_s);
  line("unattributed", unattributed_s());
  line("= op wall", wall);
  const auto extra = standalone_rows();
  if (!extra.empty()) {
    std::snprintf(buf, sizeof buf, "# %-22s %12s %8s\n", "outside ops",
                  "ms/call", "calls");
    out += buf;
    for (const Row& row : extra) {
      std::snprintf(buf, sizeof buf, "# %-22s %12.4f %8llu\n",
                    row.layer.c_str(),
                    row.total_s * 1e3 / static_cast<double>(row.count),
                    static_cast<unsigned long long>(row.count));
      out += buf;
    }
  }
  return out;
}

bool LayerTracer::write_perfetto(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << rec_.to_chrome_json();
  return static_cast<bool>(out);
}

}  // namespace perfbench
