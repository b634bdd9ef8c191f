// perfbench/lib/serve_mix.cpp
//
// serve_mix: two closed-loop client threads share one in-process
// serve::Server and call handle_line. Requests carry the 32x32 heat rod
// design (about 546 KB of `.pitl`), inline or by `design_ref` after an
// upload, over a seeded mix of schedule/check/trial/stream ops.
//
// Most requests repeat a small working set (kWorkingSet lines), so they
// are response-cache hits: today O(request) work, since the line is
// parsed and its payloads hashed before the cache is consulted. Every
// kMissEvery-th request of a client carries a freshly edited design, so
// it misses, parses, analyzes or schedules, and inserts into (and, past
// the cache capacity, evicts from) the same ArtifactCache.
#include <cstdio>
#include <exception>
#include <mutex>
#include <thread>

#include "lib/oracle.hpp"
#include "lib/workloads.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/strings.hpp"

namespace perfbench {
namespace {

constexpr int kSegments = 32;
constexpr int kSteps = 32;
constexpr int kCells = 4;
constexpr int kClients = 2;
constexpr int kMissEvery = 5;
constexpr int kStreamBatches = 4;
constexpr std::uint64_t kProbeEvery = 16;  // requests between speed probes
/// Entries in the server's artifact cache: the working set's responses
/// and artifacts fit many times over, so only misses are evicted.
constexpr std::size_t kCacheCapacity = 64;

enum class Op { Schedule, Check, Trial, Stream };
constexpr Op kOps[] = {Op::Schedule, Op::Check, Op::Trial, Op::Stream};
/// Miss op kinds in order. Sorted by latency (schedule ~ trial < stream
/// < check, each step about 2x), stream misses span the 33rd to 67th
/// percentile of misses. So cold_p50_ms and, at one miss in five
/// requests, p90_ms (the misses' 50th percentile) both sit in the middle
/// of that one class. When they sat in the tail of a class, a host
/// slowdown that widened it moved them into the next class.
constexpr Op kMissCycle[] = {Op::Trial,  Op::Schedule, Op::Stream,
                             Op::Stream, Op::Check,    Op::Check};

const char* op_name(Op op) {
  switch (op) {
    case Op::Schedule: return "schedule";
    case Op::Check: return "check";
    case Op::Trial: return "trial";
    case Op::Stream: return "stream";
  }
  return "?";
}

/// Payloads a request line carries, as the server will see them.
struct Payload {
  std::string design_json;     ///< escaped design text, or "" for a ref
  std::string inputs_json;     ///< `,"inputs":...` / `,"inputs_stream":...`
};

std::string request_line(std::uint64_t id, Op op, const Payload& p,
                         const std::string& machine_json) {
  std::string line = "{\"id\":" + std::to_string(id) + ",\"op\":\"" +
                     op_name(op) + "\"";
  if (p.design_json.empty()) {
    line += ",\"design_ref\":\"heat\"";
  } else {
    line += ",\"design\":\"" + p.design_json + "\"";
  }
  if (op == Op::Schedule || op == Op::Stream) {
    line += machine_json.empty() ? ",\"machine_ref\":\"cube8\""
                                 : ",\"machine\":\"" + machine_json + "\"";
  }
  return line + p.inputs_json + "}";
}

/// The exact success envelope the service renders for `output`.
std::string ok_response(std::uint64_t id, Op op, const std::string& output) {
  return "{\"id\":" + std::to_string(id) + ",\"op\":\"" + op_name(op) +
         "\",\"ok\":true,\"exit\":0,\"output\":\"" + json_escape(output) +
         "\"}";
}

/// A trial's inputs and expected output text for `design`.
struct RunInputs {
  std::string json;
  std::string output;
};

RunInputs trial_inputs(Rng& rng, const HeatDesign& design) {
  const auto rod = make_rod(rng, design.rod_size());
  return {",\"inputs\":{\"rod\":\"" + rod_expr(rod) + "\"}",
          trial_output(design, heat_reference(design, rod))};
}

RunInputs stream_inputs(Rng& rng, const HeatDesign& design) {
  RunInputs r{",\"inputs_stream\":[", ""};
  for (int b = 0; b < kStreamBatches; ++b) {
    const auto rod = make_rod(rng, design.rod_size());
    r.json += std::string(b ? "," : "") + "{\"rod\":\"" + rod_expr(rod) + "\"}";
    r.output += "=== batch " + std::to_string(b + 1) + " of " +
                std::to_string(kStreamBatches) + " ===\n" +
                trial_output(design, heat_reference(design, rod));
  }
  r.json += "]";
  return r;
}

/// One request as a client sends it, with what its response must be.
struct ServeRequest {
  std::string line;
  Op op = Op::Schedule;
  bool miss = false;
  std::size_t key = 0;      ///< working-set slot of a hit
  std::string expected;     ///< exact response of a miss
  const std::string* design = nullptr;   ///< design text the server hashes
  const std::string* machine = nullptr;  ///< machine text, or nullptr
};

/// Everything set-up builds: the server, the working set and the base
/// responses a miss of each op kind must reproduce.
struct ServeState {
  ServeState(std::uint64_t seed, RunResult& result);

  std::uint64_t seed;
  HeatText base{HeatDesign(kSegments, kSteps, kCells, "0.2")};
  std::string design_text = base.text();
  std::string design_json = json_escape(design_text);
  std::string machine_text = cube8_machine_text();
  std::string machine_json = json_escape(machine_text);
  std::unique_ptr<banger::serve::Server> server;
  std::vector<ServeRequest> working_set;
  std::vector<std::string> first_response;  ///< per working-set slot
  /// Response tail after `{"id":N` of the base schedule/check output;
  /// a miss of those kinds (edits never change the task graph or its
  /// diagnostics) must match it.
  std::string schedule_tail;
  std::string check_tail;
};

std::string tail_after_id(const std::string& response) {
  const auto pos = response.find(",\"op\"");
  return pos == std::string::npos ? std::string() : response.substr(pos);
}

ServeState::ServeState(std::uint64_t seed_, RunResult& result) : seed(seed_) {
  banger::serve::ServeOptions so;
  so.jobs = 1;
  so.cache_capacity = kCacheCapacity;
  server = std::make_unique<banger::serve::Server>(so);
  const auto upload = [&](const char* name, const char* kind,
                          const std::string& text_json) {
    return server->handle_line(
        std::string("{\"id\":0,\"op\":\"upload\",\"name\":\"") + name +
        "\",\"kind\":\"" + kind + "\",\"text\":\"" + text_json + "\"}");
  };
  const std::string up_d = upload("heat", "design", design_json);
  const std::string up_m = upload("cube8", "machine", machine_json);
  if (up_d.find("\"ok\":true") == std::string::npos ||
      up_m.find("\"ok\":true") == std::string::npos) {
    result.setup_ok = false;
  }

  // Slots 0..3 inline, 4..7 by reference, one per op kind each.
  Rng rng(derive_seed(seed, 10));
  for (int by_ref = 0; by_ref < 2; ++by_ref) {
    for (const Op op : kOps) {
      ServeRequest r;
      r.op = op;
      r.key = working_set.size();
      Payload p;
      if (!by_ref) p.design_json = design_json;
      std::string expected_output;
      if (op == Op::Trial) {
        const RunInputs in = trial_inputs(rng, base.design());
        p.inputs_json = in.json;
        expected_output = in.output;
      } else if (op == Op::Stream) {
        const RunInputs in = stream_inputs(rng, base.design());
        p.inputs_json = in.json;
        expected_output = in.output;
      }
      const std::uint64_t id = 1 + r.key;
      r.line = request_line(id, op, p, by_ref ? "" : machine_json);
      r.design = &design_text;
      if (op == Op::Schedule || op == Op::Stream) r.machine = &machine_text;

      // First sight: build and check; second: the cached answer must be
      // byte-identical.
      const std::string first = server->handle_line(r.line);
      bool ok = first.find(",\"ok\":true,\"exit\":0,") != std::string::npos;
      if (op == Op::Trial || op == Op::Stream) {
        ok = ok && first == ok_response(id, op, expected_output);
      } else if (op == Op::Schedule) {
        if (schedule_tail.empty()) schedule_tail = tail_after_id(first);
        ok = ok && tail_after_id(first) == schedule_tail;
      } else {
        if (check_tail.empty()) check_tail = tail_after_id(first);
        ok = ok && tail_after_id(first) == check_tail &&
             first.find("\"summary\":{\"errors\":0,") != std::string::npos;
      }
      ok = ok && server->handle_line(r.line) == first;
      if (!ok) {
        std::fprintf(stderr, "serve set-up: wrong response to %s slot %zu\n",
                     op_name(op), r.key);
        result.setup_ok = false;
      }
      first_response.push_back(first);
      working_set.push_back(std::move(r));
    }
  }
}

/// One client's seeded request sequence.
class RequestStream {
 public:
  RequestStream(const ServeState& st, int client)
      : st_(st),
        client_(client),
        rng_(derive_seed(st.seed, 20 + static_cast<std::uint64_t>(client))),
        miss_base_(
            derive_seed(st.seed, 30 + static_cast<std::uint64_t>(client))),
        edited_(st.base) {}

  /// The next request; valid until the following call.
  const ServeRequest& next() {
    const std::uint64_t i = count_++;
    if (i % kMissEvery != kMissEvery - 1) {
      // Hits: three inline requests for every one by reference.
      const std::uint64_t r = rng_.below(16);
      return st_.working_set[r < 12 ? r % 4 : 4 + (r - 12)];
    }
    const Op op = kMissCycle[misses_ % std::size(kMissCycle)];
    const int t = 1 + static_cast<int>(rng_.below(kSteps));
    const int s = static_cast<int>(rng_.below(kSegments));
    edited_.set_alpha(t, s, unique_alpha(1 + client_, miss_base_ + misses_));
    ++misses_;
    const std::uint64_t id = 1000000000ull * (1 + client_) + i;

    ServeRequest& r = miss_;
    r.op = op;
    r.miss = true;
    design_ = edited_.text();
    Payload p{json_escape(design_), ""};
    if (op == Op::Trial || op == Op::Stream) {
      const RunInputs in = op == Op::Trial
                               ? trial_inputs(rng_, edited_.design())
                               : stream_inputs(rng_, edited_.design());
      p.inputs_json = in.json;
      r.expected = ok_response(id, op, in.output);
    } else {
      r.expected = "{\"id\":" + std::to_string(id) +
                   (op == Op::Schedule ? st_.schedule_tail : st_.check_tail);
    }
    r.line = request_line(id, op, p, st_.machine_json);
    r.design = &design_;
    r.machine = op == Op::Schedule || op == Op::Stream ? &st_.machine_text
                                                       : nullptr;
    edited_.set_alpha(t, s, st_.base.design().at(t, s));
    return r;
  }

 private:
  const ServeState& st_;
  int client_;
  Rng rng_;
  std::uint64_t miss_base_;
  std::uint64_t count_ = 0;
  std::uint64_t misses_ = 0;
  HeatText edited_;
  std::string design_;  ///< text of the last miss; its request points here
  ServeRequest miss_;
};

struct ClientTotals {
  Phase phase;
  std::vector<double> miss_ms[std::size(kOps)];  ///< by Op
  double request_bytes = 0.0;
  double response_bytes = 0.0;
};

/// Replays the front of handle_line on one request: JSON parse, request
/// validation, and hashing of the design and machine payloads.
void replay_front(LayerTracer& tr, int tid, std::uint64_t id,
                  const ServeRequest& r) {
  namespace s = banger::serve;
  double t0 = now_s();
  const s::Json doc = s::Json::parse(r.line);
  double t1 = now_s();
  tr.span(tid, id, "serve.json_parse", t0, t1);
  s::parse_request(doc);
  t0 = now_s();
  tr.span(tid, id, "serve.protocol", t1, t0);
  banger::util::fnv1a64(*r.design);
  if (r.machine != nullptr) banger::util::fnv1a64(*r.machine);
  t1 = now_s();
  tr.span(tid, id, "serve.key_hash", t0, t1);
}

void client_loop(ServeState& st, RequestStream& stream, LayerTracer& tr,
                 const Options& opt, int client, double start, double seconds,
                 ClientTotals& out) {
  std::uint64_t id = 0;
  while (keep_going(opt, start, seconds, out.phase.ops)) {
    const ServeRequest& r = stream.next();
    ++id;
    const std::uint64_t op_id = (static_cast<std::uint64_t>(client) << 40) | id;
    const double t0 = now_s();
    std::string response;
    bool ok = true;
    try {
      response = tr.call(client, op_id, "serve.handle",
                         [&] { return st.server->handle_line(r.line); });
    } catch (const std::exception& e) {
      std::fprintf(stderr, "serve request threw: %s\n", e.what());
      ok = false;
    }
    const double t1 = now_s();
    tr.op(client, op_id, r.miss ? "miss" : "hit", t0, t1);
    if (opt.inject_wrong_every > 0 && !response.empty() &&
        (out.phase.ops + 1) % opt.inject_wrong_every == 0) {
      response.back() = ' ';
    }
    ok = ok && response == (r.miss ? r.expected : st.first_response[r.key]);
    if (!ok) ++out.phase.failed;
    ++out.phase.ops;
    out.phase.add(t1 - start, (t1 - t0) * 1e3, !r.miss);
    if (r.miss) out.miss_ms[static_cast<int>(r.op)].push_back((t1 - t0) * 1e3);
    out.request_bytes += static_cast<double>(r.line.size());
    out.response_bytes += static_cast<double>(response.size());
    if (tr.enabled()) replay_front(tr, client, op_id, r);
    if (out.phase.ops % kProbeEvery == 0) out.phase.probe(now_s() - start);
  }
}

Phase timed_phase(ServeState& st, std::vector<RequestStream>& streams,
                  LayerTracer& tr, const Options& opt, double seconds,
                  LayerCounts* counts) {
  std::vector<ClientTotals> totals(kClients);
  const auto before = st.server->cache_stats();
  const double start = now_s();
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back(client_loop, std::ref(st), std::ref(streams[c]),
                           std::ref(tr), std::cref(opt), c, start, seconds,
                           std::ref(totals[c]));
    }
    for (auto& t : clients) t.join();
  }
  Phase p;
  p.seconds = now_s() - start;
  double req_bytes = 0.0;
  double resp_bytes = 0.0;
  std::printf("# cold_p50_ms by op:");
  for (const Op op : kOps) {
    std::vector<double> ms;
    for (const auto& t : totals) {
      const auto& v = t.miss_ms[static_cast<int>(op)];
      ms.insert(ms.end(), v.begin(), v.end());
    }
    std::printf(" %s %.3f (n=%zu)", op_name(op), quantile(ms, 0.5), ms.size());
  }
  std::printf("\n");
  for (const auto& t : totals) {
    p.merge(t.phase);
    req_bytes += t.request_bytes;
    resp_bytes += t.response_bytes;
  }
  if (counts != nullptr) {
    const auto after = st.server->cache_stats();
    const double n = static_cast<double>(std::max<std::uint64_t>(p.ops, 1));
    counts->serve_hits = static_cast<double>(after.hits - before.hits);
    counts->serve_lookups = static_cast<double>(
        after.hits + after.misses - before.hits - before.misses);
    counts->serve_evictions =
        static_cast<double>(after.evictions - before.evictions);
    counts->request_bytes = req_bytes / n;
    counts->response_bytes = resp_bytes / n;
  }
  return p;
}

}  // namespace

std::string serve_mix_inputs(std::uint64_t seed, int ops) {
  RunResult scratch;
  ServeState st(seed, scratch);
  std::string out;
  for (const auto& r : st.working_set) out += r.line + "\n";
  for (int c = 0; c < kClients; ++c) {
    RequestStream stream(st, c);
    for (int i = 0; i < ops; ++i) out += stream.next().line + "\n";
  }
  return out;
}

RunResult run_serve_mix(const Options& opt) {
  RunResult result;
  std::vector<double> setup_s;
  std::vector<double> setup_probe;
  std::unique_ptr<ServeState> st;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    setup_probe.push_back(probe_ms());
    const double t0 = now_s();
    st.reset();
    st = std::make_unique<ServeState>(opt.seed, result);
    setup_s.push_back(now_s() - t0);
  }
  std::vector<RequestStream> streams;
  for (int c = 0; c < kClients; ++c) streams.emplace_back(*st, c);

  LayerTracer off(false);
  if (!opt.trace) {
    const Phase p = timed_phase(*st, streams, off, opt, opt.seconds, nullptr);
    result.attempted = p.ops;
    result.failed = p.failed;
    add_end_to_end(result, setup_s, setup_probe, p, 1.0);
    return result;
  }
  const Phase untraced =
      timed_phase(*st, streams, off, opt, opt.seconds / 2, nullptr);
  LayerTracer tracer(true);
  LayerCounts counts;
  const CompileSnapshot compile;
  const Phase traced =
      timed_phase(*st, streams, tracer, opt, opt.seconds / 2, &counts);
  compile.delta_into(counts);
  finish_traced(result, untraced, traced, tracer, counts, opt);
  return result;
}

}  // namespace perfbench
