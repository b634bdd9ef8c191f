#include "exec/plan.hpp"

#include <utility>

#include "util/error.hpp"

namespace banger::exec {

namespace {

using pits::Env;
using pits::Value;

/// Does this (possibly comma-joined) edge variable list carry `var`?
bool edge_carries(const std::string& edge_var, const std::string& var) {
  for (auto part : util::split(edge_var, ',')) {
    if (util::trim(part) == var) return true;
  }
  return false;
}

std::optional<std::uint32_t> output_index(const graph::Task& task,
                                          const std::string& var) {
  for (std::size_t i = 0; i < task.outputs.size(); ++i) {
    if (task.outputs[i] == var) return static_cast<std::uint32_t>(i);
  }
  return std::nullopt;
}

}  // namespace

// ---- design plans ----------------------------------------------------

DesignPlan build_plan(const FlattenResult& flat, const RunOptions& options,
                      const TakePlan& takes) {
  const graph::TaskGraph& g = flat.graph;
  DesignPlan plan;
  plan.vm_engine = pits::resolve_engine(options.pits.engine) ==
                   pits::ExecOptions::Engine::Vm;
  plan.tasks.resize(g.num_tasks());
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    const graph::Task& task = g.task(t);
    TaskPlan& tp = plan.tasks[t];
    if (util::trim(task.pits).empty()) {
      if (!task.outputs.empty()) {
        fail(ErrorCode::Runtime,
             "task `" + task.name +
                 "` declares outputs but has no PITS routine");
      }
      // Pure synchronisation node: legal no-op (inputs still bind).
    } else {
      try {
        tp.routine = analyze::routine_entry(task);
        if (tp.routine->parse_error) throw *tp.routine->parse_error;
        if (plan.vm_engine) tp.chunk = tp.routine->chunk();
      } catch (const Error& e) {
        fail(e.code(), "in task `" + task.name + "`: " + e.message(),
             graph::routine_to_file(task, e.pos()));
      }
    }
    const pits::bc::Chunk* chunk = tp.chunk;
    auto slot_of = [&](const std::string& var) -> std::int32_t {
      if (chunk == nullptr) return -1;
      for (std::size_t s = 0; s < chunk->vars.size(); ++s) {
        if (chunk->names[chunk->vars[s].name] == var) {
          return static_cast<std::int32_t>(s);
        }
      }
      return -1;
    };
    tp.inputs.reserve(task.inputs.size());
    for (std::size_t i = 0; i < task.inputs.size(); ++i) {
      const std::string& var = task.inputs[i];
      InputBinding b;
      b.var = static_cast<std::uint32_t>(i);
      b.slot = slot_of(var);
      bool bound = false;
      // 1. A predecessor whose edge is labelled with this variable and
      // whose task declares it (a task's produced environment is exactly
      // its declared outputs, so the check is static).
      for (graph::EdgeId e : g.in_edges(t)) {
        const graph::Edge& edge = g.edge(e);
        if (!edge_carries(edge.var, var)) continue;
        if (auto out = output_index(g.task(edge.from), var)) {
          b.kind = InputBinding::Kind::Producer;
          b.producer = edge.from;
          b.producer_out = *out;
          bound = true;
          break;
        }
      }
      // 2. Unlabelled precedence edge from a predecessor that declares
      // the variable as an output (synthetic graphs wire values this way).
      if (!bound) {
        for (graph::EdgeId e : g.in_edges(t)) {
          const graph::Edge& edge = g.edge(e);
          if (auto out = output_index(g.task(edge.from), var)) {
            b.kind = InputBinding::Kind::Producer;
            b.producer = edge.from;
            b.producer_out = *out;
            bound = true;
            break;
          }
        }
      }
      // 3. An external input store of that variable.
      if (!bound) {
        if (const graph::FlatStore* store = flat.find_store(var);
            store != nullptr && store->writers.empty()) {
          b.kind = InputBinding::Kind::External;
        }
        // else Kind::Nothing: errors when (and only when) the task runs.
      }
      tp.inputs.push_back(b);
    }
    tp.outputs.reserve(task.outputs.size());
    for (std::size_t i = 0; i < task.outputs.size(); ++i) {
      const std::string& var = task.outputs[i];
      OutputPlan op;
      op.slot = slot_of(var);
      for (std::size_t j = 0; j < task.inputs.size(); ++j) {
        if (task.inputs[j] == var) {
          op.pass_input = static_cast<std::int32_t>(j);
          break;
        }
      }
      if (*output_index(task, var) != i) tp.unique_outputs = false;
      tp.outputs.push_back(op);
    }
  }
  plan.store_writers.resize(flat.stores.size());
  for (std::size_t s = 0; s < flat.stores.size(); ++s) {
    for (TaskId w : flat.stores[s].writers) {
      if (auto out = output_index(g.task(w), flat.stores[s].var)) {
        plan.store_writers[s].push_back({w, *out});
      }
    }
  }
  // Count every read of each produced value over the whole run —
  // consumer bindings (weighted by how many scheduled copies of the
  // consumer execute), pass-through re-resolves at collection time, and
  // store writers. A value read exactly once can be moved to its
  // consumer instead of copied, which matters when tasks hand large
  // vectors down a chain.
  if (takes.allow) {
    // How many times each task executes: once without a schedule, once
    // per placement (duplicates included) with one.
    std::vector<std::uint32_t> mult(g.num_tasks(), 1);
    if (takes.schedule != nullptr) {
      for (TaskId t = 0; t < g.num_tasks(); ++t) {
        const std::size_t copies = takes.schedule->copies_of(t).size();
        mult[t] = copies == 0 ? 1u : static_cast<std::uint32_t>(copies);
      }
    }
    // An active fault plan allows rescue re-runs, which re-bind every
    // consumed value once more; doubling each consumer's weight pushes
    // every producer-bound value to >= 2 uses, disabling all takes.
    const std::uint32_t fault_factor = takes.faults ? 2u : 1u;
    std::vector<std::vector<std::uint32_t>> uses(g.num_tasks());
    for (TaskId t = 0; t < g.num_tasks(); ++t) {
      uses[t].assign(g.task(t).outputs.size(), 0);
    }
    auto count_use = [&](const InputBinding& b, std::uint32_t weight) {
      if (b.kind == InputBinding::Kind::Producer &&
          b.producer_out < uses[b.producer].size()) {
        uses[b.producer][b.producer_out] += weight;
      }
    };
    for (TaskId t = 0; t < g.num_tasks(); ++t) {
      const TaskPlan& tp = plan.tasks[t];
      const std::uint32_t weight = mult[t] * fault_factor;
      for (const InputBinding& b : tp.inputs) count_use(b, weight);
      for (const OutputPlan& op : tp.outputs) {
        if (op.pass_input >= 0) {
          count_use(tp.inputs[static_cast<std::size_t>(op.pass_input)],
                    weight);
        }
      }
    }
    // collect_stores reads each writer's stored output once at the end.
    for (const auto& writers : plan.store_writers) {
      for (const StoreWriter& w : writers) {
        if (w.out < uses[w.task].size()) ++uses[w.task][w.out];
      }
    }
    // The executor's duplicate cross-check compares fresh outputs of a
    // duplicated task against the stored value — one extra read of every
    // output of any task with more than one placement.
    if (takes.schedule != nullptr) {
      for (TaskId t = 0; t < g.num_tasks(); ++t) {
        if (mult[t] > 1) {
          for (std::uint32_t& u : uses[t]) ++u;
        }
      }
    }
    for (TaskPlan& tp : plan.tasks) {
      for (InputBinding& b : tp.inputs) {
        b.take = b.kind == InputBinding::Kind::Producer &&
                 b.producer_out < uses[b.producer].size() &&
                 uses[b.producer][b.producer_out] == 1;
      }
    }
  }
  return plan;
}

// ---- binding / execution ---------------------------------------------

void fail_missing_external(const graph::Task& task, std::uint32_t var) {
  fail(ErrorCode::Runtime, "no value supplied for input store `" +
                               task.inputs[var] + "` needed by task `" +
                               task.name + "`");
}

void fail_bound_to_nothing(const graph::Task& task, std::uint32_t var) {
  fail(ErrorCode::Runtime, "input `" + task.inputs[var] + "` of task `" +
                               task.name + "` is bound to nothing");
}

Value resolve_binding(const graph::Task& task, const InputBinding& b,
                      const ExternalInputs& external,
                      std::vector<std::optional<TaskOutputs>>& outs) {
  switch (b.kind) {
    case InputBinding::Kind::Producer: {
      auto& produced = outs[b.producer];
      BANGER_ASSERT(produced.has_value(), "predecessor not yet executed");
      Value& v = (*produced)[b.producer_out];
      if (b.take) return std::move(v);
      return v;
    }
    case InputBinding::Kind::External: {
      auto it = external.find(task.inputs[b.var]);
      if (it == external.end()) fail_missing_external(task, b.var);
      return it->second;
    }
    case InputBinding::Kind::Nothing:
      break;
  }
  fail_bound_to_nothing(task, b.var);
}

bool bind_task(const FlattenResult& flat, const DesignPlan& plan,
               graph::TaskId t, const ExternalInputs& external,
               std::vector<std::optional<TaskOutputs>>& outs,
               TaskScratch& scratch, Env& env) {
  const graph::Task& task = flat.graph.task(t);
  const TaskPlan& tp = plan.tasks[t];
  const bool slots = plan.vm_engine && tp.chunk != nullptr;
  if (slots) scratch.frame.prepare(*tp.chunk);
  for (const InputBinding& b : tp.inputs) {
    Value v = resolve_binding(task, b, external, outs);
    if (slots) {
      if (b.slot >= 0) {
        scratch.frame.bind(static_cast<std::uint16_t>(b.slot), std::move(v));
      }
      // Inputs the routine never mentions have no slot; pass-through
      // outputs re-resolve them at collection time.
    } else {
      env[task.inputs[b.var]] = std::move(v);
    }
  }
  return slots;
}

TaskOutputs execute_task(const FlattenResult& flat, const DesignPlan& plan,
                         graph::TaskId t, bool slots, Env env,
                         TaskScratch& scratch, const RunOptions& options,
                         const ExternalInputs& external,
                         std::vector<std::optional<TaskOutputs>>& outs,
                         std::string* transcript) {
  const graph::Task& task = flat.graph.task(t);
  return execute_task_with(
      flat, plan, t, slots, std::move(env), scratch, options,
      [&](const InputBinding& b) {
        return resolve_binding(task, b, external, outs);
      },
      transcript);
}

void collect_stores(const FlattenResult& flat, const DesignPlan& plan,
                    const std::vector<std::optional<TaskOutputs>>& task_outputs,
                    const ExternalInputs& external, RunResult& result) {
  for (std::size_t s = 0; s < flat.stores.size(); ++s) {
    const graph::FlatStore& store = flat.stores[s];
    if (store.writers.empty()) {
      if (auto it = external.find(store.var); it != external.end()) {
        result.stores[store.var] = it->second;
      }
      continue;
    }
    for (const StoreWriter& w : plan.store_writers[s]) {
      const auto& produced = task_outputs[w.task];
      if (!produced) continue;
      result.stores[store.var] = (*produced)[w.out];
    }
    if (store.readers.empty()) {
      if (auto it = result.stores.find(store.var); it != result.stores.end()) {
        result.outputs[store.var] = it->second;
      }
    }
  }
}

}  // namespace banger::exec
