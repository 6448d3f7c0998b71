// Oracles for the reachable graph and its traversals that share none of
// their code:
// - first_edge_mismatch: every expanded state's stored out-edges, as
//   (command, post-state) in order, against what Model::successors
//   interprets from the guards with Expr::eval;
// - reference_edge_never: a breadth-first never-claim over
//   Model::successors alone;
// - eager_lasso: the liveness search as it stood when it built the whole
//   (state, pending) product before its cycle search, the byte-identity
//   reference for the on-demand product;
// - reference_response_violated: a liveness verdict that builds no product;
// - lasso_defect: whether a liveness trace is a real violating lasso.
// Each reads the model or the graph's public accessors only.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "mc/checker.h"
#include "mc/model.h"

namespace procheck::mc {

/// Empty when every expanded state of `g` stores exactly the edges
/// Model::successors yields for it, in command order; otherwise names the
/// first state where they differ.
inline std::string first_edge_mismatch(const ReachGraph& g) {
  const Model& model = g.model();
  std::vector<std::pair<std::size_t, State>> interpreted;
  for (std::uint32_t id = 0; id < g.expanded(); ++id) {
    const State pre = g.state(id);
    interpreted.clear();
    model.successors(pre, [&](const State& post, const Command& cmd) {
      interpreted.emplace_back(static_cast<std::size_t>(cmd.index), post);
    });
    bool same = interpreted.size() == g.edge_end(id) - g.edge_begin(id);
    for (std::size_t k = 0; same && k < interpreted.size(); ++k) {
      const std::size_t e = g.edge_begin(id) + k;
      same = g.command(e) == interpreted[k].first && g.post(id, e) == interpreted[k].second;
    }
    if (!same) return "state " + std::to_string(id) + " (" + model.render_state(pre) + ")";
  }
  return {};
}

/// Whether `match` holds on the edge that takes `command` out of `pre`.
inline bool edge_matches(const EdgeMatch& match, const State& pre, std::size_t command) {
  if (match.commands[command] == 0) return false;
  for (const auto& [var, value] : match.pre_equals) {
    if (pre[var] != value) return false;
  }
  return true;
}

/// Whether `options` bans `command`.
inline bool is_banned(const CheckOptions& options, std::size_t command) {
  return !options.banned.empty() && options.banned[command] != 0;
}

/// A breadth-first never-claim over Model::successors alone: states keyed
/// in a std::map, each state's enabled commands in command order, the state
/// cap on discoveries (the initial state always counts). The reference for
/// ReachGraph::check_edge_never on a graph built without a cap: the same
/// first hit, trace and counts.
inline std::optional<CounterExample> reference_edge_never(const Model& model,
                                                          const EdgeMatch& bad, CheckStats* out,
                                                          const CheckOptions& options = {}) {
  CheckStats stats;
  std::map<State, std::uint32_t> seen{{model.initial(), 0}};
  std::vector<State> states{model.initial()};
  std::vector<std::uint32_t> parent{0};
  std::vector<const Command*> via{nullptr};
  auto trace_to = [&](std::uint32_t node) {
    std::vector<TraceStep> rev;
    for (std::uint32_t at = node; at != 0; at = parent[at]) {
      rev.push_back({via[at]->label, via[at]->meta, states[at]});
    }
    CounterExample cex;
    cex.steps.assign(rev.rbegin(), rev.rend());
    return cex;
  };
  std::optional<CounterExample> hit;
  for (std::uint32_t at = 0; at < states.size() && !hit; ++at) {
    const State pre = states[at];
    model.successors(pre, [&](const State& post, const Command& cmd) {
      if (hit || is_banned(options, cmd.index)) return;
      ++stats.edges_explored;
      if (edge_matches(bad, pre, cmd.index)) {
        hit = trace_to(at);
        hit->steps.push_back({cmd.label, cmd.meta, post});
        return;
      }
      if (seen.count(post) > 0) return;
      if (states.size() >= options.max_states) {
        stats.bound_hit = true;
        return;
      }
      seen.emplace(post, static_cast<std::uint32_t>(states.size()));
      states.push_back(post);
      parent.push_back(at);
      via.push_back(&cmd);
    });
  }
  stats.states_explored = states.size();
  if (out) *out = stats;
  return hit;
}

/// The liveness search as it stood before the product grew on demand: a
/// breadth-first build of the whole (state, pending) product with its
/// pending edges stored as CSR, then the cycle DFS from every pending root
/// in id order. The byte-identity reference for ReachGraph::check_response,
/// reading labels off unpacked states. It honours the state cap and the ban
/// table and polls no other budget; its stats count the whole product.
inline std::optional<CounterExample> eager_lasso(const ReachGraph& g, const EdgeMatch& trigger,
                                                 const EdgeMatch& response, CheckStats* out,
                                                 const CheckOptions& options = {}) {
  constexpr std::uint32_t kNoId = ReachGraph::kMissing;
  constexpr std::int32_t kStutter = -1;
  CheckStats stats;
  const std::vector<Command>& commands = g.model().commands();
  std::vector<std::uint32_t> node_state;
  std::vector<std::uint8_t> node_pending;
  std::vector<std::uint32_t> node_parent;
  std::vector<std::int32_t> node_via;
  std::vector<std::array<std::uint32_t, 2>> node_of(g.states(), {kNoId, kNoId});
  std::vector<std::size_t> pending_begin{0};
  std::vector<std::pair<std::uint32_t, std::int32_t>> pending_edges;

  auto step_of = [&](std::int32_t cmd, std::uint32_t node) -> TraceStep {
    if (cmd == kStutter) return {"(stutter)", CommandMeta{}, g.state(node_state[node])};
    return {commands[cmd].label, commands[cmd].meta, g.state(node_state[node])};
  };
  auto finish = [&](std::optional<CounterExample> cex) {
    stats.states_explored = node_state.size();
    stats.visited_bytes =
        node_state.capacity() * sizeof(std::uint32_t) + node_pending.capacity() +
        node_parent.capacity() * sizeof(std::uint32_t) +
        node_via.capacity() * sizeof(std::int32_t) +
        node_of.capacity() * sizeof(std::array<std::uint32_t, 2>) +
        pending_begin.capacity() * sizeof(std::size_t) +
        pending_edges.capacity() * sizeof(std::pair<std::uint32_t, std::int32_t>);
    if (out) *out = stats;
    return cex;
  };
  auto add_node = [&](std::uint32_t state, bool pending, std::uint32_t parent,
                      std::int32_t via) -> std::uint32_t {
    if (state == ReachGraph::kMissing) {
      stats.bound_hit = true;
      return kNoId;
    }
    std::uint32_t& slot = node_of[state][pending ? 1 : 0];
    if (slot != kNoId) return slot;
    if (node_state.size() >= options.max_states) {
      stats.bound_hit = true;
      return kNoId;
    }
    slot = static_cast<std::uint32_t>(node_state.size());
    node_state.push_back(state);
    node_pending.push_back(pending ? 1 : 0);
    node_parent.push_back(parent);
    node_via.push_back(via);
    return slot;
  };

  add_node(0, false, kNoId, -1);
  for (std::uint32_t at = 0; at < node_state.size(); ++at) {
    const std::uint32_t state = node_state[at];
    const bool pending = node_pending[at] != 0;
    if (state >= g.expanded()) {
      stats.deadline_hit = stats.deadline_hit || g.stats().deadline_hit;
      stats.mem_hit = stats.mem_hit || g.stats().mem_hit;
      pending_begin.push_back(pending_edges.size());
      continue;
    }
    const State pre = g.state(state);
    bool any_successor = false;
    for (std::size_t e = g.edge_begin(state); e < g.edge_end(state); ++e) {
      const auto j = static_cast<std::int32_t>(g.command(e));
      if (is_banned(options, j)) continue;
      any_successor = true;
      ++stats.edges_explored;
      const bool next_pending =
          (pending || edge_matches(trigger, pre, j)) && !edge_matches(response, pre, j);
      const std::uint32_t to = add_node(g.target(e), next_pending, at, j);
      if (to == kNoId) continue;
      if (pending && next_pending) pending_edges.push_back({to, j});
    }
    if (!any_successor && pending) pending_edges.push_back({at, kStutter});
    pending_begin.push_back(pending_edges.size());
  }

  std::vector<std::uint8_t> color(node_state.size(), 0);  // 0 white, 1 grey, 2 black
  for (std::uint32_t root = 0; root < node_state.size(); ++root) {
    if (!node_pending[root] || color[root] != 0) continue;
    struct Frame {
      std::uint32_t node;
      std::size_t next_edge;
      std::int32_t via_cmd;
    };
    std::vector<Frame> stack{{root, pending_begin[root], kStutter}};
    color[root] = 1;
    while (!stack.empty()) {
      Frame& f = stack.back();
      if (f.next_edge >= pending_begin[f.node + 1]) {
        color[f.node] = 2;
        stack.pop_back();
        continue;
      }
      const auto [to, via] = pending_edges[f.next_edge++];
      if (color[to] == 1) {
        CounterExample cex;
        std::vector<TraceStep> rev;
        for (std::uint32_t n = to; node_via[n] >= 0; n = node_parent[n]) {
          rev.push_back(step_of(node_via[n], n));
        }
        cex.steps.assign(rev.rbegin(), rev.rend());
        cex.loop_start = static_cast<int>(cex.steps.size());
        std::size_t start = 0;
        for (std::size_t i = 0; i < stack.size(); ++i) {
          if (stack[i].node == to) start = i;
        }
        for (std::size_t i = start + 1; i < stack.size(); ++i) {
          cex.steps.push_back(step_of(stack[i].via_cmd, stack[i].node));
        }
        cex.steps.push_back(step_of(via, to));
        return finish(std::move(cex));
      }
      if (color[to] == 0) {
        color[to] = 1;
        stack.push_back({to, pending_begin[to], via});
      }
    }
  }
  return finish(std::nullopt);
}

/// Whether G(trigger → F response) fails on `model` with the commands of
/// `options.banned` pruned, decided without a product: mark every reachable
/// state some path enters with the trigger unanswered, then peel (Kahn)
/// the marked states that no unanswering edge between marked states enters.
/// A cycle of such edges survives the peel, and so does a marked dead end,
/// which stutters.
inline bool reference_response_violated(const Model& model, const EdgeMatch& trigger,
                                        const EdgeMatch& response,
                                        const CheckOptions& options = {}) {
  struct Edge {
    std::uint32_t to;
    bool trigger, response;
  };
  std::map<State, std::uint32_t> seen{{model.initial(), 0}};
  std::vector<State> states{model.initial()};
  std::vector<std::vector<Edge>> edges;
  for (std::uint32_t at = 0; at < states.size(); ++at) {
    const State pre = states[at];
    std::vector<Edge> out;
    model.successors(pre, [&](const State& post, const Command& cmd) {
      if (is_banned(options, cmd.index)) return;
      const auto [it, fresh] = seen.emplace(post, static_cast<std::uint32_t>(states.size()));
      if (fresh) states.push_back(post);
      out.push_back({it->second, edge_matches(trigger, pre, cmd.index),
                     edge_matches(response, pre, cmd.index)});
    });
    edges.push_back(std::move(out));
  }

  std::vector<std::uint8_t> pending(states.size(), 0);
  std::vector<std::uint32_t> work;
  auto mark = [&](std::uint32_t s) {
    if (pending[s] == 0) {
      pending[s] = 1;
      work.push_back(s);
    }
  };
  for (const std::vector<Edge>& out : edges) {
    for (const Edge& e : out) {
      if (e.trigger && !e.response) mark(e.to);
    }
  }
  while (!work.empty()) {
    const std::uint32_t s = work.back();
    work.pop_back();
    for (const Edge& e : edges[s]) {
      if (!e.response) mark(e.to);
    }
  }

  std::vector<std::size_t> entering(states.size(), 0);
  std::size_t marked = 0;
  for (std::uint32_t s = 0; s < states.size(); ++s) {
    if (pending[s] == 0) continue;
    ++marked;
    if (edges[s].empty()) ++entering[s];  // the stutter self-loop
    for (const Edge& e : edges[s]) {
      if (!e.response) ++entering[e.to];
    }
  }
  for (std::uint32_t s = 0; s < states.size(); ++s) {
    if (pending[s] != 0 && entering[s] == 0) work.push_back(s);
  }
  std::size_t peeled = 0;
  while (!work.empty()) {
    const std::uint32_t s = work.back();
    work.pop_back();
    ++peeled;
    for (const Edge& e : edges[s]) {
      if (!e.response && --entering[e.to] == 0) work.push_back(e.to);
    }
  }
  return peeled < marked;
}

/// Empty when `cex` is a lasso of `model` that violates G(trigger → F
/// response) with the commands of `options.banned` pruned: every step is an
/// allowed command enabled where it fires (a "(stutter)" step only at a
/// dead end, back to itself), the trigger is unanswered where the loop
/// starts, no loop step answers it, and the loop closes. Otherwise says
/// what is wrong.
inline std::string lasso_defect(const Model& model, const EdgeMatch& trigger,
                                const EdgeMatch& response, const CounterExample& cex,
                                const CheckOptions& options = {}) {
  const std::size_t loop = static_cast<std::size_t>(cex.loop_start);
  if (cex.loop_start < 0 || loop >= cex.steps.size()) return "no loop";
  State at = model.initial();
  State loop_entry;
  bool pending = false;
  for (std::size_t i = 0; i < cex.steps.size(); ++i) {
    const TraceStep& step = cex.steps[i];
    const std::string where = "step " + std::to_string(i + 1) + " (" + step.label + ")";
    if (i == loop) {
      if (!pending) return "no trigger is pending where the loop starts";
      loop_entry = at;
    }
    const Command* taken = nullptr;
    bool dead_end = true;
    model.successors(at, [&](const State& post, const Command& cmd) {
      if (is_banned(options, cmd.index)) return;
      dead_end = false;
      if (taken == nullptr && cmd.label == step.label && post == step.post) taken = &cmd;
    });
    if (step.label == "(stutter)") {
      if (!dead_end || step.post != at) return where + " stutters where a command is enabled";
    } else if (taken == nullptr) {
      return where + " is not an allowed command enabled there";
    } else {
      const bool answers = edge_matches(response, at, taken->index);
      if (i >= loop && answers) return where + " answers the trigger inside the loop";
      pending = (pending || edge_matches(trigger, at, taken->index)) && !answers;
    }
    at = step.post;
  }
  if (at != loop_entry) return "the loop does not close";
  return {};
}

}  // namespace procheck::mc
