// An oracle for the reachable graph that shares none of its build: every
// expanded state's stored out-edges, as (command, post-state) in order,
// against what Model::successors interprets from the guards with Expr::eval.
#pragma once

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

}  // namespace procheck::mc
