#include "checker/cegar.h"

#include <algorithm>
#include <set>

namespace procheck::checker {

bool applicable(const PropertyDef& prop, const fsm::Fsm& ue_fsm) {
  for (const std::string& atom : prop.requires_atoms) {
    if (ue_fsm.conditions().count(atom) == 0 && ue_fsm.actions().count(atom) == 0) {
      return false;
    }
  }
  return true;
}

mc::CheckOptions check_options(const CegarOptions& options) {
  mc::CheckOptions out;
  out.max_states = options.max_states;
  out.max_seconds = options.max_seconds;
  out.max_visited_bytes = options.max_visited_bytes;
  return out;
}

PropertyResult check_property(const threat::ThreatModel& tm, const fsm::Fsm& ue_fsm,
                              const PropertyDef& prop, const cpv::LteCryptoModel& crypto,
                              const CegarOptions& options) {
  // An inapplicable property never touches the graph, so it skips the build.
  mc::ReachGraph graph;
  if (applicable(prop, ue_fsm)) graph = mc::ReachGraph::build(tm.model, check_options(options));
  PropertyResult result = check_property(graph, ue_fsm, prop, crypto, options);
  result.total_seconds += graph.stats().seconds;
  result.peak_visited_bytes += graph.stats().visited_bytes;
  return result;
}

PropertyResult check_property(const mc::ReachGraph& graph, const fsm::Fsm& ue_fsm,
                              const PropertyDef& prop, const cpv::LteCryptoModel& crypto,
                              const CegarOptions& options) {
  PropertyResult result;
  result.property_id = prop.id;
  result.attack_id = prop.attack_id;

  if (!applicable(prop, ue_fsm)) {
    result.status = PropertyResult::Status::kNotApplicable;
    result.note = "procedure not implemented by this stack";
    return result;
  }

  const mc::Model& model = graph.model();
  mc::EdgeMatch bad, trigger, response;
  if (prop.kind == PropertyDef::Kind::kEdgeNever) {
    bad = prop.bad.compile(model);
  } else {
    trigger = prop.trigger.compile(model);
    response = prop.response.compile(model);
  }
  mc::CheckOptions mc_options = check_options(options);

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    ++result.iterations;
    if (options.max_seconds > 0) {
      const double remaining = options.max_seconds - result.total_seconds;
      if (remaining <= 0) {
        result.status = PropertyResult::Status::kInconclusive;
        result.last_stats.deadline_hit = true;
        result.note = "wall-clock budget exhausted (" + std::to_string(options.max_seconds) +
                      "s) before iteration " + std::to_string(result.iterations);
        return result;
      }
      mc_options.max_seconds = remaining;
    }
    mc::CheckStats stats;
    std::optional<mc::CounterExample> cex =
        prop.kind == PropertyDef::Kind::kEdgeNever
            ? graph.check_edge_never(bad, &stats, mc_options)
            : graph.check_response(trigger, response, &stats, mc_options);
    result.last_stats = stats;
    result.total_seconds += stats.seconds;
    result.total_states += stats.states_explored;
    result.peak_visited_bytes = std::max(result.peak_visited_bytes, stats.visited_bytes);

    if (!cex) {
      if (stats.truncated()) {
        // The search stopped at a budget without finding a violation: the
        // unexplored remainder may still hold one, so this is not a verdict.
        const char* why = stats.bound_hit      ? "state bound"
                          : stats.deadline_hit ? "wall-clock deadline"
                                               : "memory ceiling";
        result.status = PropertyResult::Status::kInconclusive;
        result.note = std::string("search budget exhausted (") + why + " after " +
                      std::to_string(stats.states_explored) +
                      " states); no counterexample found in the explored fragment";
        return result;
      }
      result.status = PropertyResult::Status::kVerified;
      result.note =
          result.refinements.empty() ? "verified" : "verified after CEGAR refinement";
      return result;
    }

    // CPV validation of every step in the trace (judge_delivery decides
    // which kinds of step can be infeasible).
    std::vector<std::pair<std::string, std::string>> infeasible;
    for (const mc::TraceStep& step : cex->steps) {
      cpv::StepVerdict v = crypto.judge_delivery(step.meta);
      if (!v.feasible) infeasible.emplace_back(step.label, v.reason);
    }

    if (!infeasible.empty()) {
      // Ban every command carrying an infeasible step's label: the next
      // traversal skips their edges.
      std::set<std::string> labels;
      for (const auto& [label, reason] : infeasible) {
        labels.insert(label);
        result.refinements.push_back("banned " + label + ": " + reason);
      }
      mc_options.banned.resize(model.commands().size(), 0);
      for (const mc::Command& cmd : model.commands()) {
        if (labels.count(cmd.label) > 0) mc_options.banned[cmd.index] = 1;
      }
      continue;  // spurious counterexample ruled out; re-verify
    }

    // Cryptographically realizable. Linkability properties additionally
    // require the observational-equivalence confirmation.
    if (!prop.equivalence_message.empty()) {
      cpv::EquivalenceVerdict eq = crypto.distinguishability(
          ue_fsm, prop.equivalence_message, prop.equivalence_victim_atoms);
      result.equivalence = eq;
      if (!eq.distinguishable) {
        result.status = PropertyResult::Status::kVerified;
        result.note = "counterexample reachable but observationally equivalent: " + eq.reason;
        return result;
      }
      result.note = eq.reason;
    } else {
      result.note = "realizable counterexample";
    }
    result.status = PropertyResult::Status::kAttack;
    result.counterexample = std::move(cex);
    return result;
  }

  // Refinement did not converge within the iteration budget. Every produced
  // counterexample was spurious, but the refined model was never fully
  // re-verified — that is inconclusive, not verified.
  result.status = PropertyResult::Status::kInconclusive;
  result.note = "CEGAR iteration budget exhausted (" + std::to_string(options.max_iterations) +
                " iterations); all counterexamples so far were spurious";
  return result;
}

}  // namespace procheck::checker
