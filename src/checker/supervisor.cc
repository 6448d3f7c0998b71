#include "checker/supervisor.h"

#include <algorithm>
#include <map>
#include <mutex>

#include "common/journal.h"
#include "common/json.h"
#include "common/thread_pool.h"

namespace procheck::checker {

std::string_view status_token(PropertyResult::Status s) {
  switch (s) {
    case PropertyResult::Status::kVerified:
      return "verified";
    case PropertyResult::Status::kAttack:
      return "attack";
    case PropertyResult::Status::kNotApplicable:
      return "not_applicable";
    case PropertyResult::Status::kInconclusive:
      return "inconclusive";
  }
  return "?";
}

// Journal record codec: JSON via the shared minimal parser/encoder in
// common/json.h. The parser is strict — any malformation fails the whole
// record, which the resume path treats as "absent" (the property is simply
// re-verified).

namespace {

std::optional<PropertyResult::Status> status_from_token(std::string_view t) {
  if (t == "verified") return PropertyResult::Status::kVerified;
  if (t == "attack") return PropertyResult::Status::kAttack;
  if (t == "not_applicable") return PropertyResult::Status::kNotApplicable;
  if (t == "inconclusive") return PropertyResult::Status::kInconclusive;
  return std::nullopt;
}

/// The strings of array field `key` (none when it is absent), or nullopt
/// when it holds anything but an array of strings.
std::optional<std::vector<std::string>> strings_of(const Json& object, const std::string& key) {
  std::vector<std::string> out;
  const Json* field = object.find(key);
  if (!field) return out;
  if (!field->is(Json::Type::kArray)) return std::nullopt;
  for (const Json& item : field->arr) {
    if (!item.is(Json::Type::kString)) return std::nullopt;
    out.push_back(item.s);
  }
  return out;
}

}  // namespace

std::string encode_outcome(const PropertyOutcome& outcome) {
  const PropertyResult& r = outcome.result;
  std::string out = "{\"kind\":\"outcome\"";
  out += ",\"id\":" + json_quote(r.property_id);
  out += ",\"attack\":" + json_quote(r.attack_id);
  out += ",\"status\":\"" + std::string(status_token(r.status)) + "\"";
  out += ",\"note\":" + json_quote(r.note);
  out += ",\"iters\":" + std::to_string(r.iterations);
  out += ",\"attempts\":" + std::to_string(outcome.attempts);
  out += ",\"failure\":\"" + std::string(supervise::to_string(outcome.failure)) + "\"";
  out += ",\"diag\":" + json_quote(outcome.diagnostics);
  out += ",\"refs\":" + json_quote_array(r.refinements);
  if (r.equivalence) {
    out += ",\"equiv\":{\"dist\":" + std::string(r.equivalence->distinguishable ? "true" : "false");
    out += ",\"victim\":" + json_quote(r.equivalence->victim_response);
    out += ",\"other\":" + json_quote(r.equivalence->other_response);
    out += ",\"reason\":" + json_quote(r.equivalence->reason) + "}";
  }
  if (r.counterexample) {
    out += ",\"cex\":{\"loop\":" + std::to_string(r.counterexample->loop_start);
    out += ",\"steps\":[";
    for (std::size_t i = 0; i < r.counterexample->steps.size(); ++i) {
      const mc::TraceStep& step = r.counterexample->steps[i];
      if (i > 0) out += ',';
      out += "{\"label\":" + json_quote(step.label);
      out += ",\"actor\":" + std::to_string(static_cast<int>(step.meta.actor));
      out += ",\"ckind\":" + std::to_string(static_cast<int>(step.meta.kind));
      out += ",\"msg\":" + json_quote(step.meta.message);
      out += ",\"prov\":" + std::to_string(step.meta.provenance);
      out += ",\"from\":" + json_quote(step.meta.from_state);
      out += ",\"to\":" + json_quote(step.meta.to_state);
      out += ",\"atoms\":" +
             json_quote_array({step.meta.atoms.begin(), step.meta.atoms.end()});
      out += ",\"acts\":" +
             json_quote_array({step.meta.actions.begin(), step.meta.actions.end()});
      out += ",\"post\":[";
      for (std::size_t k = 0; k < step.post.size(); ++k) {
        if (k > 0) out += ',';
        out += std::to_string(step.post[k]);
      }
      out += "]}";
    }
    out += "]}";
  }
  out += '}';
  return out;
}

std::optional<PropertyOutcome> decode_outcome(std::string_view json) {
  std::optional<Json> v = json_parse(json);
  if (!v || !v->is(Json::Type::kObject)) return std::nullopt;
  if (v->get_str("kind") != "outcome") return std::nullopt;

  PropertyOutcome out;
  PropertyResult& r = out.result;
  r.property_id = v->get_str("id");
  if (r.property_id.empty()) return std::nullopt;
  r.attack_id = v->get_str("attack");
  std::optional<PropertyResult::Status> status = status_from_token(v->get_str("status"));
  if (!status) return std::nullopt;
  r.status = *status;
  r.note = v->get_str("note");
  r.iterations = static_cast<int>(v->get_int("iters"));
  out.attempts = static_cast<int>(v->get_int("attempts", 1));
  std::optional<FailureClass> failure = supervise::failure_from_token(v->get_str("failure"));
  if (!failure) return std::nullopt;
  out.failure = *failure;
  out.diagnostics = v->get_str("diag");

  std::optional<std::vector<std::string>> refs = strings_of(*v, "refs");
  if (!refs) return std::nullopt;
  r.refinements = std::move(*refs);
  if (const Json* equiv = v->find("equiv")) {
    if (!equiv->is(Json::Type::kObject)) return std::nullopt;
    cpv::EquivalenceVerdict eq;
    eq.distinguishable = equiv->get_bool("dist");
    eq.victim_response = equiv->get_str("victim");
    eq.other_response = equiv->get_str("other");
    eq.reason = equiv->get_str("reason");
    r.equivalence = std::move(eq);
  }
  if (const Json* cex = v->find("cex")) {
    if (!cex->is(Json::Type::kObject)) return std::nullopt;
    mc::CounterExample trace;
    const Json* steps = cex->find("steps");
    if (!steps || !steps->is(Json::Type::kArray)) return std::nullopt;
    for (const Json& item : steps->arr) {
      if (!item.is(Json::Type::kObject)) return std::nullopt;
      // The enums are cast from these, so only their own values pass.
      const long long actor = item.get_int("actor", -1);
      const long long ckind = item.get_int("ckind", -1);
      if (actor < 0 || actor > static_cast<int>(mc::CommandMeta::Actor::kAdversary) ||
          ckind < 0 || ckind > static_cast<int>(mc::CommandMeta::Kind::kReplay)) {
        return std::nullopt;
      }
      std::optional<std::vector<std::string>> atoms = strings_of(item, "atoms");
      std::optional<std::vector<std::string>> acts = strings_of(item, "acts");
      const Json* post = item.find("post");
      if (!atoms || !acts || (post && !post->is(Json::Type::kArray))) return std::nullopt;
      mc::TraceStep step;
      step.label = item.get_str("label");
      step.meta.actor = static_cast<mc::CommandMeta::Actor>(actor);
      step.meta.kind = static_cast<mc::CommandMeta::Kind>(ckind);
      step.meta.message = item.get_str("msg");
      step.meta.provenance = static_cast<int>(item.get_int("prov"));
      step.meta.from_state = item.get_str("from");
      step.meta.to_state = item.get_str("to");
      step.meta.atoms = {atoms->begin(), atoms->end()};
      step.meta.actions = {acts->begin(), acts->end()};
      if (post) {
        for (const Json& p : post->arr) {
          if (!p.is(Json::Type::kInt) || p.i != static_cast<std::int32_t>(p.i)) return std::nullopt;
          step.post.push_back(static_cast<std::int32_t>(p.i));
        }
      }
      trace.steps.push_back(std::move(step));
    }
    // The loop start indexes the steps.
    const long long loop = cex->get_int("loop", -1);
    if (loop < -1 || loop >= static_cast<long long>(trace.steps.size())) return std::nullopt;
    trace.loop_start = static_cast<int>(loop);
    r.counterexample = std::move(trace);
  }
  return out;
}

// --- The supervisor ---------------------------------------------------------

namespace {

FailureClass classify(const PropertyResult& r) {
  if (r.status != PropertyResult::Status::kInconclusive) return FailureClass::kNone;
  const mc::CheckStats& s = r.last_stats;
  if (s.mem_hit) return FailureClass::kMemCeiling;
  if (s.deadline_hit) return FailureClass::kDeadline;
  return FailureClass::kBudget;
}

PropertyOutcome exception_outcome(const PropertyDef& prop, int attempt,
                                  const std::string& what) {
  PropertyOutcome out;
  out.attempts = attempt;
  out.failure = FailureClass::kException;
  out.diagnostics = what;
  out.result.status = PropertyResult::Status::kInconclusive;
  out.result.property_id = prop.id;
  out.result.attack_id = prop.attack_id;
  out.result.note = "worker exception: " + what;
  return out;
}

/// One property under the watchdog + the shared retry ladder, every attempt
/// under `cegar`. Exceptions from the MC/CEGAR loop (or the test fault hook)
/// never escape.
PropertyOutcome run_one_property(const mc::ReachGraph& graph, const fsm::Fsm& ue_fsm,
                                 const PropertyDef& prop, const cpv::LteCryptoModel& crypto,
                                 const CegarOptions& cegar, const SupervisorOptions& options) {
  PropertyOutcome out;
  const supervise::Outcome ladder = supervise::run_attempts(
      {options.retries}, [&](int attempt) -> supervise::Attempt {
        if (options.fault_hook) options.fault_hook(prop.id, attempt);
        out.result = check_property(graph, ue_fsm, prop, crypto, cegar);
        const FailureClass failure = classify(out.result);
        return {failure, failure == FailureClass::kNone ? std::string() : out.result.note};
      });
  if (ladder.failure == FailureClass::kException) {
    out = exception_outcome(prop, ladder.attempts, ladder.diagnostics);
  } else {
    out.attempts = ladder.attempts;
    out.failure = ladder.failure;
    out.diagnostics = ladder.diagnostics;
  }
  // Retries exhausted: the last attempt's result stands as a structured
  // kInconclusive with the failure class embedded (never a propagated error).
  out.result.note += ladder.exhausted_note;
  return out;
}

/// True when every state of a journaled trace is a state of `model`: one
/// in-domain value per variable. Reports render these states, so a record
/// that fails is re-verified instead of adopted.
bool fits(const mc::Model& model, const PropertyOutcome& outcome) {
  if (!outcome.result.counterexample) return true;
  for (const mc::TraceStep& step : outcome.result.counterexample->steps) {
    if (step.post.size() != model.var_count()) return false;
    for (std::size_t v = 0; v < step.post.size(); ++v) {
      if (step.post[v] < 0 || step.post[v] >= model.domain(static_cast<int>(v))) return false;
    }
  }
  return true;
}

}  // namespace

SupervisedRun run_supervised(const threat::ThreatModel& tm, const fsm::Fsm& ue_fsm,
                             const std::vector<const PropertyDef*>& selected,
                             const cpv::LteCryptoModel::Options& crypto_options,
                             const CegarOptions& cegar, const SupervisorOptions& options) {
  SupervisedRun run;

  // Lock, header check and (on resume) the candidate records. A refused run
  // — journal held by a live process, or written under other options —
  // verifies nothing.
  RunJournal journal(options.journal_path, options.resume,
                     {"analyze", options.run_tag, options.options_hash});
  if (!journal.refusal().empty()) {
    run.aborted = true;
    run.abort_reason = journal.refusal();
    return run;
  }
  run.journal_error = journal.note();

  // One row per selected property, each filled below: adopted from the
  // journal, or recorded when its work item ends.
  run.outcomes.resize(selected.size());

  // --- Journal adoption (resume) -------------------------------------------
  std::map<std::string, PropertyOutcome> adopted;
  std::vector<std::string> kept;
  for (const std::string& payload : journal.records()) {
    std::optional<PropertyOutcome> outcome = decode_outcome(payload);
    if (!outcome || !fits(tm.model, *outcome)) continue;
    adopted[outcome->result.property_id] = std::move(*outcome);
    kept.push_back(payload);
  }
  journal.start(kept);
  std::mutex journal_mutex;

  std::vector<std::size_t> work;
  for (std::size_t i = 0; i < selected.size(); ++i) {
    auto it = adopted.find(selected[i]->id);
    if (it != adopted.end()) {
      run.outcomes[i] = it->second;
      run.outcomes[i].resumed = true;
      ++run.resumed;
    } else {
      work.push_back(i);
    }
  }

  // Outcomes are appended as they complete and the journal group-commits
  // them: a kill loses at most those since its last commit, and a resume
  // re-verifies them.
  auto record = [&](std::size_t i, PropertyOutcome outcome) {
    if (journal.enabled()) {
      std::lock_guard<std::mutex> lock(journal_mutex);
      journal.append(encode_outcome(outcome));
    }
    run.outcomes[i] = std::move(outcome);
  };

  // One reachable graph, built at the run's state cap, serves the whole
  // fan-out read-only. Adopted and inapplicable properties never touch it,
  // so when nothing else is left the build is skipped.
  mc::ReachGraph graph;
  const bool needed = std::any_of(work.begin(), work.end(), [&](std::size_t i) {
    return applicable(*selected[i], ue_fsm);
  });
  if (needed) {
    // The deadline is per property; the shared build is no one property's.
    mc::CheckOptions budget = check_options(cegar);
    budget.max_seconds = 0;
    try {
      graph = mc::ReachGraph::build(tm.model, budget);
    } catch (const std::exception& e) {
      // Contained like a worker crash: every property that needs the graph
      // gets an exception outcome; inapplicable ones never read it.
      std::vector<std::size_t> rest;
      for (std::size_t i : work) {
        if (applicable(*selected[i], ue_fsm)) {
          record(i, exception_outcome(*selected[i], 1, e.what()));
        } else {
          rest.push_back(i);
        }
      }
      work = std::move(rest);
    }
    run.graph_stats = graph.stats();
  }

  // One fan-out at every jobs level (parallel_for runs inline at jobs <= 1).
  // Every worker judges with the one verifier: it is immutable once built.
  const cpv::LteCryptoModel crypto(crypto_options);
  parallel_for(options.jobs, work.size(), [&](std::size_t k) {
    const std::size_t i = work[k];
    // Catch-all even outside run_one_property: a throwing task would reach
    // std::terminate through the pool, taking down the whole run.
    try {
      record(i, run_one_property(graph, ue_fsm, *selected[i], crypto, cegar, options));
    } catch (const std::exception& e) {
      record(i, exception_outcome(*selected[i], 1, e.what()));
    } catch (...) {
      record(i, exception_outcome(*selected[i], 1, "unknown exception type"));
    }
  });

  // Every verdict the report shows is durable.
  journal.commit();
  run.journal_records = journal.committed();
  if (!journal.error().empty()) run.journal_error = journal.error();
  return run;
}

}  // namespace procheck::checker
