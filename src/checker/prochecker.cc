#include "checker/prochecker.h"

#include <chrono>

#include "checker/baseline.h"
#include "common/rng.h"
#include "common/thread_pool.h"

namespace procheck::checker {

int ImplementationReport::verified_count() const {
  int n = 0;
  for (const PropertyResult& r : results) {
    n += r.status == PropertyResult::Status::kVerified ? 1 : 0;
  }
  return n;
}

int ImplementationReport::attack_count() const {
  int n = 0;
  for (const PropertyResult& r : results) {
    n += r.status == PropertyResult::Status::kAttack ? 1 : 0;
  }
  return n;
}

int ImplementationReport::not_applicable_count() const {
  int n = 0;
  for (const PropertyResult& r : results) {
    n += r.status == PropertyResult::Status::kNotApplicable ? 1 : 0;
  }
  return n;
}

int ImplementationReport::inconclusive_count() const {
  int n = 0;
  for (const PropertyResult& r : results) {
    n += r.status == PropertyResult::Status::kInconclusive ? 1 : 0;
  }
  return n;
}

int ImplementationReport::contained_count() const {
  int n = 0;
  for (const PropertyOutcome& o : outcomes) {
    n += o.failure != FailureClass::kNone ? 1 : 0;
  }
  return n;
}

threat::ThreatModel ProChecker::build_threat_model(const fsm::Fsm& ue_fsm) {
  return threat::compose(ue_fsm, lteinspector_mme_model());
}

std::string analysis_options_hash(const AnalysisOptions& options,
                                  const ue::StackProfile& profile) {
  // Canonical text of every verdict-shaping knob, hashed with the repo's
  // keyed PRF to 16 hex digits. Field order is part of the format: changing
  // it (or adding a knob) intentionally invalidates old journals.
  std::string canon;
  canon += "max_states=" + std::to_string(options.max_states);
  canon += ";cegar=" + std::to_string(options.max_cegar_iterations);
  canon += ";retries=" + std::to_string(options.retries);
  // Retries repeat their attempt at full budget: a journal whose retries
  // ran at halved budgets has the bare text, and is refused.
  if (options.retries > 0) canon += "/repeat";
  canon += ";deadline=" + std::to_string(options.deadline_per_property);
  canon += ";mem=" + std::to_string(options.mem_ceiling_bytes);
  canon += ";freshness=";
  canon += profile.sqn_freshness_limit ? std::to_string(*profile.sqn_freshness_limit) : "none";
  canon += ";props=";
  for (const std::string& id : options.only_properties) {  // std::set: sorted
    canon += id;
    canon += ',';
  }
  return hex64(prf64(0x0A75BA5E, Bytes(canon.begin(), canon.end())));
}

namespace {

/// Fingerprint (16 hex digits) of a threat model: its variables, domain
/// value names and initial state, and each command's label, guard, updates
/// and meta, every field length-prefixed.
std::string model_digest(const mc::Model& model) {
  std::string canon;
  auto put = [&canon](const std::string& field) {
    canon += std::to_string(field.size()) + ':' + field;
  };
  auto put_set = [&put](const std::set<std::string>& fields) {
    put(std::to_string(fields.size()));
    for (const std::string& field : fields) put(field);
  };
  const mc::State init = model.initial();
  for (int v = 0; v < static_cast<int>(model.var_count()); ++v) {
    put(model.var_name(v) + '=' + std::to_string(init[v]) + '/' + std::to_string(model.domain(v)));
    for (std::int32_t x = 0; x < model.domain(v); ++x) put(model.value_name(v, x));
  }
  for (const mc::Command& cmd : model.commands()) {
    const mc::CommandMeta& meta = cmd.meta;
    put(cmd.label);
    put(cmd.guard.to_string());
    put(std::to_string(cmd.updates.size()));
    for (const mc::Assign& a : cmd.updates) {
      put(std::to_string(a.var) + '=' + std::to_string(a.value) + '<' + std::to_string(a.src));
    }
    put(std::to_string(static_cast<int>(meta.actor)) + ',' +
        std::to_string(static_cast<int>(meta.kind)) + ',' + std::to_string(meta.provenance));
    put(meta.message);
    put(meta.from_state);
    put(meta.to_state);
    put_set(meta.atoms);
    put_set(meta.actions);
  }
  return hex64(prf64(0x30DE1D16, Bytes(canon.begin(), canon.end())));
}

}  // namespace

ImplementationReport ProChecker::analyze(const ue::StackProfile& profile,
                                         const AnalysisOptions& options) {
  ImplementationReport report;
  report.profile_name = profile.name;

  // (1) Instrumented conformance execution → information-rich log.
  instrument::TraceLogger trace;
  report.conformance = testing::run_conformance(profile, trace);
  report.log_records = trace.records().size();

  // (2) Model extraction (both the substate-aware machine and the flat
  // predicate machine the checker consumes).
  extractor::Signatures sigs = extractor::ue_signatures(profile);
  extractor::ExtractionOptions rich_opts;
  rich_opts.initial_state = "EMM_DEREGISTERED";
  auto t0 = std::chrono::steady_clock::now();
  report.extracted = extractor::extract(trace.records(), sigs, rich_opts);
  extractor::ExtractionOptions flat_opts = rich_opts;
  flat_opts.chain_substates = false;
  report.checking_model = extractor::extract_basic(trace.records(), sigs, flat_opts);
  report.extraction_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  // (3) Threat instrumentation: IMP^μ = UE^μ ⊗ MME^μ ⊗ Dolev–Yao.
  threat::ThreatModel tm = build_threat_model(report.checking_model);

  // (4) MC ⇄ CPV over the property catalog, fanned across worker threads
  // under the analysis supervisor (crash isolation, watchdogs, retries,
  // journal/resume — DESIGN.md §11).
  //
  // The unit of parallelism is one property's whole CEGAR loop: refinement
  // state (banned commands) is strictly per-property, so workers share only
  // immutables — the ThreatModel and its reachable graph and the
  // cryptographic verifier (each built once by the supervisor), the
  // extracted FSM, and the catalog. Outcomes land in catalog order, making
  // the report byte-identical to a sequential run.
  cpv::LteCryptoModel::Options crypto_options;
  crypto_options.usim_freshness_limit = profile.sqn_freshness_limit.has_value();

  CegarOptions cegar;
  cegar.max_states = options.max_states;
  cegar.max_iterations = options.max_cegar_iterations;
  cegar.max_seconds = options.deadline_per_property;
  cegar.max_visited_bytes = options.mem_ceiling_bytes;

  std::vector<const PropertyDef*> selected;
  for (const PropertyDef& prop : property_catalog()) {
    if (!options.only_properties.empty() && options.only_properties.count(prop.id) == 0) {
      continue;
    }
    selected.push_back(&prop);
  }

  SupervisorOptions sup;
  sup.retries = options.retries;
  sup.journal_path = options.journal_path;
  sup.resume = options.resume;
  sup.run_tag = profile.name;
  sup.options_hash = analysis_options_hash(options, profile);
  // A journal also binds the model its verdicts were computed on, so a
  // resume after the stack or the composer changed is refused.
  if (!options.journal_path.empty()) sup.options_hash += "." + model_digest(tm.model);
  sup.jobs = options.jobs > 0 ? static_cast<std::size_t>(options.jobs)
                              : ThreadPool::default_parallelism();
  sup.fault_hook = options.fault_hook;

  SupervisedRun run =
      run_supervised(tm, report.checking_model, selected, crypto_options, cegar, sup);
  if (run.aborted) {
    report.aborted = true;
    report.abort_reason = std::move(run.abort_reason);
    return report;
  }
  report.resumed_count = run.resumed;
  report.graph_stats = run.graph_stats;
  report.journal_error = std::move(run.journal_error);

  for (PropertyOutcome& outcome : run.outcomes) {
    const PropertyResult& r = outcome.result;
    if (r.status == PropertyResult::Status::kAttack && !r.attack_id.empty()) {
      report.attacks_found.insert(r.attack_id);
    }
    report.results.push_back(r);
    report.outcomes.push_back(std::move(outcome));
  }
  return report;
}

}  // namespace procheck::checker
