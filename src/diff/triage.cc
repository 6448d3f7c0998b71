#include "diff/triage.h"

#include <algorithm>
#include <map>
#include <set>

#include "checker/prochecker.h"
#include "checker/property.h"
#include "checker/supervisor.h"
#include "threat/compose.h"

namespace procheck::diff {

namespace {

using checker::PropertyDef;

/// Both sides of a diff are UE machines: static matching sees each of their
/// edges as the metadata of the composer's UE commands for it.
constexpr mc::CommandMeta::Actor kUe = mc::CommandMeta::Actor::kUe;

bool property_matches(const PropertyDef& prop, const std::vector<mc::CommandMeta>& metas) {
  for (const mc::CommandMeta& m : metas) {
    if (prop.kind == PropertyDef::Kind::kEdgeNever) {
      if (prop.bad.matches_meta(m)) return true;
    } else if (prop.trigger.matches_meta(m) || prop.response.matches_meta(m)) {
      return true;
    }
  }
  return false;
}

/// Deviation-indicator atoms: predicates only a seeded implementation
/// deviation sets — the composer's replay-tolerance markers plus the
/// plain-after-context marker. A property anchored on one can violate
/// identically on both sides with no pairwise divergence at all (I6: every
/// profile carries the same smc_replay edge), so such properties enter the
/// candidate set whenever both sides statically match.
bool names_deviation_atom(const checker::MetaMatch& match) {
  for (const std::string& a : match.atoms_all) {
    if (threat::is_replay_tolerant_atom(a) || a == "plain_accepted_after_ctx=1") return true;
  }
  return false;
}

}  // namespace

void triage(DiffReport& report, const Side& left, const Side& right,
            const TriageOptions& options) {
  if (report.inconclusive || report.divergences.empty()) return;

  const std::vector<PropertyDef>& catalog = checker::property_catalog();

  // Metas per transition, resolved lazily by label (labels are injective
  // over a deduplicated deterministic machine).
  std::map<std::string, std::vector<mc::CommandMeta>> meta_cache;
  auto metas_for_edge = [&meta_cache](const fsm::Fsm& machine,
                                      const std::string& label) -> const std::vector<mc::CommandMeta>* {
    if (label == "-") return nullptr;
    auto it = meta_cache.find(label);
    if (it != meta_cache.end()) return &it->second;
    for (const fsm::Transition& t : machine.transitions()) {
      if (t.label() == label) {
        return &meta_cache.emplace(label, threat::transition_metas(t, kUe)).first->second;
      }
    }
    return nullptr;
  };

  // (1) Candidates from diverging edges, remembering which divergences each
  // property's matcher actually hit (for per-divergence attribution).
  std::set<std::string> candidates;
  std::map<std::string, std::set<std::size_t>> hits;
  for (std::size_t i = 0; i < report.divergences.size(); ++i) {
    const Divergence& d = report.divergences[i];
    for (const std::vector<mc::CommandMeta>* metas :
         {metas_for_edge(left.machine, d.left_edge),
          metas_for_edge(right.machine, d.right_edge)}) {
      if (metas == nullptr) continue;
      for (const PropertyDef& prop : catalog) {
        if (property_matches(prop, *metas)) {
          candidates.insert(prop.id);
          hits[prop.id].insert(i);
        }
      }
    }
  }

  // (2) Shared-deviation tier: attack-mapped never-claims anchored on a
  // deviation-indicator atom that statically match BOTH sides.
  for (const PropertyDef& prop : catalog) {
    if (prop.attack_id.empty() || prop.kind != PropertyDef::Kind::kEdgeNever) continue;
    if (!names_deviation_atom(prop.bad)) continue;
    bool both = true;
    for (const Side* side : {&left, &right}) {
      bool matched = false;
      for (const fsm::Transition& t : side->machine.transitions()) {
        if (property_matches(prop, threat::transition_metas(t, kUe))) {
          matched = true;
          break;
        }
      }
      both = both && matched;
    }
    if (both) candidates.insert(prop.id);
  }

  report.findings.clear();
  if (candidates.empty()) return;

  // (3) Model-check every candidate on both sides under the analysis
  // supervisor: crash isolation, watchdog deadlines, a tripped budget as a
  // structured inconclusive — and run_supervised's byte-determinism across
  // jobs levels.
  std::vector<const PropertyDef*> selected;
  for (const PropertyDef& prop : catalog) {
    if (candidates.count(prop.id) > 0) selected.push_back(&prop);
  }

  cpv::LteCryptoModel::Options crypto;  // no freshness-limit mitigation
  checker::CegarOptions cegar;
  cegar.max_states = options.max_states;
  cegar.max_seconds = options.deadline_per_property;
  cegar.cancel = options.cancel;
  checker::SupervisorOptions sup;
  sup.jobs = options.jobs;
  sup.retries = options.retries;

  auto verdicts = [&](const Side& side) {
    threat::ThreatModel tm = checker::ProChecker::build_threat_model(side.machine);
    return checker::run_supervised(tm, side.machine, selected, crypto, cegar, sup);
  };
  const checker::SupervisedRun lrun = verdicts(left);
  const checker::SupervisedRun rrun = verdicts(right);
  if (lrun.outcomes.size() != selected.size() || rrun.outcomes.size() != selected.size()) {
    report.inconclusive = true;
    report.note = "triage aborted: supervisor produced no verdicts";
    return;
  }

  // (4) Verdict matrix → findings; retained properties → attribution.
  std::set<std::string> retained;
  for (std::size_t k = 0; k < selected.size(); ++k) {
    using Status = checker::PropertyResult::Status;
    const checker::PropertyResult& lr = lrun.outcomes[k].result;
    const checker::PropertyResult& rr = rrun.outcomes[k].result;
    const bool lattack = lr.status == Status::kAttack;
    const bool rattack = rr.status == Status::kAttack;
    const bool linc = lr.status == Status::kInconclusive;
    const bool rinc = rr.status == Status::kInconclusive;

    Finding f;
    f.property_id = selected[k]->id;
    f.attack_id = selected[k]->attack_id;
    f.left_status = checker::status_token(lr.status);
    f.right_status = checker::status_token(rr.status);
    if (linc || rinc) {
      f.cls = Finding::Class::kInconclusive;
      f.note = linc ? lr.note : rr.note;
    } else if (lattack && rattack) {
      f.cls = Finding::Class::kCommon;
      f.violates = "both";
    } else if (lattack != rattack) {
      f.cls = Finding::Class::kDivergent;
      f.violates = lattack ? "left" : "right";
    } else {
      continue;  // verified/not-applicable on both sides: dismissed
    }
    retained.insert(f.property_id);
    report.findings.push_back(std::move(f));
  }

  for (std::size_t i = 0; i < report.divergences.size(); ++i) {
    Divergence& d = report.divergences[i];
    d.properties.clear();
    for (const PropertyDef* prop : selected) {
      if (retained.count(prop->id) == 0) continue;
      auto it = hits.find(prop->id);
      if (it != hits.end() && it->second.count(i) > 0) d.properties.push_back(prop->id);
    }
  }
}

}  // namespace procheck::diff
