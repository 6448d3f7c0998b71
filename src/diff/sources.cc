#include "diff/sources.h"

#include <fstream>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include "extractor/extractor.h"
#include "instrument/trace_log.h"
#include "learner/lstar.h"
#include "learner/sul.h"
#include "net/remote_sul.h"
#include "testing/conformance.h"
#include "ue/profile.h"

namespace procheck::diff {

namespace {

SideResult spec_error(const std::string& spec, const std::string& why) {
  SideResult r;
  r.error = "bad side spec '" + spec + "': " + why;
  return r;
}

/// Flat checking-model extraction from a trace log — the same surface
/// `prochecker extract --basic` produces and the analyzer model-checks.
fsm::Fsm extract_flat(const std::vector<instrument::LogRecord>& records,
                      const ue::StackProfile& profile) {
  extractor::ExtractionOptions opts;
  opts.initial_state = "EMM_DEREGISTERED";
  opts.chain_substates = false;
  return extractor::extract_basic(records, extractor::ue_signatures(profile), opts);
}

SideResult resolve_profile(const std::string& spec, const std::string& name) {
  std::optional<ue::StackProfile> profile = ue::StackProfile::by_name(name);
  if (!profile) return spec_error(spec, "unknown profile '" + name + "'");
  instrument::TraceLogger trace;
  testing::run_conformance(*profile, trace);
  SideResult r;
  r.ok = true;
  r.side.name = spec;
  r.side.machine = extract_flat(trace.records(), *profile);
  return r;
}

SideResult resolve_log(const std::string& spec, const std::string& arg) {
  // Optional leading "<profile>:" pins the handler-signature table.
  std::string path = arg;
  std::optional<ue::StackProfile> pinned;
  const std::size_t colon = arg.find(':');
  if (colon != std::string::npos) {
    if (std::optional<ue::StackProfile> p = ue::StackProfile::by_name(arg.substr(0, colon))) {
      pinned = std::move(p);
      path = arg.substr(colon + 1);
    }
  }
  std::ifstream in(path);
  if (!in) return spec_error(spec, "cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  std::vector<instrument::LogRecord> records = instrument::parse_log(ss.str());

  SideResult r;
  r.side.name = spec;
  if (pinned) {
    r.ok = true;
    r.side.machine = extract_flat(records, *pinned);
    return r;
  }
  // Signature-table auto-detection: the table that explains the most log
  // records wins (a wrong table drops its rival's deviation handlers on the
  // floor). Ties resolve in cls→srsue→oai order for determinism.
  fsm::Fsm best;
  std::size_t best_yield = 0;
  bool found = false;
  for (const char* name : {"cls", "srsue", "oai"}) {
    fsm::Fsm m = extract_flat(records, *ue::StackProfile::by_name(name));
    const std::size_t yield = m.stats().transitions;
    if (!found || yield > best_yield) {
      best = std::move(m);
      best_yield = yield;
      found = true;
    }
  }
  if (best_yield == 0) return spec_error(spec, "no extractable records in " + path);
  r.ok = true;
  r.side.machine = std::move(best);
  return r;
}

SideResult learned_side(const std::string& spec, learner::Sul& sul,
                        const SourceOptions& options, const std::string& degraded_hint) {
  learner::LearnOptions lopts;
  lopts.seed = options.learn_seed;
  learner::LearnResult result = learner::learn_mealy(sul, lopts);
  SideResult r;
  r.side.name = spec;
  if (result.inconclusive) {
    r.inconclusive = true;
    r.error = degraded_hint + result.note;
    return r;
  }
  r.ok = true;
  r.side.machine = result.machine.to_fsm();
  return r;
}

SideResult resolve_learn(const std::string& spec, const std::string& name,
                         const SourceOptions& options) {
  std::optional<ue::StackProfile> profile = ue::StackProfile::by_name(name);
  if (!profile) return spec_error(spec, "unknown profile '" + name + "'");
  learner::UeSul sul(*profile);
  return learned_side(spec, sul, options, "learning inconclusive: ");
}

SideResult resolve_remote(const std::string& spec, const std::string& endpoint,
                          const SourceOptions& options) {
  std::optional<std::pair<std::string, std::uint16_t>> ep = net::parse_endpoint(endpoint);
  if (!ep) return spec_error(spec, "expected remote:<host>:<port>");
  net::RemoteSulOptions ropts;
  ropts.host = ep->first;
  ropts.port = ep->second;
  ropts.psk = options.psk;
  if (options.batch_words >= 0) ropts.max_batch_words = options.batch_words;
  net::RemoteUeSul sul(ropts);
  // learn_mealy's note already names the SUL's unavailable_reason().
  return learned_side(spec, sul, options, "remote learning degraded: ");
}

}  // namespace

SideResult resolve_side(const std::string& spec, const SourceOptions& options) {
  const std::size_t colon = spec.find(':');
  if (colon == std::string::npos || colon + 1 >= spec.size()) {
    return spec_error(spec, "expected <profile|log|learn|remote>:<arg>");
  }
  const std::string scheme = spec.substr(0, colon);
  const std::string arg = spec.substr(colon + 1);
  if (scheme == "profile") return resolve_profile(spec, arg);
  if (scheme == "log") return resolve_log(spec, arg);
  if (scheme == "learn") return resolve_learn(spec, arg, options);
  if (scheme == "remote") return resolve_remote(spec, arg, options);
  return spec_error(spec, "unknown scheme '" + scheme + "'");
}

}  // namespace procheck::diff
