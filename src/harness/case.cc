#include "harness/case.h"

#include <algorithm>
#include <fstream>
#include <memory>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "common/macros.h"
#include "common/testonly_mutation.h"
#include "core/site.h"
#include "harness/history.h"
#include "sim/latency_model.h"

namespace samya::harness {

namespace {

constexpr char kFormat[] = "samya-case-v1";

/// Client regions of every deployment (Experiment::AddClients); a case may
/// script at most this many.
constexpr size_t kMaxScripts = sim::kPaperRegions.size();

struct SystemIdEntry {
  const char* id;
  SystemKind kind;
};

constexpr SystemIdEntry kSystemIds[] = {
    {"samya_majority", SystemKind::kSamyaMajority},
    {"samya_any", SystemKind::kSamyaAny},
    {"multipaxsys", SystemKind::kMultiPaxSys},
    {"cockroach_like", SystemKind::kCockroachLike},
    {"demarcation", SystemKind::kDemarcation},
    {"site_escrow", SystemKind::kSiteEscrow},
    {"samya_no_constraint", SystemKind::kSamyaNoConstraint},
    {"samya_no_redistribution", SystemKind::kSamyaNoRedistribution},
    {"samya_majority_no_predict", SystemKind::kSamyaMajorityNoPredict},
    {"samya_any_no_predict", SystemKind::kSamyaAnyNoPredict},
    {"bounded_counter", SystemKind::kBoundedCounter},
};

const char* RequestTypeName(workload::Request::Type t) {
  switch (t) {
    case workload::Request::Type::kAcquire:
      return "acquire";
    case workload::Request::Type::kRelease:
      return "release";
    case workload::Request::Type::kRead:
      return "read";
  }
  return "acquire";
}

bool RequestTypeFromName(const std::string& name,
                         workload::Request::Type* out) {
  if (name == "acquire") {
    *out = workload::Request::Type::kAcquire;
  } else if (name == "release") {
    *out = workload::Request::Type::kRelease;
  } else if (name == "read") {
    *out = workload::Request::Type::kRead;
  } else {
    return false;
  }
  return true;
}

/// The invariant auditor models Eq. 1 over Samya site pools and
/// bounded-counter balances; other systems (and Samya with the constraint
/// off, which promises no bound) run unaudited.
bool AuditorModels(SystemKind kind) {
  return kind == SystemKind::kBoundedCounter ||
         (IsSamyaVariant(kind) && kind != SystemKind::kSamyaNoConstraint);
}

/// Per-system history-check preset (lin_check.h). Returns false when the
/// system has no checkable token spec (kSamyaNoConstraint promises nothing).
bool CheckPresetFor(SystemKind kind, int64_t max_tokens, CheckOptions* out) {
  switch (kind) {
    case SystemKind::kMultiPaxSys:
    case SystemKind::kCockroachLike:
      *out = CheckOptions::Replicated(max_tokens);
      return true;
    case SystemKind::kDemarcation:
    case SystemKind::kSiteEscrow:
    case SystemKind::kBoundedCounter:
      *out = CheckOptions::Bounded(max_tokens);
      return true;
    case SystemKind::kSamyaNoConstraint:
      return false;  // promises no bound at all (Fig 3e upper line)
    default:
      *out = CheckOptions::Samya(max_tokens);
      return true;
  }
}

/// FNV-1a fold of the live system state, installed as the oracle's state
/// function: decision contexts that agree on it (and on the candidate set)
/// lead to identical subtrees, which is what DFS pruning keys on. Only
/// counters that are stable between events go in — nothing clock-derived.
uint64_t DigestState(const Experiment& e) {
  uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (const core::Site* s : e.samya_sites()) {
    mix(static_cast<uint64_t>(s->tokens_left()));
    mix(s->frozen() ? 0x9e3779b97f4a7c15ull : 0);
    mix(s->queue_depth());
    mix(s->stats().committed_acquires);
    mix(s->stats().committed_releases);
    mix(s->stats().rejected);
    mix(s->stats().instances_completed);
    mix(s->stats().instances_aborted);
  }
  return h;
}

void TrimTrailingZeros(std::vector<uint32_t>* v) {
  while (!v->empty() && v->back() == 0) v->pop_back();
}

}  // namespace

const char* SystemIdName(SystemKind kind) {
  for (const auto& e : kSystemIds) {
    if (e.kind == kind) return e.id;
  }
  return "unknown";
}

bool SystemKindFromId(const std::string& id, SystemKind* out) {
  for (const auto& e : kSystemIds) {
    if (id == e.id) {
      *out = e.kind;
      return true;
    }
  }
  return false;
}

JsonValue Case::ToJson() const {
  JsonValue doc = JsonValue::MakeObject();
  doc.Set("format", kFormat);
  doc.Set("system", SystemIdName(system));
  doc.Set("seed", static_cast<int64_t>(seed));
  doc.Set("num_sites", static_cast<int64_t>(num_sites));
  doc.Set("max_tokens", max_tokens);
  doc.Set("duration_us", duration);
  doc.Set("window_us", window);
  // Optional fields are written only when set, so the common case stays
  // short and a regenerated file diffs minimally.
  if (!quiescence_guard) doc.Set("quiescence_guard", false);
  if (disconnected_mode) doc.Set("disconnected_mode", true);
  if (!mutation.empty()) doc.Set("mutation", mutation);
  if (!violation_check.empty()) doc.Set("violation_check", violation_check);
  if (!note.empty()) doc.Set("note", note);
  if (!scripts.empty()) {
    JsonValue regions = JsonValue::MakeArray();
    for (const auto& script : scripts) {
      JsonValue ops = JsonValue::MakeArray();
      for (const workload::Request& q : script) {
        JsonValue op = JsonValue::MakeObject();
        op.Set("at_us", q.at);
        op.Set("type", RequestTypeName(q.type));
        op.Set("amount", q.amount);
        ops.Append(std::move(op));
      }
      regions.Append(std::move(ops));
    }
    doc.Set("scripts", std::move(regions));
  }
  if (!schedule.empty()) doc.Set("schedule", schedule.ToJson());
  if (!choices.empty()) {
    JsonValue ch = JsonValue::MakeArray();
    for (uint32_t x : choices) ch.Append(static_cast<int64_t>(x));
    doc.Set("choices", std::move(ch));
  }
  return doc;
}

Result<Case> Case::FromJson(const JsonValue& v) {
  if (!v.is_object()) return Status::InvalidArgument("case: not an object");
  const std::string format = v.GetString("format", "");
  if (format != kFormat) {
    return Status::InvalidArgument("case: unknown format '" + format + "'");
  }
  Case c;
  if (!SystemKindFromId(v.GetString("system", ""), &c.system)) {
    return Status::InvalidArgument("case: unknown system '" +
                                   v.GetString("system", "") + "'");
  }
  c.seed = static_cast<uint64_t>(v.GetInt("seed", 1));
  const int64_t num_sites = v.GetInt("num_sites", 5);
  if (num_sites < 1) {
    return Status::InvalidArgument("case: num_sites " +
                                   std::to_string(num_sites) + " < 1");
  }
  c.num_sites = static_cast<int>(num_sites);
  c.max_tokens = v.GetInt("max_tokens", 5000);
  c.duration = v.GetInt("duration_us", Seconds(50));
  c.window = v.GetInt("window_us", Millis(5));
  c.quiescence_guard = v.GetBool("quiescence_guard", true);
  c.disconnected_mode = v.GetBool("disconnected_mode", false);
  c.mutation = v.GetString("mutation", "");
  c.violation_check = v.GetString("violation_check", "");
  c.note = v.GetString("note", "");
  if (const JsonValue* regions = v.Find("scripts")) {
    if (!regions->is_array()) {
      return Status::InvalidArgument("case: scripts not an array");
    }
    if (regions->as_array().size() > kMaxScripts) {
      return Status::InvalidArgument(
          "case: " + std::to_string(regions->as_array().size()) +
          " scripts, but the deployment has " + std::to_string(kMaxScripts) +
          " client regions");
    }
    for (const JsonValue& script : regions->as_array()) {
      if (!script.is_array()) {
        return Status::InvalidArgument("case: script not an array");
      }
      std::vector<workload::Request> ops;
      for (const JsonValue& op : script.as_array()) {
        workload::Request q;
        q.at = op.GetInt("at_us", 0);
        q.amount = op.GetInt("amount", 1);
        if (!RequestTypeFromName(op.GetString("type", ""), &q.type)) {
          return Status::InvalidArgument("case: unknown op type '" +
                                         op.GetString("type", "") + "'");
        }
        ops.push_back(q);
      }
      c.scripts.push_back(std::move(ops));
    }
  }
  if (const JsonValue* sched = v.Find("schedule")) {
    SAMYA_ASSIGN_OR_RETURN(c.schedule, sim::FaultSchedule::FromJson(*sched));
  }
  if (const JsonValue* ch = v.Find("choices")) {
    if (!ch->is_array()) {
      return Status::InvalidArgument("case: choices not an array");
    }
    for (const JsonValue& x : ch->as_array()) {
      if (!x.is_int() || x.as_int() < 0) {
        return Status::InvalidArgument("case: bad choice entry");
      }
      c.choices.push_back(static_cast<uint32_t>(x.as_int()));
    }
  }
  return c;
}

Result<Case> LoadCase(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::Unavailable("cannot read " + path);
  std::stringstream buf;
  buf << in.rdbuf();
  SAMYA_ASSIGN_OR_RETURN(JsonValue doc, JsonParse(buf.str()));
  return Case::FromJson(doc);
}

Status WriteCase(const Case& c, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::Unavailable("cannot open " + path + " for writing");
  out << JsonDump(c.ToJson(), /*indent=*/2);
  if (!out) return Status::Unavailable("short write to " + path);
  return Status::OK();
}

std::vector<std::vector<workload::Request>> ContentionScripts(
    int64_t max_tokens) {
  using workload::Request;
  // All requests are unit-amount, like the Azure trace the rest of the
  // harness plays (1 request == 1 token): the auditor's conservation ledger
  // and the client balance guard both count committed requests.
  //
  // Each site starts with ~share tokens; region 0's second burst overdraws
  // its local pool, forcing a reactive Avantan round right while the other
  // regions' traffic is in flight. Scaling with M keeps the scenario small
  // for DFS exhaustion (e.g. M=7 => 13 ops) and contended for sweeps
  // (M=31 => 45 ops).
  const int64_t share = std::max<int64_t>(max_tokens / 3, 2);
  const auto burst = [](std::vector<Request>* s, SimTime start, int64_t count,
                        Request::Type type) {
    for (int64_t k = 0; k < count; ++k) {
      s->push_back(Request{start + Millis(2) * k, type, 1});
    }
  };
  std::vector<std::vector<Request>> scripts(3);
  burst(&scripts[0], Millis(50), share - 1, Request::Type::kAcquire);
  burst(&scripts[0], Millis(600), share, Request::Type::kAcquire);
  burst(&scripts[0], Millis(1500), 2, Request::Type::kRelease);
  burst(&scripts[0], Millis(2500), 1, Request::Type::kRead);
  burst(&scripts[1], Millis(55), share / 2, Request::Type::kAcquire);
  burst(&scripts[1], Millis(1200), share / 2, Request::Type::kRelease);
  burst(&scripts[1], Millis(2600), 1, Request::Type::kRead);
  burst(&scripts[2], Millis(60), share - 1, Request::Type::kAcquire);
  burst(&scripts[2], Millis(800), 2, Request::Type::kAcquire);
  burst(&scripts[2], Millis(1600), 1, Request::Type::kRelease);
  return scripts;
}

Case ContentionCase(SystemKind system, int64_t max_tokens) {
  Case c;
  c.system = system;
  c.num_sites = 3;
  c.max_tokens = max_tokens;
  c.duration = Seconds(3);
  c.scripts = ContentionScripts(max_tokens);
  return c;
}

Case MakeNemesisCase(SystemKind system, uint64_t seed, double intensity,
                     int num_sites, double isolate, bool disconnected_mode) {
  Case c;
  c.system = system;
  c.seed = seed;
  c.num_sites = num_sites;
  c.disconnected_mode = disconnected_mode;
  sim::NemesisOptions nopts;
  nopts.horizon = Seconds(40);
  nopts.heal_margin = Seconds(8);
  nopts.intensity = intensity;
  nopts.isolate_waves = isolate;
  for (int i = 0; i < c.num_sites; ++i) {
    nopts.nodes.push_back(static_cast<sim::NodeId>(i));
    // Isolation cuts the whole region island: the site, its co-located app
    // manager (id n + region) and client (id n + 5 + region), matching the
    // deployment layout every Setup* function produces.
    nopts.isolate_islands.push_back(
        {static_cast<sim::NodeId>(i),
         static_cast<sim::NodeId>(num_sites + i % 5),
         static_cast<sim::NodeId>(num_sites + 5 + i % 5)});
  }
  c.schedule = sim::GenerateSchedule(nopts, seed);
  return c;
}

ExperimentOptions MakeCaseOptions(const Case& c) {
  ExperimentOptions o;
  o.system = c.system;
  o.num_sites = c.num_sites;
  o.max_tokens = c.max_tokens;
  o.duration = c.duration;
  o.seed = c.seed;
  o.fault_schedule = c.schedule;
  o.site_template.enable_disconnected_mode = c.disconnected_mode;
  o.scripts_override = c.scripts;
  // Scripted cases run reactive-only: proactive prediction would schedule
  // epoch redistributions unrelated to the scripted ops, bloating the
  // schedule space under DFS.
  if (!c.scripts.empty()) o.site_template.enable_prediction = false;
  if (AuditorModels(c.system)) {
    o.audit.enabled = true;
    o.audit.require_quiescence = c.quiescence_guard;
    // The terminal heal block is the last scheduled op; with it gone (e.g.
    // a shrunken schedule) the latest remaining op still bounds the fault
    // era. No ops: the liveness checks stay disarmed.
    for (const sim::FaultOp& op : c.schedule.ops) {
      o.audit.heal_time = std::max(o.audit.heal_time, op.at);
    }
    o.audit.load_end = c.duration;
  }
  // Always-armed flight recorder (DESIGN.md §13): a violating run's own
  // result then carries the protocol history the post-mortem bundle needs,
  // with no second run. Pure observer — replays stay bit-identical.
  o.obs.flight_recorder = true;
  return o;
}

bool CaseResult::Fails(const std::string& name) const {
  if (name.empty()) return violated();
  for (const AuditViolation& v : violations) {
    if (v.check == name) return true;
  }
  return !check.ok && (name == "linearizability" || name == "bounded_safety");
}

CaseResult RunCase(const Case& c, sim::ScheduleOracle* oracle) {
  const bool scripted = !c.scripts.empty();
  std::unique_ptr<sim::ScheduleOracle> owned;
  if (oracle == nullptr && (scripted || !c.choices.empty())) {
    owned = std::make_unique<sim::ReplayOracle>(c.choices);
    oracle = owned.get();
  }
  if (oracle != nullptr) oracle->set_window(c.window);

  if (!c.mutation.empty()) SetMutationForTest(c.mutation.c_str(), true);
  HistoryRecorder history;
  ExperimentOptions opts = MakeCaseOptions(c);
  opts.oracle = oracle;
  if (scripted) opts.history = &history;
  Experiment e(opts);
  e.Setup();
  if (oracle != nullptr) {
    oracle->set_state_hash_fn([&e]() { return DigestState(e); });
  }
  CaseResult out(e.Run());
  if (!c.mutation.empty()) SetMutationForTest(c.mutation.c_str(), false);

  if (oracle != nullptr) {
    oracle->set_state_hash_fn(nullptr);
    out.trace = oracle->trace();
    out.choices.reserve(out.trace.size());
    for (const sim::ChoicePoint& cp : out.trace) {
      out.choices.push_back(cp.chosen);
    }
  }
  out.ops_recorded = history.size();
  CheckOptions copts;
  const bool checkable =
      scripted && CheckPresetFor(c.system, c.max_tokens, &copts);
  if (checkable) out.check = CheckHistory(history.History(/*entity=*/0), copts);
  if (!out.violations.empty()) {
    out.failed_check = out.violations.front().check;
  } else if (checkable && !out.check.ok) {
    out.failed_check = copts.mode == CheckOptions::Mode::kBoundedSafety
                           ? "bounded_safety"
                           : "linearizability";
  }
  return out;
}

Case MinimizeCase(const Case& c, int max_runs, int* runs_used) {
  int runs = 0;
  Case out = c;
  const auto fails = [&c](const Case& candidate) {
    return RunCase(candidate).Fails(c.violation_check);
  };
  out.schedule.ops = Ddmin(
      c.schedule.ops,
      [&](const std::vector<sim::FaultOp>& ops) {
        Case candidate = out;
        candidate.schedule.ops = ops;
        return fails(candidate);
      },
      max_runs, &runs);
  // Removing a choice shifts the later decisions earlier, which ReplayOracle
  // tolerates (clamping), so every candidate subset is a runnable schedule.
  TrimTrailingZeros(&out.choices);
  out.choices = Ddmin(
      out.choices,
      [&](const std::vector<uint32_t>& choices) {
        Case candidate = out;
        candidate.choices = choices;
        return fails(candidate);
      },
      max_runs, &runs);
  if (runs_used != nullptr) *runs_used = runs;
  return out;
}

DfsStats ExploreDfs(const Case& base, const DfsOptions& dopts) {
  DfsStats st;
  std::vector<std::vector<uint32_t>> frontier;
  frontier.push_back({});
  std::unordered_set<uint64_t> seen_runs;
  std::unordered_set<uint64_t> seen_states;

  while (!frontier.empty() && st.runs < dopts.max_runs) {
    const std::vector<uint32_t> prefix = std::move(frontier.back());
    frontier.pop_back();

    sim::ReplayOracle oracle(prefix);
    const CaseResult r = RunCase(base, &oracle);
    ++st.runs;

    uint64_t sig = 1469598103934665603ull;
    for (const sim::ChoicePoint& cp : r.trace) {
      sig ^= cp.state_hash + cp.chosen;
      sig *= 1099511628211ull;
      seen_states.insert(cp.state_hash);
    }
    st.states = seen_states.size();

    if (r.violated()) {
      ++st.violations;
      if (st.failing_choices.empty() && st.failed_check.empty()) {
        st.failed_check = r.failed_check;
        st.failing_choices = r.choices;
        TrimTrailingZeros(&st.failing_choices);
      }
    }

    if (dopts.prune_states && !seen_runs.insert(sig).second) {
      ++st.prunes;
      continue;
    }

    // Branch at every decision index past the forced prefix (the recorded
    // choices up to index j are the prefix plus FIFO zeros, so each child
    // prefix pins a distinct first deviation — every bounded choice
    // sequence is generated exactly once).
    const size_t lo = prefix.size();
    const size_t hi = std::min<size_t>(r.trace.size(), dopts.max_depth);
    for (size_t j = lo; j < hi; ++j) {
      for (uint32_t alt = 1; alt < r.trace[j].num_candidates; ++alt) {
        std::vector<uint32_t> child(
            r.choices.begin(),
            r.choices.begin() + static_cast<ptrdiff_t>(j));
        child.push_back(alt);
        frontier.push_back(std::move(child));
        st.deepest_branch =
            std::max(st.deepest_branch, static_cast<uint32_t>(j + 1));
      }
    }
  }
  st.exhausted = frontier.empty();
  return st;
}

}  // namespace samya::harness
