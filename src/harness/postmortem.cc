#include "harness/postmortem.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <utility>

namespace samya::harness {

namespace {

JsonValue ViolationToJson(const AuditViolation& v) {
  JsonValue doc = JsonValue::MakeObject();
  doc.Set("at", v.at);
  doc.Set("check", v.check);
  doc.Set("detail", v.detail);
  return doc;
}

AuditViolation ViolationFromJson(const JsonValue& v) {
  AuditViolation out;
  out.at = v.GetInt("at", 0);
  out.check = v.GetString("check", "");
  out.detail = v.GetString("detail", "");
  return out;
}

Result<obs::FlightEvent> FlightEventFromJson(const JsonValue& v) {
  if (!v.is_object()) {
    return Status::InvalidArgument("flight event: not an object");
  }
  obs::FlightEvent ev;
  ev.at = v.GetInt("at", 0);
  ev.site = static_cast<int32_t>(v.GetInt("site", -1));
  ev.seq = static_cast<uint32_t>(v.GetInt("seq", 0));
  const std::string kind = v.GetString("kind", "");
  if (!obs::FlightRecorder::KindFromName(kind, &ev.kind)) {
    return Status::InvalidArgument("flight event: unknown kind '" + kind +
                                   "'");
  }
  ev.code = static_cast<uint16_t>(v.GetInt("code", 0));
  ev.a = v.GetInt("a", 0);
  ev.b = v.GetInt("b", 0);
  ev.c = v.GetInt("c", 0);
  return ev;
}

}  // namespace

JsonValue PostmortemBundle::ToJson() const {
  JsonValue doc = JsonValue::MakeObject();
  doc.Set("format", "samya-postmortem-v1");
  doc.Set("source", source);
  doc.Set("failed_check", failed_check);
  doc.Set("dropped_violations", static_cast<int64_t>(dropped_violations));
  JsonValue vs = JsonValue::MakeArray();
  for (const AuditViolation& v : violations) vs.Append(ViolationToJson(v));
  doc.Set("violations", std::move(vs));
  // Sections are emitted even when null so a loaded-and-rewritten bundle is
  // byte-identical regardless of which sections the producer had.
  doc.Set("reproducer", reproducer);
  doc.Set("metrics", metrics);
  doc.Set("flight", flight);
  return doc;
}

Result<PostmortemBundle> PostmortemBundle::FromJson(const JsonValue& v) {
  if (!v.is_object()) {
    return Status::InvalidArgument("postmortem: not an object");
  }
  const std::string format = v.GetString("format", "");
  if (format != "samya-postmortem-v1") {
    return Status::InvalidArgument("postmortem: unknown format '" + format +
                                   "'");
  }
  PostmortemBundle b;
  b.source = v.GetString("source", "");
  b.failed_check = v.GetString("failed_check", "");
  b.dropped_violations =
      static_cast<uint64_t>(v.GetInt("dropped_violations", 0));
  if (const JsonValue* vs = v.Find("violations"); vs != nullptr) {
    if (!vs->is_array()) {
      return Status::InvalidArgument("postmortem: violations not an array");
    }
    for (const JsonValue& item : vs->as_array()) {
      b.violations.push_back(ViolationFromJson(item));
    }
  }
  if (const JsonValue* r = v.Find("reproducer")) b.reproducer = *r;
  if (const JsonValue* m = v.Find("metrics")) b.metrics = *m;
  if (const JsonValue* f = v.Find("flight")) b.flight = *f;
  return b;
}

PostmortemBundle MakePostmortem(const std::string& source,
                                JsonValue reproducer, const CaseResult& r) {
  PostmortemBundle b;
  b.source = source;
  b.failed_check = r.failed_check;
  b.reproducer = std::move(reproducer);
  b.violations = r.violations;
  b.dropped_violations = r.dropped_violations;
  if (!r.check.ok) {
    AuditViolation v;
    // With no auditor violations, failed_check IS the checker's verdict
    // name ("linearizability" / "bounded_safety"); otherwise it names the
    // auditor check and the history verdict is a second, distinct finding.
    v.check = r.violations.empty() ? r.failed_check : "history_check";
    v.detail = r.check.violation;
    b.violations.push_back(std::move(v));
  }
  if (r.obs != nullptr) {
    b.metrics = BuildMetricsSnapshot(r);
    if (const obs::FlightRecorder* flight = r.obs->flight()) {
      b.flight = flight->ToJson();
    }
  }
  return b;
}

Status WritePostmortem(const PostmortemBundle& b, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::Unavailable("cannot open " + path + " for writing");
  out << JsonDump(b.ToJson(), 2) << "\n";
  if (!out) return Status::Unavailable("short write to " + path);
  return Status::OK();
}

Result<PostmortemBundle> LoadPostmortem(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::Unavailable("cannot open " + path);
  std::stringstream buf;
  buf << in.rdbuf();
  SAMYA_ASSIGN_OR_RETURN(JsonValue doc, JsonParse(buf.str()));
  return PostmortemBundle::FromJson(doc);
}

Result<std::vector<obs::FlightEvent>> FlightEventsOf(
    const PostmortemBundle& b) {
  std::vector<obs::FlightEvent> out;
  if (b.flight.is_null()) return out;
  if (!b.flight.is_object()) {
    return Status::InvalidArgument("postmortem: flight not an object");
  }
  const JsonValue* events = b.flight.Find("events");
  if (events == nullptr || !events->is_array()) {
    return Status::InvalidArgument("postmortem: flight has no events array");
  }
  out.reserve(events->as_array().size());
  for (const JsonValue& item : events->as_array()) {
    SAMYA_ASSIGN_OR_RETURN(obs::FlightEvent ev, FlightEventFromJson(item));
    out.push_back(ev);
  }
  return out;
}

SimTime FlightCompleteFrom(const PostmortemBundle& b) {
  if (!b.flight.is_object()) return 0;
  return b.flight.GetInt("complete_from", 0);
}

std::string FormatFlightEvent(const obs::FlightEvent& ev) {
  char buf[192];
  const char* kind = obs::FlightRecorder::KindName(ev.kind);
  const char* code = obs::FlightRecorder::CodeName(ev.kind, ev.code);
  int n = std::snprintf(buf, sizeof(buf), "t=%" PRId64 "us site=%d %s", ev.at,
                        ev.site, kind);
  if (code[0] != '\0') {
    n += std::snprintf(buf + n, sizeof(buf) - static_cast<size_t>(n), "/%s",
                       code);
  } else if (ev.code != 0) {
    n += std::snprintf(buf + n, sizeof(buf) - static_cast<size_t>(n),
                       "/code%u", ev.code);
  }
  // Trailing zero payload fields carry no information; keep lines short.
  const int fields = ev.c != 0 ? 3 : (ev.b != 0 ? 2 : (ev.a != 0 ? 1 : 0));
  const char* names[] = {"a", "b", "c"};
  const int64_t values[] = {ev.a, ev.b, ev.c};
  for (int i = 0; i < fields; ++i) {
    n += std::snprintf(buf + n, sizeof(buf) - static_cast<size_t>(n),
                       " %s=%" PRId64, names[i], values[i]);
  }
  return std::string(buf, static_cast<size_t>(n));
}

PostmortemDiff DiffPostmortems(const PostmortemBundle& a,
                               const PostmortemBundle& b) {
  PostmortemDiff d;
  Result<std::vector<obs::FlightEvent>> ea = FlightEventsOf(a);
  Result<std::vector<obs::FlightEvent>> eb = FlightEventsOf(b);
  if (!ea.ok() || !eb.ok() || a.flight.is_null() || b.flight.is_null()) {
    return d;  // not comparable
  }
  d.comparable = true;
  // A wrapped ring is complete only from complete_from on; comparing the
  // union of both windows would flag the missing prefix as divergence.
  d.compare_from = std::max(FlightCompleteFrom(a), FlightCompleteFrom(b));
  const auto trim = [&](std::vector<obs::FlightEvent>& evs) {
    size_t keep = 0;
    for (const obs::FlightEvent& ev : evs) {
      if (ev.at >= d.compare_from) evs[keep++] = ev;
    }
    evs.resize(keep);
  };
  std::vector<obs::FlightEvent>& va = ea.value();
  std::vector<obs::FlightEvent>& vb = eb.value();
  trim(va);
  trim(vb);
  const size_t common = std::min(va.size(), vb.size());
  for (size_t i = 0; i < common; ++i) {
    if (!(va[i] == vb[i])) {
      d.diverged = true;
      d.divergence_index = i;
      d.event_a = FormatFlightEvent(va[i]);
      d.event_b = FormatFlightEvent(vb[i]);
      d.compared = i;
      return d;
    }
  }
  d.compared = common;
  if (va.size() != vb.size()) {
    d.diverged = true;
    d.divergence_index = common;
    d.event_a = common < va.size() ? FormatFlightEvent(va[common])
                                   : std::string("<end of history>");
    d.event_b = common < vb.size() ? FormatFlightEvent(vb[common])
                                   : std::string("<end of history>");
  }
  return d;
}

bool FlightSpan::is_round() const {
  return std::strcmp(category, "round") == 0;
}

bool FlightSpan::operator==(const FlightSpan& o) const {
  return std::strcmp(name, o.name) == 0 &&
         std::strcmp(category, o.category) == 0 && site == o.site &&
         instance == o.instance && start == o.start && end == o.end &&
         aborted == o.aborted;
}

std::vector<FlightSpan> DeriveFlightSpans(
    const std::vector<obs::FlightEvent>& events) {
  struct OpenRound {
    SimTime start = 0;
    bool leader = false;
    std::vector<FlightSpan> phases;  ///< the last one is still open
  };
  std::map<std::pair<int32_t, int64_t>, OpenRound> open;
  std::vector<FlightSpan> out;
  for (const obs::FlightEvent& ev : events) {
    if (ev.kind != obs::FlightKind::kPhase) continue;
    const std::pair<int32_t, int64_t> key{ev.site, ev.a};
    if (ev.code == obs::kPhaseEngage) {
      open[key] = OpenRound{ev.at, false, {}};
      continue;
    }
    const char* phase = nullptr;
    switch (ev.code) {
      case obs::kPhaseElectionStart: phase = "election"; break;
      case obs::kPhaseRecoveryStart: phase = "recovery"; break;
      case obs::kPhaseAcceptStart: phase = "accept"; break;
      case obs::kPhaseDecided: phase = "decided"; break;
      case obs::kPhaseFinish:
      case obs::kPhaseAbort: break;
      default: continue;  // apply / recovery_conclude cut nothing
    }
    auto it = open.find(key);
    if (it == open.end()) continue;  // engage evicted, or never engaged
    OpenRound& round = it->second;
    if (!round.phases.empty()) round.phases.back().end = ev.at;
    if (phase != nullptr) {
      round.leader = round.leader || ev.code == obs::kPhaseElectionStart ||
                     ev.code == obs::kPhaseRecoveryStart;
      round.phases.push_back(FlightSpan{.name = phase,
                                        .category = "phase",
                                        .site = ev.site,
                                        .instance = ev.a,
                                        .start = ev.at});
      continue;
    }
    out.push_back(FlightSpan{
        .name = round.leader ? "round.leader" : "round.cohort",
        .category = "round",
        .site = ev.site,
        .instance = ev.a,
        .start = round.start,
        .end = ev.at,
        .aborted = ev.code == obs::kPhaseAbort});
    out.insert(out.end(), round.phases.begin(), round.phases.end());
    open.erase(it);
  }
  return out;
}

Status ExportFlightChromeTrace(const PostmortemBundle& b,
                               const std::string& path) {
  SAMYA_ASSIGN_OR_RETURN(std::vector<obs::FlightEvent> evs,
                         FlightEventsOf(b));
  JsonValue events = JsonValue::MakeArray();
  // Name each site's process so Perfetto tracks read "site 3", not "pid 3".
  int32_t max_site = -1;
  for (const obs::FlightEvent& ev : evs) max_site = std::max(max_site, ev.site);
  for (int32_t s = 0; s <= max_site; ++s) {
    JsonValue m = JsonValue::MakeObject();
    m.Set("name", "process_name");
    m.Set("ph", "M");
    m.Set("pid", int64_t{s});
    JsonValue args = JsonValue::MakeObject();
    char name[32];
    std::snprintf(name, sizeof(name), "site %d", s);
    args.Set("name", std::string(name));
    m.Set("args", std::move(args));
    events.Append(std::move(m));
  }
  // Derived spans as async pairs keyed by (pid, id = instance). A round's
  // "b" precedes its phases' pairs and its "e" follows them, so spans that
  // share a timestamp stay well nested after the viewer's stable sort.
  const auto emit = [&events](const FlightSpan& span, bool begin) {
    JsonValue e = JsonValue::MakeObject();
    e.Set("name", span.name);
    e.Set("cat", span.category);
    e.Set("ph", begin ? "b" : "e");
    e.Set("pid", int64_t{span.site});
    e.Set("id", span.instance);
    e.Set("ts", begin ? span.start : span.end);
    if (begin && span.aborted) {
      JsonValue args = JsonValue::MakeObject();
      args.Set("aborted", true);
      e.Set("args", std::move(args));
    }
    events.Append(std::move(e));
  };
  const std::vector<FlightSpan> spans = DeriveFlightSpans(evs);
  for (size_t i = 0; i < spans.size();) {
    size_t j = i + 1;  // spans[i] is a round; its phases follow it
    while (j < spans.size() && !spans[j].is_round()) ++j;
    emit(spans[i], true);
    for (size_t k = i + 1; k < j; ++k) {
      emit(spans[k], true);
      emit(spans[k], false);
    }
    emit(spans[i], false);
    i = j;
  }
  for (const obs::FlightEvent& ev : evs) {
    JsonValue i = JsonValue::MakeObject();
    const char* kind = obs::FlightRecorder::KindName(ev.kind);
    const char* code = obs::FlightRecorder::CodeName(ev.kind, ev.code);
    std::string name = kind;
    if (code[0] != '\0') {
      name += '/';
      name += code;
    }
    i.Set("name", std::move(name));
    i.Set("cat", "flight");
    i.Set("ph", "i");
    i.Set("s", "p");
    i.Set("pid", int64_t{ev.site});
    // Violations get their own thread track so they stand out in the UI.
    i.Set("tid", ev.kind == obs::FlightKind::kViolation ? int64_t{9} :
                                                          int64_t{0});
    i.Set("ts", ev.at);
    JsonValue args = JsonValue::MakeObject();
    args.Set("a", ev.a);
    args.Set("b", ev.b);
    args.Set("c", ev.c);
    args.Set("seq", int64_t{ev.seq});
    i.Set("args", std::move(args));
    events.Append(std::move(i));
  }
  JsonValue doc = JsonValue::MakeObject();
  doc.Set("traceEvents", std::move(events));
  doc.Set("displayTimeUnit", "ms");
  std::ofstream out(path);
  if (!out) return Status::Unavailable("cannot open " + path + " for writing");
  out << JsonDump(doc) << "\n";
  if (!out) return Status::Unavailable("short write to " + path);
  return Status::OK();
}

}  // namespace samya::harness
