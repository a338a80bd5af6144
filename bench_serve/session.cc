#include "session.h"

#include <chrono>

#include "qdcbir/cache/cache_manager.h"
#include "qdcbir/eval/oracle.h"
#include "qdcbir/obs/trace_context.h"
#include "qdcbir/serve/json_mini.h"

namespace qdcbir {
namespace bench_serve {

namespace {

using serve::JsonValue;

std::vector<ImageId> Flatten(const std::vector<DisplayGroup>& display) {
  std::vector<ImageId> ids;
  for (const DisplayGroup& group : display) {
    ids.insert(ids.end(), group.images.begin(), group.images.end());
  }
  return ids;
}

bool ParseIds(const JsonValue* array, std::vector<ImageId>* out) {
  if (array == nullptr || !array->is_array()) return false;
  out->clear();
  for (const JsonValue& item : array->items) {
    if (!item.is_number() || item.number < 0) return false;
    out->push_back(static_cast<ImageId>(item.number));
  }
  return true;
}

bool ParseDisplay(const JsonValue& doc, std::vector<DisplayGroup>* out) {
  const JsonValue* display = doc.Find("display");
  if (display == nullptr || !display->is_array()) return false;
  out->clear();
  for (const JsonValue& item : display->items) {
    DisplayGroup group;
    const JsonValue* node = item.Find("node");
    if (node == nullptr || !node->is_number()) return false;
    group.node = static_cast<NodeId>(node->number);
    if (!ParseIds(item.Find("images"), &group.images)) return false;
    out->push_back(std::move(group));
  }
  return true;
}

bool ParseFinal(const JsonValue& doc, SessionRecord* record) {
  if (!ParseIds(doc.Find("results"), &record->results)) return false;
  const JsonValue* groups = doc.Find("groups");
  if (groups == nullptr || !groups->is_array()) return false;
  for (const JsonValue& item : groups->items) {
    GroupRecord group;
    group.leaf = static_cast<NodeId>(item.U64Field("leaf", kInvalidNodeId));
    group.search_node =
        static_cast<NodeId>(item.U64Field("search_node", kInvalidNodeId));
    group.relevant_count = item.U64Field("relevant_count", 0);
    if (!ParseIds(item.Find("images"), &group.images)) return false;
    record->groups.push_back(std::move(group));
  }
  const JsonValue* stats = doc.Find("stats");
  if (stats == nullptr || !stats->is_object()) return false;
  for (const auto& [name, value] : stats->fields) {
    record->stats[name] = static_cast<std::uint64_t>(value.number);
  }
  if (doc.Find("finalize_ns") == nullptr) return false;
  record->server_finalize_ns = doc.U64Field("finalize_ns", 0);
  return true;
}

std::string IdList(const std::vector<ImageId>& ids) {
  std::string out = "[";
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += std::to_string(ids[i]);
  }
  out.push_back(']');
  return out;
}

bool SameDisplay(const std::vector<DisplayGroup>& a,
                 const std::vector<DisplayGroup>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].node != b[i].node || a[i].images != b[i].images) return false;
  }
  return true;
}

}  // namespace

const char* RequestKindName(RequestKind kind) {
  switch (kind) {
    case RequestKind::kQuery: return "query";
    case RequestKind::kRound: return "round";
    case RequestKind::kFinalize: return "finalize";
    case RequestKind::kRep: return "rep";
    case RequestKind::kScrape: return "scrape";
  }
  return "unknown";
}

std::uint64_t Mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a * 0x9e3779b97f4a7c15ULL + b + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t HashBody(const std::string& body) {
  return cache::HashBytes(body.data(), body.size());
}

void RunSession(HttpConnection& connection, int port,
                const SessionScript& script, const QueryGroundTruth& gt,
                SessionRecord* record) {
  record->start_ns = NowNs();
  struct StampEnd {
    SessionRecord* record;
    ~StampEnd() { record->end_ns = NowNs(); }
  } stamp_end{record};
  obs::TraceContext trace;
  trace.trace_hi = record->trace_hi;
  trace.trace_lo = record->trace_lo;
  trace.span_id = record->index + 1;
  const std::string traceparent = obs::FormatTraceparent(trace);
  const std::string trace_hex = obs::TraceIdHex(trace);

  const auto fail = [record](const std::string& message) {
    record->ok = false;
    if (record->error.empty()) record->error = message;
    return false;
  };
  // Sends one request and records it; false on anything but a 200.
  const auto exchange = [&](RequestKind kind, std::string request,
                            HttpReply* reply) {
    std::string error;
    ExchangeRecord ex;
    ex.kind = kind;
    if (!connection.connected() &&
        !connection.Connect(port, kRequestTimeoutMs, &error)) {
      record->exchanges.push_back(std::move(ex));
      return fail(error);
    }
    ex.sent_ns = NowNs();
    const bool sent = connection.Exchange(request, reply, &error);
    ex.done_ns = NowNs();
    if (!sent) {
      record->exchanges.push_back(std::move(ex));
      return fail(std::string(RequestKindName(kind)) + ": " + error);
    }
    ex.status = reply->status;
    ex.wire_bytes = reply->wire_bytes;
    if (record->traced) {
      ex.request = std::move(request);
      ex.content_type = reply->content_type;
      ex.traceparent = reply->traceparent;
      if (kind != RequestKind::kRep) ex.body = reply->body;
    }
    record->exchanges.push_back(std::move(ex));
    if (reply->status != 200) {
      return fail(std::string(RequestKindName(kind)) + " answered " +
                  std::to_string(reply->status) + ": " + reply->body);
    }
    return true;
  };
  // Parses an API answer and checks it carries the session's trace id.
  const auto parse = [&](const HttpReply& reply, JsonValue* doc) {
    StatusOr<JsonValue> parsed = serve::ParseJson(reply.body);
    if (!parsed.ok()) return fail("bad JSON: " + parsed.status().ToString());
    *doc = std::move(*parsed);
    const JsonValue* echoed = doc->Find("trace");
    if (echoed == nullptr || echoed->string != trace_hex ||
        reply.traceparent.find(trace_hex) == std::string::npos) {
      return fail("trace id not echoed");
    }
    return true;
  };
  const auto fetch_reps = [&](const std::vector<DisplayGroup>& display) {
    if (!script.fetch_reps) return true;
    for (const ImageId id : Flatten(display)) {
      HttpReply reply;
      if (!exchange(RequestKind::kRep,
                    BuildRequest("GET", "/api/rep?id=" + std::to_string(id),
                                 "", ""),
                    &reply)) {
        return false;
      }
      record->exchanges.back().rep_id = id;
      if (reply.body.rfind("P6", 0) != 0) return fail("rep is not a PPM");
      record->reps.emplace_back(id, HashBody(reply.body));
    }
    return true;
  };

  HttpReply reply;
  JsonValue doc;
  const std::string open = "{\"seed\":" + std::to_string(record->seed) +
                           ",\"display_size\":" +
                           std::to_string(script.display_size) + "}";
  if (!exchange(RequestKind::kQuery,
                BuildRequest("POST", "/api/query", open, traceparent),
                &reply) ||
      !parse(reply, &doc)) {
    return;
  }
  const std::uint64_t session_id = doc.U64Field("session", 0);
  std::vector<DisplayGroup> display;
  if (session_id == 0 || !ParseDisplay(doc, &display)) {
    fail("bad /api/query answer");
    return;
  }
  record->displays.push_back(display);
  if (!fetch_reps(display)) return;

  OracleUser oracle;
  int requests = 1;
  int pick_rounds = 0;
  bool marked = false;
  for (;;) {
    const std::vector<ImageId> shown = Flatten(display);
    if (shown.empty()) {
      fail("empty display");
      return;
    }
    std::vector<ImageId> picks =
        oracle.SelectRelevant(shown, gt, script.max_picks);
    if (!picks.empty()) {
      ++pick_rounds;
      marked = true;
    }
    const bool final =
        pick_rounds >= kPickRounds || requests + 1 >= kMaxRequests;
    if (final && !marked) picks = {shown.front()};
    std::string body = "{\"session\":" + std::to_string(session_id) +
                       ",\"relevant\":" + IdList(picks);
    if (final) body += ",\"finalize\":" + std::to_string(script.k);
    body += "}";
    record->picks.push_back(std::move(picks));
    if (!exchange(final ? RequestKind::kFinalize : RequestKind::kRound,
                  BuildRequest("POST", "/api/feedback", body, traceparent),
                  &reply) ||
        !parse(reply, &doc)) {
      return;
    }
    ++requests;
    if (final) {
      if (!ParseFinal(doc, record)) {
        fail("bad finalize answer");
        return;
      }
      record->ok = true;
      return;
    }
    if (!ParseDisplay(doc, &display)) {
      fail("bad feedback answer");
      return;
    }
    record->displays.push_back(display);
    if (!fetch_reps(display)) return;
  }
}

bool ReplaySession(const SessionRecord& record, const SessionScript& script,
                   const RfsTree& rfs, const QdOptions& base,
                   std::vector<ReplayCall>* calls, std::string* mismatch) {
  QdOptions options = base;
  options.seed = record.seed;
  options.display_size = script.display_size;
  QdSession session(&rfs, options);
  const auto timed = [calls](const char* name, auto&& call) {
    const std::uint64_t start = NowNs();
    auto result = call();
    if (calls != nullptr) calls->push_back(ReplayCall{name, start, NowNs()});
    return result;
  };

  const std::vector<DisplayGroup> first =
      timed("qd.start", [&] { return session.Start(); });
  if (record.displays.empty() || !SameDisplay(first, record.displays[0])) {
    *mismatch = "initial display differs";
    return false;
  }
  for (std::size_t j = 0; j < record.picks.size(); ++j) {
    StatusOr<std::vector<DisplayGroup>> next = timed(
        "qd.feedback", [&] { return session.Feedback(record.picks[j]); });
    if (!next.ok()) {
      *mismatch = "feedback rejected: " + next.status().ToString();
      return false;
    }
    if (j + 1 < record.picks.size() &&
        (j + 1 >= record.displays.size() ||
         !SameDisplay(*next, record.displays[j + 1]))) {
      *mismatch = "display " + std::to_string(j + 1) + " differs";
      return false;
    }
  }
  StatusOr<QdResult> result =
      timed("qd.finalize", [&] { return session.Finalize(script.k); });
  if (!result.ok()) {
    *mismatch = "finalize failed: " + result.status().ToString();
    return false;
  }
  if (result->Flatten() != record.results) {
    *mismatch = "final results differ";
    return false;
  }
  std::vector<GroupRecord> groups;
  for (const ResultGroup& group : result->groups) {
    GroupRecord g;
    g.leaf = group.leaf;
    g.search_node = group.search_node;
    g.relevant_count = group.relevant_count;
    for (const KnnMatch& match : group.images) g.images.push_back(match.id);
    groups.push_back(std::move(g));
  }
  if (groups != record.groups) {
    *mismatch = "result groups differ";
    return false;
  }
  const QdSessionStats& stats = session.stats();
  const std::map<std::string, std::uint64_t> expected = {
      {"subqueries", stats.localized_subqueries},
      {"boundary_expansions", stats.boundary_expansions},
      {"expanded_subqueries", stats.expanded_subqueries},
      {"knn_nodes_visited", stats.knn_nodes_visited},
      {"knn_candidates", stats.knn_candidates},
      {"nodes_touched", stats.nodes_touched},
      {"distinct_nodes_sampled", stats.distinct_nodes_sampled},
  };
  if (expected != record.stats) {
    *mismatch = "session stats differ";
    return false;
  }
  return true;
}

}  // namespace bench_serve
}  // namespace qdcbir
