#include "dpmerge/obs/profiler.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <ostream>
#include <set>
#include <sstream>

#include "dpmerge/obs/json.h"
#include "dpmerge/obs/memory.h"

namespace dpmerge::obs {

const ProfileNode* ProfileNode::child(std::string_view want) const {
  for (const ProfileNode& c : children) {
    if (c.name == want) return &c;
  }
  return nullptr;
}

namespace {

/// Mutable build-time node: children keyed by name for O(log n) merge, raw
/// occurrence durations kept for exact percentiles.
struct BuildNode {
  std::string name;
  std::int64_t total_us = 0;
  std::int64_t rss_delta_kb = 0;
  std::map<std::string, std::int64_t> counters;
  std::vector<std::int64_t> durations;
  std::map<std::string, std::unique_ptr<BuildNode>> children;

  BuildNode* child(const char* cname) {
    auto it = children.find(cname);
    if (it == children.end()) {
      auto node = std::make_unique<BuildNode>();
      node->name = cname;
      it = children.emplace(node->name, std::move(node)).first;
    }
    return it->second.get();
  }
};

std::int64_t nearest_rank(std::vector<std::int64_t>& sorted, double q) {
  if (sorted.empty()) return 0;
  const auto rank = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(
             std::ceil(q * static_cast<double>(sorted.size()))));
  return sorted[static_cast<std::size_t>(rank - 1)];
}

ProfileNode finalize(BuildNode& b) {
  ProfileNode out;
  out.name = b.name;
  out.count = static_cast<std::int64_t>(b.durations.size());
  out.total_us = b.total_us;
  out.rss_delta_kb = b.rss_delta_kb;
  out.counters = std::move(b.counters);
  std::sort(b.durations.begin(), b.durations.end());
  out.p50_us = nearest_rank(b.durations, 0.50);
  out.p99_us = nearest_rank(b.durations, 0.99);
  std::int64_t child_total = 0;
  for (auto& [name, c] : b.children) {
    out.children.push_back(finalize(*c));
    child_total += out.children.back().total_us;
  }
  // Children from several threads can overlap in wall time, so their sum
  // may exceed the parent total; self time never goes negative.
  out.self_us = std::max<std::int64_t>(0, b.total_us - child_total);
  std::stable_sort(out.children.begin(), out.children.end(),
                   [](const ProfileNode& a, const ProfileNode& c) {
                     if (a.total_us != c.total_us)
                       return a.total_us > c.total_us;
                     return a.name < c.name;
                   });
  return out;
}

void record_occurrence(BuildNode* node, std::int64_t dur_us) {
  node->total_us += dur_us;
  node->durations.push_back(dur_us);
}

bool is_job_mark(const FrEvent& e) {
  return e.kind == FrKind::Mark && std::string_view(e.name) == "pool.job";
}

bool is_rss_counter(std::string_view name) {
  constexpr std::string_view kSuffix = "rss_delta_kb";
  return name.size() >= kSuffix.size() &&
         name.substr(name.size() - kSuffix.size()) == kSuffix;
}

}  // namespace

Profile build_profile(const std::vector<FrEvent>& events) {
  Profile p;
  BuildNode root;
  root.name = "(root)";

  // Nesting only relates events of one thread, so each thread's events are
  // replayed in order against its own open-span stack. The one cross-thread
  // link is a pool task: it nests under the node its submitting thread had
  // open at the job's `pool.job` mark (both carry the job id). Submitting
  // threads replay first, so every job's node is known before its tasks;
  // pool workers never submit (a nested parallel_for runs inline).
  std::map<std::uint16_t, std::vector<const FrEvent*>> by_tid;
  std::set<std::uint16_t> submitters;
  for (const FrEvent& e : events) {
    by_tid[e.tid].push_back(&e);
    if (is_job_mark(e)) submitters.insert(e.tid);
  }
  std::vector<std::uint16_t> order(submitters.begin(), submitters.end());
  for (const auto& [tid, evs] : by_tid) {
    if (submitters.count(tid) == 0) order.push_back(tid);
  }

  std::map<std::int64_t, BuildNode*> job_nodes;
  for (const std::uint16_t tid : order) {
    std::vector<BuildNode*> st;
    const auto top = [&]() -> BuildNode* {
      return st.empty() ? &root : st.back();
    };
    for (const FrEvent* e : by_tid[tid]) {
      ++p.events;
      switch (e->kind) {
        case FrKind::SpanBegin:
          st.push_back(top()->child(e->name));
          break;
        case FrKind::TaskBegin: {
          const auto it = job_nodes.find(e->value);
          st.push_back((it != job_nodes.end() ? it->second : top())
                           ->child(e->name));
          break;
        }
        case FrKind::SpanEnd:
        case FrKind::TaskEnd:
          if (!st.empty() && st.back()->name == e->name) {
            record_occurrence(st.back(), e->value);
            st.pop_back();
          } else {
            // The begin is missing (evicted from a ring, or lost to a torn
            // read): the end still carries its duration, so attribute it
            // as an occurrence under the current position and count the
            // anomaly.
            record_occurrence(top()->child(e->name), e->value);
            ++p.dropped;
          }
          break;
        case FrKind::Counter:
          if (is_rss_counter(e->name)) {
            top()->rss_delta_kb += e->value;
          } else {
            top()->counters[e->name] += e->value;
          }
          break;
        case FrKind::Mark:
          top()->counters[e->name] += 1;
          if (is_job_mark(*e)) job_nodes[e->value] = top();
          break;
      }
    }
  }

  p.root = finalize(root);
  // The synthetic root's totals roll up its top level (it has no spans of
  // its own, so give it the sum as total and zero self).
  std::int64_t sum = 0;
  for (const ProfileNode& c : p.root.children) sum += c.total_us;
  p.root.total_us = sum;
  p.root.self_us = 0;
  p.peak_rss_mb = MemorySampler::peak_rss_mb();
  return p;
}

namespace {

void node_to_json(std::string& out, const ProfileNode& n,
                  const ProfileJsonOptions& opt) {
  const auto t = [&](std::int64_t v) { return opt.zero_times ? 0 : v; };
  out += "{\"name\":";
  json_append_quoted(out, n.name);
  out += ",\"count\":" + std::to_string(n.count);
  out += ",\"total_us\":" + std::to_string(t(n.total_us));
  out += ",\"self_us\":" + std::to_string(t(n.self_us));
  out += ",\"p50_us\":" + std::to_string(t(n.p50_us));
  out += ",\"p99_us\":" + std::to_string(t(n.p99_us));
  out += ",\"rss_delta_kb\":" + std::to_string(t(n.rss_delta_kb));
  out += ",\"counters\":{";
  bool first = true;
  for (const auto& [k, v] : n.counters) {
    if (!first) out += ",";
    first = false;
    json_append_quoted(out, k);
    out += ":" + std::to_string(v);
  }
  out += "},\"children\":[";
  // Children are ordered by time; with the times zeroed that order is
  // noise, so write them by name and keep the artifact byte-stable.
  std::vector<const ProfileNode*> kids;
  for (const ProfileNode& c : n.children) kids.push_back(&c);
  if (opt.zero_times) {
    std::stable_sort(kids.begin(), kids.end(), [](auto* a, auto* b) {
      return a->name < b->name;
    });
  }
  for (std::size_t i = 0; i < kids.size(); ++i) {
    if (i) out += ",";
    node_to_json(out, *kids[i], opt);
  }
  out += "]}";
}

}  // namespace

void write_profile_json(std::ostream& os, const Profile& p,
                        const ProfileJsonOptions& opt) {
  std::string out = "{\"schema\":\"dpmerge-profile-v1\"";
  out += ",\"events\":" + std::to_string(p.events);
  out += ",\"dropped\":" + std::to_string(p.dropped);
  out += ",\"peak_rss_mb\":" +
         json_number(opt.zero_times ? 0.0 : p.peak_rss_mb);
  out += ",\"tree\":";
  node_to_json(out, p.root, opt);
  out += "}\n";
  os << out;
}

namespace {

std::string us_str(std::int64_t us) {
  char buf[32];
  if (us >= 1000000) {
    std::snprintf(buf, sizeof buf, "%.2fs", static_cast<double>(us) / 1e6);
  } else if (us >= 1000) {
    std::snprintf(buf, sizeof buf, "%.2fms", static_cast<double>(us) / 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%lldus", static_cast<long long>(us));
  }
  return buf;
}

void node_to_text(std::ostream& os, const ProfileNode& n, int depth) {
  std::string label(static_cast<std::size_t>(depth) * 2, ' ');
  label += n.name;
  if (label.size() < 36) label.resize(36, ' ');
  char buf[160];
  std::snprintf(buf, sizeof buf, "%9s %9s %8lld %9s %9s",
                us_str(n.total_us).c_str(), us_str(n.self_us).c_str(),
                static_cast<long long>(n.count), us_str(n.p50_us).c_str(),
                us_str(n.p99_us).c_str());
  os << label << buf;
  if (n.rss_delta_kb != 0) {
    os << "  rss" << (n.rss_delta_kb > 0 ? "+" : "") << n.rss_delta_kb
       << "kb";
  }
  os << "\n";
  for (const ProfileNode& c : n.children) node_to_text(os, c, depth + 1);
}

}  // namespace

void write_profile_text(std::ostream& os, const Profile& p) {
  os << "profile: " << p.events << " events";
  if (p.dropped > 0) os << " (" << p.dropped << " unmatched)";
  os << ", peak rss " << json_number(p.peak_rss_mb) << " MB\n";
  std::string head = "name";
  head.resize(36, ' ');
  char buf[160];
  std::snprintf(buf, sizeof buf, "%9s %9s %8s %9s %9s", "total", "self",
                "count", "p50", "p99");
  os << head << buf << "\n";
  for (const ProfileNode& c : p.root.children) node_to_text(os, c, 0);
}

namespace {

void node_to_folded(std::ostream& os, const ProfileNode& n,
                    const std::string& prefix) {
  const std::string path = prefix.empty() ? n.name : prefix + ";" + n.name;
  if (n.self_us > 0) os << path << " " << n.self_us << "\n";
  for (const ProfileNode& c : n.children) node_to_folded(os, c, path);
}

}  // namespace

void write_profile_folded(std::ostream& os, const Profile& p) {
  for (const ProfileNode& c : p.root.children) node_to_folded(os, c, {});
}

namespace {

bool node_from_json(const JsonValue& v, ProfileNode* out) {
  if (!v.is_object()) return false;
  out->name = std::string(v.text("name"));
  out->count = static_cast<std::int64_t>(v.num("count"));
  out->total_us = static_cast<std::int64_t>(v.num("total_us"));
  out->self_us = static_cast<std::int64_t>(v.num("self_us"));
  out->p50_us = static_cast<std::int64_t>(v.num("p50_us"));
  out->p99_us = static_cast<std::int64_t>(v.num("p99_us"));
  out->rss_delta_kb = static_cast<std::int64_t>(v.num("rss_delta_kb"));
  if (const JsonValue* counters = v.find("counters");
      counters != nullptr && counters->is_object()) {
    for (const auto& [k, cv] : counters->object) {
      if (cv.kind == JsonValue::Kind::Number) {
        out->counters[k] = static_cast<std::int64_t>(cv.number);
      }
    }
  }
  if (const JsonValue* kids = v.find("children");
      kids != nullptr && kids->is_array()) {
    for (const JsonValue& kid : kids->array) {
      ProfileNode c;
      if (!node_from_json(kid, &c)) return false;
      out->children.push_back(std::move(c));
    }
  }
  return true;
}

}  // namespace

bool read_profile_json(std::string_view text, Profile* out,
                       std::string* error) {
  JsonValue doc;
  if (!json_parse(text, &doc, error)) return false;
  if (!doc.is_object() || doc.text("schema") != "dpmerge-profile-v1") {
    if (error) *error = "not a dpmerge-profile-v1 document";
    return false;
  }
  *out = Profile{};
  out->events = static_cast<std::int64_t>(doc.num("events"));
  out->dropped = static_cast<std::int64_t>(doc.num("dropped"));
  out->peak_rss_mb = doc.num("peak_rss_mb");
  const JsonValue* tree = doc.find("tree");
  if (tree == nullptr || !node_from_json(*tree, &out->root)) {
    if (error) *error = "malformed profile tree";
    return false;
  }
  return true;
}

namespace {

struct DiffRow {
  std::string path;
  std::int64_t before_us = 0;
  std::int64_t after_us = 0;
};

void collect_paths(const ProfileNode& n, const std::string& prefix,
                   std::map<std::string, std::int64_t>& out) {
  const std::string path = prefix.empty() ? n.name : prefix + ";" + n.name;
  out[path] += n.total_us;
  for (const ProfileNode& c : n.children) collect_paths(c, path, out);
}

}  // namespace

std::string profile_diff_text(const Profile& before, const Profile& after) {
  std::map<std::string, std::int64_t> a, b;
  for (const ProfileNode& c : before.root.children) collect_paths(c, {}, a);
  for (const ProfileNode& c : after.root.children) collect_paths(c, {}, b);

  std::vector<DiffRow> rows;
  for (const auto& [path, us] : a) {
    DiffRow r;
    r.path = path;
    r.before_us = us;
    auto it = b.find(path);
    if (it != b.end()) r.after_us = it->second;
    rows.push_back(std::move(r));
  }
  for (const auto& [path, us] : b) {
    if (a.find(path) == a.end()) {
      DiffRow r;
      r.path = path;
      r.after_us = us;
      rows.push_back(std::move(r));
    }
  }
  std::stable_sort(rows.begin(), rows.end(),
                   [](const DiffRow& x, const DiffRow& y) {
                     const std::int64_t dx = std::llabs(x.after_us -
                                                       x.before_us);
                     const std::int64_t dy = std::llabs(y.after_us -
                                                       y.before_us);
                     if (dx != dy) return dx > dy;
                     return x.path < y.path;
                   });

  std::ostringstream os;
  os << "profile diff (after - before), " << rows.size() << " path(s)\n";
  for (const DiffRow& r : rows) {
    const std::int64_t d = r.after_us - r.before_us;
    char buf[96];
    std::snprintf(buf, sizeof buf, "%+10lld us  %10lld -> %-10lld  ",
                  static_cast<long long>(d),
                  static_cast<long long>(r.before_us),
                  static_cast<long long>(r.after_us));
    os << buf << r.path << "\n";
  }
  return os.str();
}

}  // namespace dpmerge::obs
