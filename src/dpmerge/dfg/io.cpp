#include "dpmerge/dfg/io.h"

#include <charconv>
#include <cstdint>
#include <map>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace dpmerge::dfg {

namespace {

std::string node_ref(const Graph& g, NodeId id) {
  const Node& n = g.node(id);
  return g.name(n).empty() ? "_n" + std::to_string(n.id.value) : g.name(n);
}

/// The operator kind whose `.dfg` keyword is `s` (terminals have their own
/// directives, so only operators match).
OpKind kind_from(const std::string& s, int line) {
  for (const OpInfo& op : kOps) {
    if (op.cls != OpClass::Terminal && op.keyword == s) return op.kind;
  }
  throw std::invalid_argument("line " + std::to_string(line) +
                              ": unknown operator kind '" + s + "'");
}

Sign sign_from(const std::string& s, int line) {
  if (s == "signed" || s == "s" || s == "1") return Sign::Signed;
  if (s == "unsigned" || s == "u" || s == "0") return Sign::Unsigned;
  throw std::invalid_argument("line " + std::to_string(line) +
                              ": bad signedness '" + s + "'");
}

/// Parses the whole token `tok` as a T: trailing junk and values outside T's
/// range are line-numbered parse errors, like every other malformed field.
template <typename T>
T number_from(const std::string& tok, int line, const char* what) {
  T v{};
  const char* end = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(tok.data(), end, v);
  if (ec == std::errc() && ptr == end) return v;
  const char* why = ec == std::errc::result_out_of_range ? "out of range"
                                                          : "not an integer";
  throw std::invalid_argument("line " + std::to_string(line) + ": " + what +
                              " '" + tok + "' " + why);
}

}  // namespace

std::string to_text(const Graph& g) {
  std::ostringstream os;
  os << "dfg v1\n";
  for (const Node& n : g.nodes()) {
    // Terminals are their own directive; operators are `node` lines.
    const std::string_view keyword = op_info(n.kind).keyword;
    if (is_operator(n.kind)) {
      os << "node " << node_ref(g, n.id) << " " << keyword;
    } else {
      os << keyword << " " << node_ref(g, n.id);
    }
    os << " " << n.width;
    if (n.kind == OpKind::Input || n.kind == OpKind::Extension) {
      os << " " << to_string(n.ext_sign);
    } else if (n.kind == OpKind::Const) {
      os << " 0b" << n.value.to_string();
    } else if (n.kind == OpKind::Shl) {
      os << " " << n.shift;
    }
    os << "\n";
  }
  for (const Edge& e : g.edges()) {
    os << "edge " << node_ref(g, e.src) << " " << node_ref(g, e.dst) << " "
       << e.dst_port << " " << e.width << " " << to_string(e.sign) << "\n";
  }
  return os.str();
}

Graph parse_graph(const std::string& text) {
  Graph g;
  std::map<std::string, NodeId> byname;
  std::istringstream is(text);
  std::string line;
  int lineno = 0;
  bool header_seen = false;

  auto fail = [&lineno](const std::string& msg) -> void {
    throw std::invalid_argument("line " + std::to_string(lineno) + ": " + msg);
  };
  auto lookup = [&](const std::string& name) {
    const auto it = byname.find(name);
    if (it == byname.end()) fail("unknown node '" + name + "'");
    return it->second;
  };
  auto define = [&](const std::string& name, NodeId id) {
    if (!byname.emplace(name, id).second) fail("duplicate node '" + name + "'");
  };
  // Widths lie in [1, kMaxWidth], shift amounts in [0, kMaxWidth].
  auto bounded = [&](const std::string& tok, const char* what, int least) {
    const int v = number_from<int>(tok, lineno, what);
    if (v < least) {
      fail(std::string(what) +
           (least > 0 ? " must be positive" : " must be non-negative"));
    }
    if (v > kMaxWidth) {
      fail(std::string(what) + " " + tok + " exceeds the limit of " +
           std::to_string(kMaxWidth) + " bits");
    }
    return v;
  };

  while (std::getline(is, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    std::vector<std::string> tok;
    for (std::string t; ls >> t;) tok.push_back(t);
    if (tok.empty()) continue;

    if (!header_seen) {
      if (tok.size() != 2 || tok[0] != "dfg" || tok[1] != "v1") {
        fail("expected header 'dfg v1'");
      }
      header_seen = true;
      continue;
    }

    const std::string& cmd = tok[0];
    if (cmd == "input") {
      if (tok.size() < 3 || tok.size() > 4) fail("input <name> <width> [sign]");
      const int w = bounded(tok[2], "width", 1);
      const NodeId id = g.add_node(OpKind::Input, w, tok[1]);
      g.set_node_ext_sign(id, tok.size() == 4 ? sign_from(tok[3], lineno)
                                              : Sign::Signed);
      define(tok[1], id);
    } else if (cmd == "output") {
      if (tok.size() != 3) fail("output <name> <width>");
      const int w = bounded(tok[2], "width", 1);
      define(tok[1], g.add_node(OpKind::Output, w, tok[1]));
    } else if (cmd == "const") {
      if (tok.size() != 4) fail("const <name> <width> <value>");
      const int w = bounded(tok[2], "width", 1);
      BitVector v;
      if (tok[3].rfind("0b", 0) == 0) {
        v = BitVector::from_string(tok[3].substr(2)).resize(w, Sign::Signed);
      } else {
        v = BitVector::from_int(
            w, number_from<std::int64_t>(tok[3], lineno, "value"));
      }
      define(tok[1], g.add_const(v, tok[1]));
    } else if (cmd == "node") {
      if (tok.size() < 4) fail("node <name> <kind> <width> [arg]");
      const OpKind k = kind_from(tok[2], lineno);
      const int w = bounded(tok[3], "width", 1);
      const NodeId id = g.add_node(k, w, tok[1]);
      if (k == OpKind::Shl) {
        if (tok.size() != 5) fail("shl needs a shift amount");
        g.set_node_shift(id, bounded(tok[4], "shift", 0));
      } else if (k == OpKind::Extension) {
        if (tok.size() != 5) fail("ext needs a signedness");
        g.set_node_ext_sign(id, sign_from(tok[4], lineno));
      } else if (tok.size() != 4) {
        fail("unexpected extra token");
      }
      define(tok[1], id);
    } else if (cmd == "edge") {
      if (tok.size() != 6) fail("edge <src> <dst> <port> <width> <sign>");
      const NodeId src = lookup(tok[1]);
      const NodeId dst = lookup(tok[2]);
      const int port = number_from<int>(tok[3], lineno, "port");
      const int w = bounded(tok[4], "width", 1);
      const int want = operand_count(g.node(dst).kind);
      if (port < 0 || port >= want) fail("port out of range");
      if (static_cast<int>(g.node(dst).in.size()) > port &&
          g.node(dst).in[static_cast<std::size_t>(port)].valid()) {
        fail("port already connected");
      }
      g.add_edge(src, dst, port, w, sign_from(tok[5], lineno));
    } else {
      fail("unknown directive '" + cmd + "'");
    }
  }
  if (!header_seen) {
    lineno = 1;
    fail("empty input");
  }
  const auto errs = g.validate();
  if (!errs.empty()) {
    throw std::invalid_argument("graph invalid after parse: " + errs.front());
  }
  return g;
}

}  // namespace dpmerge::dfg
