#include <string>

#include "dpmerge/check/absint_engine.h"
#include "dpmerge/check/check.h"
#include "dpmerge/obs/obs.h"

namespace dpmerge::check {

std::string_view to_string(CheckPolicy p) {
  switch (p) {
    case CheckPolicy::Off:
      return "off";
    case CheckPolicy::Errors:
      return "errors";
    case CheckPolicy::Paranoid:
      return "paranoid";
  }
  return "off";
}

std::optional<CheckPolicy> parse_policy(std::string_view s) {
  if (s == "off" || s == "0") return CheckPolicy::Off;
  if (s == "errors" || s == "1") return CheckPolicy::Errors;
  if (s == "paranoid" || s == "2") return CheckPolicy::Paranoid;
  return std::nullopt;
}

namespace {

std::string failure_message(std::string_view site, const CheckReport& rep) {
  std::string msg = "check failed at ";
  msg += site;
  msg += ":\n";
  msg += rep.to_text();
  return msg;
}

/// Route findings into the current stat sink so they appear in FlowReport
/// stage stats and --stats-json artifacts, then throw on any Error. The
/// fatal path first notifies crash diagnostics (flight-recorder mark, and a
/// "check-failure" dump when handlers are installed for it) — the thrown
/// CheckFailure may be swallowed by a caller, but the evidence survives.
void account_and_throw(const CheckReport& rep, std::string_view site) {
  obs::stat_add("check.runs");
  if (rep.errors() > 0) obs::stat_add("check.errors", rep.errors());
  if (rep.warnings() > 0) obs::stat_add("check.warnings", rep.warnings());
  for (const Diagnostic& d : rep.diagnostics()) {
    obs::stat_add("check.rule." + d.rule);
  }
  if (!rep.ok()) {
    obs::note_check_failure(site, rep.to_text());
    throw CheckFailure(std::string(site), rep);
  }
}

}  // namespace

CheckFailure::CheckFailure(std::string site, CheckReport report)
    : std::runtime_error(failure_message(site, report)),
      site_(std::move(site)),
      report_(std::move(report)) {}

namespace detail {

void do_enforce(const dfg::Graph& g, std::string_view site) {
  account_and_throw(verify(g), site);
}

void do_enforce(const netlist::Netlist& n, std::string_view site) {
  account_and_throw(verify(n), site);
}

void do_enforce_analyses(const dfg::Graph& g,
                         const analysis::InfoAnalysis& ia,
                         const analysis::RequiredPrecision* rp,
                         std::string_view site) {
  account_and_throw(lint_absint(g, &ia, rp), site);
}

}  // namespace detail

}  // namespace dpmerge::check
