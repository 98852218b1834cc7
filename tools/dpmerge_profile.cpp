// dpmerge-profile — renders and compares the hierarchical profile artifacts
// the flow-running binaries emit with --profile=<path> (schema
// "dpmerge-profile-v1", see obs/profiler.h).
//
// Usage: dpmerge-profile [options] <profile.json>
//        dpmerge-profile --diff <before.json> <after.json>
//   --format=text|json|folded  output rendering (default text):
//                              text    indented self/total call tree with
//                                      count, p50/p99 and RSS deltas
//                              json    normalised re-emit of the artifact
//                              folded  flame-graph folded stacks (the input
//                                      of flamegraph.pl / speedscope)
//   --diff <before> <after>    path-by-path total-time comparison, sorted by
//                              absolute delta (regressions positive)
//   -o <path>                  write output there instead of stdout
//
// Exit status: 0 ok, 2 usage/IO/parse errors.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "dpmerge/obs/profiler.h"

namespace {

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

bool load_profile(const std::string& path, dpmerge::obs::Profile* p) {
  std::string text, err;
  if (!read_file(path, &text)) {
    std::fprintf(stderr, "dpmerge-profile: cannot read '%s'\n", path.c_str());
    return false;
  }
  if (!dpmerge::obs::read_profile_json(text, p, &err)) {
    std::fprintf(stderr, "dpmerge-profile: %s: %s\n", path.c_str(),
                 err.c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dpmerge;

  enum class Format { Text, Json, Folded };
  Format format = Format::Text;
  std::string out_path, diff_before, diff_after;
  bool diff = false;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--format=", 0) == 0) {
      const std::string f = arg.substr(9);
      if (f == "text") {
        format = Format::Text;
      } else if (f == "json") {
        format = Format::Json;
      } else if (f == "folded") {
        format = Format::Folded;
      } else {
        std::fprintf(stderr, "dpmerge-profile: bad --format '%s'\n", f.c_str());
        return 2;
      }
    } else if (arg == "--diff") {
      if (i + 2 >= argc) {
        std::fprintf(stderr, "dpmerge-profile: --diff needs two paths\n");
        return 2;
      }
      diff = true;
      diff_before = argv[++i];
      diff_after = argv[++i];
    } else if (arg == "-o" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: dpmerge-profile [--format=text|json|folded] [-o <path>] "
          "<profile.json>\n"
          "       dpmerge-profile --diff <before.json> <after.json> "
          "[-o <path>]\n");
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "dpmerge-profile: unknown option '%s'\n",
                   arg.c_str());
      return 2;
    } else {
      files.push_back(arg);
    }
  }

  std::string out;
  if (diff) {
    if (!files.empty()) {
      std::fprintf(stderr, "dpmerge-profile: --diff takes no extra inputs\n");
      return 2;
    }
    obs::Profile before, after;
    if (!load_profile(diff_before, &before) ||
        !load_profile(diff_after, &after)) {
      return 2;
    }
    out = obs::profile_diff_text(before, after);
  } else {
    if (files.size() != 1) {
      std::fprintf(stderr,
                   "dpmerge-profile: expected exactly one profile (try "
                   "--help)\n");
      return 2;
    }
    obs::Profile p;
    if (!load_profile(files[0], &p)) return 2;
    std::ostringstream ss;
    switch (format) {
      case Format::Text:
        obs::write_profile_text(ss, p);
        break;
      case Format::Json:
        obs::write_profile_json(ss, p);
        break;
      case Format::Folded:
        obs::write_profile_folded(ss, p);
        break;
    }
    out = ss.str();
  }

  if (out_path.empty()) {
    std::fputs(out.c_str(), stdout);
    return 0;
  }
  std::ofstream os(out_path);
  if (!os) {
    std::fprintf(stderr, "dpmerge-profile: cannot write '%s'\n",
                 out_path.c_str());
    return 2;
  }
  os << out;
  return 0;
}
