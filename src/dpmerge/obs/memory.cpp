#include "dpmerge/obs/memory.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace dpmerge::obs {

namespace {

/// Scans /proc/self/status for `key: <n> kB`. stdio (not iostream) so the
/// crash path can reuse it with minimal allocation.
std::int64_t proc_status_kb(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "re");
  if (f == nullptr) return 0;
  const std::size_t key_len = std::strlen(key);
  char line[256];
  std::int64_t out = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, key, key_len) == 0 && line[key_len] == ':') {
      out = std::strtoll(line + key_len + 1, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return out;
}

}  // namespace

std::int64_t MemorySampler::current_rss_kb() { return proc_status_kb("VmRSS"); }

std::int64_t MemorySampler::peak_rss_kb() { return proc_status_kb("VmHWM"); }

bool MemorySampler::reset_peak() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "we");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

}  // namespace dpmerge::obs
