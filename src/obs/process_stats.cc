#include "src/obs/process_stats.h"

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <string>

#if defined(__linux__)
#include <dirent.h>
#endif

#ifndef LARD_VERSION
#define LARD_VERSION "dev"
#endif

namespace lard {
namespace {

std::chrono::steady_clock::time_point ProcessStart() {
  // Anchored at the first telemetry touch, not true exec time — close enough
  // for an uptime gauge and portable without parsing /proc/self/stat.
  static const std::chrono::steady_clock::time_point start = std::chrono::steady_clock::now();
  return start;
}

double ReadRssBytes() {
#if defined(__linux__)
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) {
    return 0.0;
  }
  long total_pages = 0;
  long rss_pages = 0;
  const int matched = std::fscanf(f, "%ld %ld", &total_pages, &rss_pages);
  std::fclose(f);
  if (matched != 2) {
    return 0.0;
  }
  return static_cast<double>(rss_pages) * static_cast<double>(::sysconf(_SC_PAGESIZE));
#else
  return 0.0;
#endif
}

double CountOpenFds() {
#if defined(__linux__)
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) {
    return 0.0;
  }
  double count = 0.0;
  while (struct dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] != '.') {
      count += 1.0;  // includes the opendir fd itself; off-by-one is fine
    }
  }
  ::closedir(dir);
  return count;
#else
  return 0.0;
#endif
}

}  // namespace

const char* BuildCompiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

const char* BuildSanitizer() {
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
  return "thread";
#elif __has_feature(address_sanitizer)
  return "address";
#endif
#endif
#if defined(__SANITIZE_THREAD__)
  return "thread";
#elif defined(__SANITIZE_ADDRESS__)
  return "address";
#else
  return "none";
#endif
}

ProcessStats ReadProcessStats() {
  ProcessStats stats;
  stats.rss_bytes = ReadRssBytes();
  stats.open_fds = CountOpenFds();
  stats.uptime_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - ProcessStart()).count();
  return stats;
}

ProcessStats UpdateProcessMetrics(MetricsRegistry* registry) {
  const std::string build_info = std::string("lard_build_info{version=\"") + LARD_VERSION +
                                 "\",compiler=\"" + BuildCompiler() + "\",sanitizer=\"" +
                                 BuildSanitizer() + "\"}";
  registry->Gauge(build_info)->Set(1.0);
  const ProcessStats stats = ReadProcessStats();
  registry->Gauge("lard_process_uptime_seconds")->Set(stats.uptime_seconds);
  registry->Gauge("lard_process_rss_bytes")->Set(stats.rss_bytes);
  registry->Gauge("lard_process_open_fds")->Set(stats.open_fds);
  return stats;
}

}  // namespace lard
