#include "servebench/src/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <pthread.h>
#include <sched.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

namespace servebench {
namespace {

constexpr int kRecvTimeoutSeconds = 10;

int Connect(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  timeval tv{};
  tv.tv_sec = kRecvTimeoutSeconds;
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  return fd;
}

bool SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      return false;
    }
  }
  return true;
}

bool ReadResponses(int fd, size_t count, ResponseReader* reader,
                   std::vector<ParsedResponse>* responses) {
  responses->clear();
  char buf[64 * 1024];
  while (responses->size() < count) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n > 0) {
      if (!reader->Feed(buf, static_cast<size_t>(n), responses)) {
        return false;
      }
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      return false;  // EOF, timeout or error before the batch was complete
    }
  }
  return responses->size() == count;
}

// Waits for the server's FIN after the last response of a connection the
// server closes. False when more bytes arrive first.
bool WaitForClose(int fd) {
  char buf[256];
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n == 0) {
      return true;
    }
    if (n > 0) {
      return false;
    }
    if (errno != EINTR) {
      return true;  // reset or timeout: nothing more was sent
    }
  }
}

// Closes a connection the server has already closed with a reset instead of
// a FIN, so neither end keeps it in TIME_WAIT. At thousands of connections a
// second the TIME_WAIT table otherwise fills within seconds; connect(),
// close() and the table's own expiry work then cost more as it fills, and
// what a run measures depends on how full the previous run left it.
void CloseWithReset(int fd) {
  const linger reset{1, 0};
  (void)::setsockopt(fd, SOL_SOCKET, SO_LINGER, &reset, sizeof(reset));
  ::close(fd);
}

void Merge(const PassResult& from, PassResult* into) {
  into->attempted += from.attempted;
  into->passed += from.passed;
  into->failed += from.failed;
  into->transport_errors += from.transport_errors;
  for (int v = 0; v < static_cast<int>(Verdict::kCount); ++v) {
    into->verdicts[v] += from.verdicts[v];
  }
  into->connections += from.connections;
  into->batches.insert(into->batches.end(), from.batches.begin(), from.batches.end());
}

// Reads the idle (idle + iowait) and steal ticks of `cpu` from /proc/stat;
// leaves them 0 when the line is missing.
void ReadCpuStat(int cpu, int64_t* idle_ticks, int64_t* steal_ticks) {
  FILE* file = std::fopen("/proc/stat", "r");
  if (file == nullptr) {
    return;
  }
  const std::string prefix = "cpu" + std::to_string(cpu) + " ";
  char line[512];
  while (std::fgets(line, sizeof(line), file) != nullptr) {
    long long v[8] = {};  // user nice system idle iowait irq softirq steal
    if (std::strncmp(line, prefix.c_str(), prefix.size()) == 0 &&
        std::sscanf(line + prefix.size(), "%lld %lld %lld %lld %lld %lld %lld %lld", &v[0],
                    &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
      *idle_ticks = v[3] + v[4];
      *steal_ticks = v[7];
      break;
    }
  }
  std::fclose(file);
}

}  // namespace

int64_t NowNs() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

Client::Client(const Workload* workload, uint16_t port, int threads)
    : workload_(workload), port_(port), shares_(static_cast<size_t>(threads)),
      cursors_(static_cast<size_t>(threads), 0) {
  for (size_t i = 0; i < workload_->sessions.size(); ++i) {
    shares_[i % shares_.size()].push_back(i);
  }
}

PassResult Client::RunFor(double seconds, int subwindows) {
  return Run(seconds, subwindows, kUnlimited);
}

PassResult Client::RunSessions(int64_t sessions_per_thread) {
  return Run(0.0, 0, sessions_per_thread);
}

std::vector<size_t> Client::NextSessions(int64_t sessions_per_thread) const {
  std::vector<size_t> sessions;
  for (size_t t = 0; t < shares_.size(); ++t) {
    for (int64_t n = 0; n < sessions_per_thread && !shares_[t].empty(); ++n) {
      sessions.push_back(shares_[t][(cursors_[t] + static_cast<size_t>(n)) % shares_[t].size()]);
    }
  }
  return sessions;
}

PassResult Client::Run(double seconds, int subwindows, int64_t sessions_per_thread) {
  std::vector<PassResult> results(shares_.size());
  stop_.store(false);
  const int64_t start_ns = NowNs();
  std::vector<std::thread> threads;
  for (size_t t = 0; t < shares_.size(); ++t) {
    threads.emplace_back([this, t, sessions_per_thread, &results]() {
      PassResult* out = &results[t];
      const std::vector<size_t>& share = shares_[t];
      for (int64_t n = 0; sessions_per_thread == kUnlimited || n < sessions_per_thread; ++n) {
        if (share.empty() || stop_.load(std::memory_order_relaxed)) {
          break;
        }
        const SessionRequests& session = workload_->sessions[share[cursors_[t]]];
        cursors_[t] = (cursors_[t] + 1) % share.size();
        if (!RunSession(session, out)) {
          break;
        }
      }
    });
  }
  PassResult merged;
  if (seconds > 0.0) {
    // The threads run until stop_ is set, so their CPU clocks stay readable
    // at every boundary.
    std::vector<clockid_t> clocks(threads.size());
    for (size_t t = 0; t < threads.size(); ++t) {
      pthread_getcpuclockid(threads[t].native_handle(), &clocks[t]);
    }
    const auto tick = [&]() {
      CpuTick sample;
      timespec ts{};
      clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
      sample.process_cpu_ns = static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
      for (const clockid_t clock : clocks) {
        clock_gettime(clock, &ts);
        sample.client_cpu_ns += static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
      }
      sample.t_ns = NowNs();
      ReadCpuStat(sched_getcpu(), &sample.cpu_idle_ticks, &sample.cpu_steal_ticks);
      merged.ticks.push_back(sample);
    };
    tick();
    const int parts = std::max(1, subwindows);
    for (int k = 1; k <= parts; ++k) {
      const int64_t boundary_ns = start_ns + static_cast<int64_t>(seconds * 1e9 * k / parts);
      std::this_thread::sleep_for(std::chrono::nanoseconds(boundary_ns - NowNs()));
      tick();
    }
    stop_.store(true);
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (const PassResult& result : results) {
    Merge(result, &merged);
  }
  merged.wall_s = static_cast<double>(NowNs() - start_ns) / 1e9;
  return merged;
}

bool Client::RunSession(const SessionRequests& session, PassResult* out) {
  const lard::TargetCatalog& catalog = workload_->trace.catalog();
  const int fd = Connect(port_);
  if (fd < 0) {
    ++out->transport_errors;
    out->attempted += session.batch_targets.front().size();
    out->failed += session.batch_targets.front().size();
    return true;
  }
  ++out->connections;
  ResponseReader reader;
  std::vector<ParsedResponse> responses;
  std::vector<ExpectedResponse> expected;
  bool finished = true;
  bool complete = true;
  for (size_t b = 0; b < session.batch_bytes.size(); ++b) {
    if (b > 0 && stop_.load(std::memory_order_relaxed)) {
      finished = false;  // the rest of the session falls outside the window
      break;
    }
    const std::vector<lard::TargetId>& targets = session.batch_targets[b];
    const int64_t sent_ns = NowNs();
    out->attempted += targets.size();
    complete = SendAll(fd, session.batch_bytes[b]) &&
               ReadResponses(fd, targets.size(), &reader, &responses);
    const int64_t done_ns = NowNs();
    responses_received_.fetch_add(responses.size(), std::memory_order_relaxed);
    expected.clear();
    for (const lard::TargetId target : targets) {
      const lard::Target& entry = catalog.Get(target);
      expected.push_back({entry.path, entry.size_bytes});
    }
    uint32_t passed = 0;
    for (size_t i = 0; i < responses.size() && i < targets.size(); ++i) {
      const Verdict verdict = CheckResponse(responses[i], expected, i);
      ++out->verdicts[static_cast<int>(verdict)];
      if (verdict == Verdict::kOk) {
        ++passed;
      } else {
        ++out->failed;
      }
    }
    out->passed += passed;
    if (!complete) {
      ++out->transport_errors;
      out->failed += targets.size() - std::min(targets.size(), responses.size());
      break;
    }
    out->batches.push_back(
        {done_ns, done_ns - sent_ns, static_cast<uint32_t>(targets.size()), passed});
  }
  if (!finished || !complete) {
    ::close(fd);
    return finished;
  }
  // The server announced the close (HTTP/1.0, or "Connection: close" on the
  // session's last request).
  if (!WaitForClose(fd)) {
    ++out->transport_errors;
    ++out->failed;
  }
  CloseWithReset(fd);
  return finished;
}

}  // namespace servebench
