#include "host_probe.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include "common.h"

namespace roadbench {

namespace {

constexpr uint64_t kSpinIterations = 20'000'000;

// A dependent integer chain the compiler cannot fold or vectorize.
uint64_t Spin(uint64_t seed) {
  uint64_t x = seed | 1;
  for (uint64_t i = 0; i < kSpinIterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

// The probe measures the host, not the library, so it spawns its own
// threads; the sink keeps the spin results live.
std::atomic<uint64_t> g_sink{0};  // roadmine-lint: allow(determinism)

}  // namespace

HostProbe ProbeHost(size_t nproc) {
  HostProbe probe;
  probe.nproc = std::max<size_t>(1, nproc);

  Clock::time_point start = Clock::now();
  g_sink += Spin(1);
  probe.spin_1t_ms = MillisSince(start);

  start = Clock::now();
  {
    std::vector<std::thread> threads;  // roadmine-lint: allow(determinism)
    threads.reserve(probe.nproc);
    for (size_t t = 0; t < probe.nproc; ++t) {
      threads.emplace_back([t] { g_sink += Spin(t + 2); });
    }
    for (auto& thread : threads) thread.join();
  }
  probe.spin_nt_ms = MillisSince(start);
  probe.capacity = static_cast<double>(probe.nproc) * probe.spin_1t_ms /
                   probe.spin_nt_ms;
  return probe;
}

}  // namespace roadbench
