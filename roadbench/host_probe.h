// Host-capacity probe recorded with every run: a fixed spin loop timed on
// one thread and on `nproc` threads at once. On an idle host with real
// cores the ratio nproc * t1 / tN is close to nproc; on a shared host it
// says how much parallel capacity the run actually had, so scaling
// figures can be read against it.
#ifndef ROADMINE_ROADBENCH_HOST_PROBE_H_
#define ROADMINE_ROADBENCH_HOST_PROBE_H_

#include <cstddef>

namespace roadbench {

struct HostProbe {
  size_t nproc = 0;
  double spin_1t_ms = 0.0;   // One thread, one loop.
  double spin_nt_ms = 0.0;   // nproc threads, one loop each, wall time.
  double capacity = 0.0;     // nproc * spin_1t_ms / spin_nt_ms.
};

// Probes with `nproc` threads (the CPUs the process may use).
HostProbe ProbeHost(size_t nproc);

}  // namespace roadbench

#endif  // ROADMINE_ROADBENCH_HOST_PROBE_H_
