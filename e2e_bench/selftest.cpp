// Checks the benchmark's own arithmetic (arith.h). run.py runs this once
// after every build and refuses to measure if it fails.
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "arith.h"
#include "stream/replay.h"
#include "synth/study_generator.h"

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::cerr << "FAIL: " << what << "\n";
  }
}

void percentiles() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  expect(e2e::percentile(v, 50.0) == 50.0, "p50 of 1..100 is 50");
  expect(e2e::percentile(v, 90.0) == 90.0, "p90 of 1..100 is 90");
  expect(e2e::percentile(v, 100.0) == 100.0, "p100 is the max");
  expect(e2e::percentile({7.0}, 99.0) == 7.0, "one sample is every rank");
  expect(e2e::percentile({}, 50.0) == 0.0, "empty input gives 0");
  expect(e2e::median({3.0, 1.0, 2.0}) == 2.0, "median of three");

  expect(e2e::samples_beyond(100, 90.0) == 10, "10 beyond p90 of 100");
  expect(e2e::samples_beyond(100, 99.0) == 1, "1 beyond p99 of 100");
  // The tail rule: the highest rank with at least ten samples beyond it.
  expect(e2e::tail_percentile_rank(19) == 0.0, "n=19 supports no rank");
  expect(e2e::tail_percentile_rank(20) == 50.0, "n=20 supports p50");
  expect(e2e::tail_percentile_rank(99) == 50.0, "n=99 supports p50 only");
  expect(e2e::tail_percentile_rank(100) == 90.0, "n=100 supports p90");
  expect(e2e::tail_percentile_rank(999) == 90.0, "n=999 supports p90 only");
  expect(e2e::tail_percentile_rank(1000) == 99.0, "n=1000 supports p99");
  expect(e2e::tail_percentile_rank(10000) == 99.9, "n=10000 supports p99.9");
}

void due_time() {
  // On time: latency is the service time, no lateness.
  const e2e::DueSample on_time{1.0, 1.0, 1.004};
  expect(std::abs(e2e::latency_from_due(on_time) - 0.004) < 1e-12,
         "on-time latency is service time");
  expect(e2e::lateness(on_time) == 0.0, "on-time request is not late");
  // Queued behind a stall: the wait before sending is charged too.
  const e2e::DueSample queued{1.0, 1.25, 1.26};
  expect(std::abs(e2e::latency_from_due(queued) - 0.26) < 1e-12,
         "latency runs from the due time");
  expect(std::abs(e2e::lateness(queued) - 0.25) < 1e-12,
         "lateness is send minus due");
  // A sleep that overshoots the other way never reads as negative.
  expect(e2e::lateness({2.0, 1.999, 2.1}) == 0.0, "early sends are not late");
}

void vmhwm() {
  const std::string status =
      "Name:\tgeovalid\nVmPeak:\t  812344 kB\nVmSize:\t  812344 kB\n"
      "VmHWM:\t  123456 kB\nVmRSS:\t  100000 kB\n";
  expect(e2e::parse_vmhwm_kb(status) == 123456u, "VmHWM value in kB");
  expect(!e2e::parse_vmhwm_kb("Name:\tzombie\nState:\tZ (zombie)\n"),
         "a zombie has no VmHWM");
  expect(!e2e::parse_vmhwm_kb("VmHWM:\t  12x kB\n"), "junk is rejected");
  expect(!e2e::parse_vmhwm_kb("VmHWM:\t  12 MB\n"), "only kB is accepted");
  expect(e2e::parse_vmhwm_kb("VmHWM: 1 kB") == 1u, "no trailing newline");
  // The running process has one.
  std::string self;
  {
    std::FILE* f = std::fopen("/proc/self/status", "r");
    if (f != nullptr) {
      char buf[4096];
      std::size_t n = 0;
      while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) self.append(buf, n);
      std::fclose(f);
    }
  }
  expect(e2e::parse_vmhwm_kb(self).value_or(0) > 0, "own VmHWM is positive");
}

void stream_hash() {
  using geovalid::stream::flatten_dataset;
  auto events_for = [](std::uint64_t seed) {
    geovalid::synth::StudyConfig c = geovalid::synth::tiny_preset();
    c.seed = seed;
    return flatten_dataset(geovalid::synth::generate_study(c).dataset);
  };
  const auto a = events_for(7);
  const auto b = events_for(7);
  const auto c = events_for(8);
  expect(!a.empty(), "tiny study has events");
  expect(e2e::hash_events(a) == e2e::hash_events(b),
         "same seed, identical hash");
  expect(e2e::hash_events(a) != e2e::hash_events(c),
         "different seed, different hash");
  // Every field counts: one flipped coordinate bit changes the hash.
  auto d = a;
  for (auto& e : d) {
    if (e.kind == geovalid::stream::Event::Kind::kCheckin) {
      double& lat = e.checkin.location.lat_deg;
      lat = std::nextafter(lat, 90.0);
      break;
    }
  }
  expect(e2e::hash_events(a) != e2e::hash_events(d),
         "a one-ulp change is seen");
}

}  // namespace

int main() {
  percentiles();
  due_time();
  vmhwm();
  stream_hash();
  if (g_failures != 0) {
    std::cerr << g_failures << " self-test failure(s)\n";
    return 1;
  }
  std::cout << "e2e_selftest: all checks passed\n";
  return 0;
}
