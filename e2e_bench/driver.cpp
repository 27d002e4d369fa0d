// e2e_driver: one run of one end-to-end workload against the shipped
// geovalid library and CLI (see README.md in this directory).
//
//   e2e_driver --workload NAME --seed N --seconds S --trace 0|1
//              --cli PATH --work DIR [--rev REV]
//
// The driver is the load generator: one process, at most three threads
// (ingest, control plane, /metrics sampler) and two ingest connections.
// Everything it measures is timed from here, around its own calls into
// the library or across the sockets of the daemons it spawns; the system
// under test receives only the generated inputs. Every timed repetition
// is checked against the batch reference (match::validate_dataset on the
// same generated dataset). The last line of stdout is the JSON result.
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "arith.h"
#include "core/parallel.h"
#include "core/pipeline.h"
#include "detect/detector.h"
#include "match/classifier.h"
#include "match/pipeline.h"
#include "obs/metrics.h"
#include "score/model.h"
#include "serve/net.h"
#include "serve/wire.h"
#include "stream/checkpoint.h"
#include "stream/engine.h"
#include "stream/replay.h"
#include "stream/snapshot_io.h"
#include "synth/study_generator.h"
#include "trace/csv.h"
#include "trace/visit_detector.h"

extern char** environ;

namespace {

namespace fs = std::filesystem;
using namespace geovalid;
using Clock = std::chrono::steady_clock;

double now_s() {
  static const Clock::time_point t0 = Clock::now();
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

template <typename Fn>
double timed(Fn&& fn) {
  const double t = now_s();
  fn();
  return now_s() - t;
}

/// Thrown for any setup or protocol failure; the run then prints no result.
struct BenchError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class Shape { kBatch, kServe, kCluster };

struct Workload {
  std::string name;
  Shape shape = Shape::kBatch;
  synth::StudyConfig study;
  std::size_t reactors = 1;  ///< per serve daemon
  std::size_t shards = 2;    ///< per serve daemon
  std::array<bool, 2> binary{false, false};  ///< per ingest connection
  bool model = false;          ///< train a model in set-up, serve with it
  double pace_eps = 0.0;       ///< total ingest rate; 0 = closed loop
  double query_rate = 0.0;     ///< control-plane requests/s (open loop)
  double checkpoint_every_s = 0.0;  ///< POST /admin/checkpoint period
};

// Study sizes are the primary preset shortened so that set-up (which the
// run repeats for its median) and enough timed repetitions fit in one run
// of a few tens of seconds on a 4-core box. The per-user mix of GPS,
// checkins and visits is the primary preset's.
Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  w.study = synth::primary_preset();
  w.study.seed = seed;
  w.study.mean_days_per_user = 3.0;
  if (name == "batch-csv") {
    w.shape = Shape::kBatch;
  } else if (name == "serve-text") {
    w.shape = Shape::kServe;
    w.reactors = 1;
    w.shards = 2;
  } else if (name == "cluster-binary") {
    w.shape = Shape::kCluster;
    w.reactors = 1;
    w.shards = 1;
    w.binary = {true, true};
    // Short and wide: 2.5x the primary's users, so the ring is not lumpy.
    w.study.user_count = 610;
    w.study.mean_days_per_user = 1.0;
  } else if (name == "serve-mixed") {
    w.shape = Shape::kServe;
    w.reactors = 2;
    w.shards = 2;
    w.binary = {false, true};
    w.model = true;
    w.study.mean_days_per_user = 2.0;
    w.pace_eps = 250000.0;
    w.query_rate = 8.0;
    w.checkpoint_every_s = 1.0;
  } else {
    throw BenchError("unknown workload: " + name);
  }
  return w;
}

// ---------------------------------------------------------------------------
// Child processes
// ---------------------------------------------------------------------------

// Every live child, for the watchdog: a run that overstays its budget
// kills what it started before exiting.
std::array<std::atomic<pid_t>, 16> g_children{};

void watchdog(int) {
  for (auto& p : g_children) {
    const pid_t pid = p.load();
    if (pid > 0) ::kill(pid, SIGKILL);
  }
  static constexpr char kMsg[] = "e2e_driver: watchdog expired\n";
  (void)!::write(2, kMsg, sizeof kMsg - 1);
  ::_exit(3);
}

/// Peak resident set of a live process (VmHWM), in kB; nullopt once it
/// has exited.
std::optional<std::uint64_t> vmhwm_kb(pid_t pid) {
  return e2e::parse_vmhwm_kb(
      read_file("/proc/" + std::to_string(pid) + "/status"));
}

// On a box with four or more cores the load generator keeps the last core
// to itself while it drives a repetition, and every system-under-test
// process runs on the others, so the generator never competes with what
// it measures. Set-up and the traced layer calls use every core.
struct CpuMasks {
  cpu_set_t sut;
  cpu_set_t gen;
  bool on = false;
};

const CpuMasks& cpu_masks() {
  static const CpuMasks masks = [] {
    CpuMasks m;
    const int n = static_cast<int>(std::thread::hardware_concurrency());
    CPU_ZERO(&m.sut);
    CPU_ZERO(&m.gen);
    if (n < 4) return m;
    for (int c = 0; c < n - 1; ++c) CPU_SET(c, &m.sut);
    CPU_SET(n - 1, &m.gen);
    m.on = true;
    return m;
  }();
  return masks;
}

/// Holds the calling thread on `mask` for its lifetime (threads it starts
/// meanwhile, and processes it spawns, inherit the mask).
class PinScope {
 public:
  explicit PinScope(const cpu_set_t& mask) {
    if (!cpu_masks().on) return;
    active_ = ::sched_getaffinity(0, sizeof saved_, &saved_) == 0 &&
              ::sched_setaffinity(0, sizeof mask, &mask) == 0;
  }
  ~PinScope() {
    if (active_) ::sched_setaffinity(0, sizeof saved_, &saved_);
  }
  PinScope(const PinScope&) = delete;
  PinScope& operator=(const PinScope&) = delete;

 private:
  cpu_set_t saved_{};
  bool active_ = false;
};

class Proc {
 public:
  Proc(const std::vector<std::string>& argv, const fs::path& out) {
    const PinScope pin(cpu_masks().sut);  // the child inherits it
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, 1, out.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&fa, 1, 2);
    std::vector<char*> args;
    for (const auto& a : argv) args.push_back(const_cast<char*>(a.c_str()));
    args.push_back(nullptr);
    const int rc =
        posix_spawn(&pid_, args[0], &fa, nullptr, args.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0) throw BenchError("cannot spawn " + argv[0]);
    for (auto& slot : g_children) {
      pid_t empty = 0;
      if (slot.compare_exchange_strong(empty, pid_)) break;
    }
  }
  ~Proc() {
    if (running_) {
      ::kill(pid_, SIGKILL);
      (void)wait_exit(10.0);
    }
  }
  Proc(const Proc&) = delete;
  Proc& operator=(const Proc&) = delete;

  [[nodiscard]] bool running() const { return running_; }
  [[nodiscard]] std::uint64_t peak_kb() const { return peak_kb_; }

  void sample_hwm() {
    if (!running_) return;
    if (const auto kb = vmhwm_kb(pid_)) peak_kb_ = std::max(peak_kb_, *kb);
  }

  /// Reaps the process; its exit code, or -1 if it had to be killed.
  int wait_exit(double timeout_s) {
    const double deadline = now_s() + timeout_s;
    while (running_) {
      int status = 0;
      const pid_t r = ::waitpid(pid_, &status, WNOHANG);
      if (r == pid_) {
        running_ = false;
        forget();
        exit_code_ = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
        break;
      }
      if (now_s() > deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        running_ = false;
        forget();
        exit_code_ = -1;
        break;
      }
      sample_hwm();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return exit_code_;
  }

  void terminate() {
    if (!running_) return;
    ::kill(pid_, SIGTERM);
    (void)wait_exit(20.0);
  }

 private:
  void forget() {
    for (auto& slot : g_children) {
      pid_t mine = pid_;
      if (slot.compare_exchange_strong(mine, 0)) break;
    }
  }

  pid_t pid_ = -1;
  bool running_ = true;
  int exit_code_ = -1;
  std::uint64_t peak_kb_ = 0;
};

// ---------------------------------------------------------------------------
// Batch reference and result comparison
// ---------------------------------------------------------------------------

std::string partition_key(const match::Partition& p) {
  std::ostringstream os;
  os << p.honest << ',' << p.extraneous << ',' << p.missing << ','
     << p.checkins << ',' << p.visits;
  for (const std::size_t n : p.by_class) os << ',' << n;
  return os.str();
}

match::Partition user_partition(const match::UserValidation& u) {
  match::Partition p;
  p.honest = u.match.honest_count();
  p.extraneous = u.match.extraneous_count();
  p.missing = u.match.missing_count();
  p.checkins = u.match.checkins.size();
  p.visits = u.match.visit_matched.size();
  for (std::size_t c = 0; c < match::kCheckinClassCount; ++c) {
    p.by_class[c] = u.count_of(static_cast<match::CheckinClass>(c));
  }
  return p;
}

void add_into(match::Partition& into, const match::Partition& p) {
  into.honest += p.honest;
  into.extraneous += p.extraneous;
  into.missing += p.missing;
  into.checkins += p.checkins;
  into.visits += p.visits;
  for (std::size_t c = 0; c < into.by_class.size(); ++c) {
    into.by_class[c] += p.by_class[c];
  }
}

/// The batch reference the online paths must reproduce.
struct Reference {
  std::string totals;                         ///< partition_key
  std::map<trace::UserId, std::string> user;  ///< fixed sample of users
};

Reference make_reference(const match::ValidationResult& v) {
  Reference ref;
  ref.totals = partition_key(v.totals);
  // A fixed sample: eight users spread evenly over the population.
  constexpr std::size_t kSample = 8;
  const std::size_t n = v.users.size();
  for (std::size_t i = 0; i < kSample && n > 0; ++i) {
    const auto& u = v.users[i * n / kSample];
    ref.user[u.id] = partition_key(user_partition(u));
  }
  return ref;
}

/// The batch pipeline on a CSV study, on the calling thread: read, detect
/// visits and snap them to POIs as analyze_csv does, validate.
match::ValidationResult validate_csv(const fs::path& dir) {
  trace::Dataset ds = trace::read_dataset_csv(dir, dir.filename().string());
  const trace::VisitDetector detector;
  for (auto& u : ds.mutable_users()) {
    u.visits = detector.detect(u.gps);
    detector.snap_to_pois(u.visits, ds.pois());
  }
  return match::validate_dataset(ds, {}, {}, 1);
}

/// Parses the "=== streaming partition ===" block a serve daemon prints
/// when it exits.
std::optional<match::Partition> parse_daemon_partition(const std::string& out) {
  const std::size_t at = out.find("=== streaming partition ===");
  if (at == std::string::npos) return std::nullopt;
  std::istringstream in(out.substr(at));
  std::string line;
  std::getline(in, line);
  match::Partition p;
  int seen = 0;
  while (std::getline(in, line) && !line.empty()) {
    std::istringstream ls(line);
    std::string word;
    ls >> word;
    if (word == "checkins") {
      std::string visits;
      char comma = 0;
      ls >> p.checkins >> comma >> visits >> p.visits;
      ++seen;
    } else if (word == "honest") {
      ls >> p.honest;
      ++seen;
    } else if (word == "extraneous") {
      std::size_t n = 0;
      if (ls >> n) {
        p.extraneous = n;
        ++seen;
      }
    } else if (word == "missing") {
      ls >> p.missing;
      ++seen;
    } else {
      for (std::size_t c = 1; c < match::kCheckinClassCount; ++c) {
        if (word == match::to_string(static_cast<match::CheckinClass>(c))) {
          ls >> p.by_class[c];
          ++seen;
        }
      }
    }
  }
  p.by_class[0] = p.honest;
  if (seen != 4 + static_cast<int>(match::kCheckinClassCount) - 1) {
    return std::nullopt;
  }
  return p;
}

// ---------------------------------------------------------------------------
// Wire streams
// ---------------------------------------------------------------------------

constexpr std::size_t kUnitEvents = 512;  ///< one binary frame / text chunk

struct ConnStream {
  std::string bytes;
  std::vector<std::size_t> unit_end;     ///< byte offset after each unit
  std::vector<std::uint64_t> unit_done;  ///< events through each unit
};

/// Splits events over the two connections by user (each user's records
/// travel one connection in order, the engine's ordering contract) and
/// encodes each side in its connection's format.
std::array<ConnStream, 2> encode_streams(std::span<const stream::Event> events,
                                         const std::array<bool, 2>& binary) {
  std::array<std::vector<stream::Event>, 2> split;
  for (const auto& e : events) split[e.user % 2].push_back(e);
  std::array<ConnStream, 2> out;
  for (std::size_t c = 0; c < 2; ++c) {
    ConnStream& s = out[c];
    const auto& es = split[c];
    for (std::size_t i = 0; i < es.size(); i += kUnitEvents) {
      const std::size_t n = std::min(kUnitEvents, es.size() - i);
      if (binary[c]) {
        serve::append_binary_frame(
            s.bytes, std::span<const stream::Event>(es.data() + i, n));
      } else {
        for (std::size_t k = i; k < i + n; ++k) {
          serve::append_wire_record(s.bytes, es[k]);
        }
      }
      s.unit_end.push_back(s.bytes.size());
      s.unit_done.push_back(i + n);
    }
  }
  return out;
}

struct SendResult {
  double t_first = 0.0;       ///< first byte handed to the kernel
  double t_last_byte = 0.0;   ///< last byte handed to the kernel
  double t_last_close = 0.0;  ///< last connection closed
  std::size_t failed_conns = 0;
};

/// Writes both streams: as fast as the sockets accept (closed loop) or,
/// when pace_eps > 0, each unit no earlier than its due time.
SendResult send_streams(const std::array<ConnStream, 2>& streams,
                        std::uint16_t port, double pace_eps,
                        const std::function<void()>& tick) {
  SendResult r;
  std::array<serve::Fd, 2> fds;
  for (std::size_t c = 0; c < 2; ++c) {
    try {
      fds[c] = serve::tcp_connect("127.0.0.1", port);
      serve::set_nonblocking(fds[c].get());
    } catch (const std::exception&) {
      ++r.failed_conns;
    }
  }
  // Paced, each connection carries its share of the total rate, so both
  // finish together.
  std::array<double, 2> events{0.0, 0.0};
  for (std::size_t c = 0; c < 2; ++c) {
    if (!streams[c].unit_done.empty()) {
      events[c] = static_cast<double>(streams[c].unit_done.back());
    }
  }
  const std::array<double, 2> conn_rate = {
      pace_eps * events[0] / std::max(1.0, events[0] + events[1]),
      pace_eps * events[1] / std::max(1.0, events[0] + events[1])};
  std::array<std::size_t, 2> sent{0, 0};
  std::array<std::size_t, 2> unit{0, 0};  ///< units released so far
  r.t_first = now_s();
  double last_tick = r.t_first;
  while (fds[0].valid() || fds[1].valid()) {
    const double t = now_s();
    double next_due = 1e300;
    std::array<std::size_t, 2> limit{0, 0};
    for (std::size_t c = 0; c < 2; ++c) {
      const ConnStream& s = streams[c];
      if (pace_eps <= 0.0) {
        limit[c] = s.bytes.size();
        continue;
      }
      while (unit[c] < s.unit_end.size()) {
        const double before =
            unit[c] == 0 ? 0.0 : static_cast<double>(s.unit_done[unit[c] - 1]);
        const double due = r.t_first + before / conn_rate[c];
        if (due > t) {
          next_due = std::min(next_due, due);
          break;
        }
        ++unit[c];
      }
      limit[c] = unit[c] == 0 ? 0 : s.unit_end[unit[c] - 1];
    }
    std::array<pollfd, 2> pfds{};
    nfds_t n = 0;
    std::array<std::size_t, 2> conn_of{};
    for (std::size_t c = 0; c < 2; ++c) {
      if (!fds[c].valid() || sent[c] >= limit[c]) continue;
      pfds[n] = pollfd{fds[c].get(), POLLOUT, 0};
      conn_of[n++] = c;
    }
    int timeout_ms = 50;
    if (n == 0 && next_due < 1e299) {
      timeout_ms = std::clamp(static_cast<int>((next_due - t) * 1000.0), 0, 50);
    }
    if (n == 0) {
      if (timeout_ms > 0) ::poll(nullptr, 0, timeout_ms);
    } else {
      ::poll(pfds.data(), n, 50);
    }
    for (nfds_t i = 0; i < n; ++i) {
      if ((pfds[i].revents & (POLLOUT | POLLERR | POLLHUP)) == 0) continue;
      const std::size_t c = conn_of[i];
      const std::size_t chunk =
          std::min<std::size_t>(limit[c] - sent[c], 1 << 18);
      const ssize_t w = ::send(fds[c].get(), streams[c].bytes.data() + sent[c],
                               chunk, MSG_NOSIGNAL);
      if (w > 0) {
        sent[c] += static_cast<std::size_t>(w);
        r.t_last_byte = now_s();
      } else if (w < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                 errno != EINTR) {
        ++r.failed_conns;
        fds[c].reset();
      }
    }
    for (std::size_t c = 0; c < 2; ++c) {
      if (fds[c].valid() && sent[c] == streams[c].bytes.size()) {
        fds[c].reset();
        r.t_last_close = now_s();
      }
    }
    if (now_s() - last_tick > 0.05) {
      last_tick = now_s();
      tick();
    }
  }
  return r;
}

// ---------------------------------------------------------------------------
// Deployments: the daemons of one repetition
// ---------------------------------------------------------------------------

struct Endpoint {
  std::uint16_t ingest = 0;
  std::uint16_t http = 0;
};

Endpoint wait_ports(const fs::path& port_file, const Proc& p, double deadline) {
  while (now_s() < deadline) {
    const std::string text = read_file(port_file);
    const std::size_t i = text.find("ingest=");
    const std::size_t h = text.find("http=");
    if (i != std::string::npos && h != std::string::npos &&
        text.find('\n', h) != std::string::npos) {
      return Endpoint{
          static_cast<std::uint16_t>(std::stoul(text.substr(i + 7))),
          static_cast<std::uint16_t>(std::stoul(text.substr(h + 5)))};
    }
    if (!p.running()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  throw BenchError("daemon did not publish its ports: " + port_file.string());
}

void wait_ready(std::uint16_t http, double deadline) {
  while (now_s() < deadline) {
    try {
      if (serve::http_get_deadline("127.0.0.1", http, "/readyz", 2000).status ==
          200) {
        return;
      }
    } catch (const std::exception&) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  throw BenchError("daemon never became ready");
}

struct Backend {
  std::unique_ptr<Proc> proc;
  fs::path out, checkpoints, metrics_json;
  Endpoint ep;
};

struct Deployment {
  std::vector<Backend> backends;  ///< serve daemons (hold the verdicts)
  std::unique_ptr<Proc> router;   ///< cluster only
  fs::path router_metrics_json;
  Endpoint front;  ///< where the load goes

  void sample_hwm() {
    for (auto& b : backends) b.proc->sample_hwm();
    if (router) router->sample_hwm();
  }
  [[nodiscard]] std::uint64_t peak_kb() const {
    std::uint64_t kb = router ? router->peak_kb() : 0;
    for (const auto& b : backends) kb += b.proc->peak_kb();
    return kb;
  }
  void terminate() {
    if (router) router->terminate();
    for (auto& b : backends) b.proc->terminate();
  }
};

Backend spawn_serve(const std::string& cli, const Workload& w,
                    const fs::path& dir, const fs::path& model) {
  fs::create_directories(dir);
  Backend b;
  b.out = dir / "stdout.txt";
  b.checkpoints = dir / "checkpoints";
  b.metrics_json = dir / "metrics.json";
  fs::create_directories(b.checkpoints);
  std::vector<std::string> argv = {
      cli, "serve", "--host", "127.0.0.1", "--port", "0", "--http-port", "0",
      "--reactors", std::to_string(w.reactors), "--shards",
      std::to_string(w.shards), "--checkpoint-dir", b.checkpoints.string(),
      // Only the drain (and explicit POST /admin/checkpoint) snapshots:
      // the CLI rejects 0, so the period is set beyond any stream length.
      "--checkpoint-interval", "1000000000000", "--port-file",
      (dir / "ports").string(), "--metrics-json", b.metrics_json.string()};
  if (w.model) {
    argv.push_back("--model");
    argv.push_back(model.string());
  }
  b.proc = std::make_unique<Proc>(argv, b.out);
  return b;
}

Deployment deploy(const std::string& cli, const Workload& w,
                  const fs::path& dir, const fs::path& model) {
  fs::remove_all(dir);
  Deployment d;
  const std::size_t n = w.shape == Shape::kCluster ? 2 : 1;
  for (std::size_t i = 0; i < n; ++i) {
    d.backends.push_back(
        spawn_serve(cli, w, dir / ("backend" + std::to_string(i)), model));
  }
  const double deadline = now_s() + 30.0;
  for (auto& b : d.backends) {
    b.ep = wait_ports(b.out.parent_path() / "ports", *b.proc, deadline);
  }
  if (w.shape == Shape::kCluster) {
    d.router_metrics_json = dir / "router_metrics.json";
    std::vector<std::string> argv = {
        cli, "route", "--host", "127.0.0.1", "--port", "0", "--http-port",
        "0", "--port-file", (dir / "router_ports").string(),
        "--metrics-json", d.router_metrics_json.string()};
    const char* names[] = {"one", "two"};
    for (std::size_t i = 0; i < n; ++i) {
      argv.push_back("--backend");
      argv.push_back(std::string(names[i]) + "=127.0.0.1:" +
                     std::to_string(d.backends[i].ep.ingest) + ":" +
                     std::to_string(d.backends[i].ep.http));
    }
    d.router = std::make_unique<Proc>(argv, dir / "router.txt");
    d.front = wait_ports(dir / "router_ports", *d.router, deadline);
  } else {
    d.front = d.backends[0].ep;
  }
  for (const auto& b : d.backends) wait_ready(b.ep.http, deadline);
  wait_ready(d.front.http, deadline);
  return d;
}

// ---------------------------------------------------------------------------
// Metrics from the daemons: the --metrics-json dump each writes on exit,
// and live /metrics scrapes during traced repetitions.
// ---------------------------------------------------------------------------

struct DumpSample {
  std::string name;
  std::string labels;  ///< the labels object, verbatim
  double value = 0.0;  ///< counter / gauge
  double sum = 0.0;    ///< histogram
  double count = 0.0;  ///< histogram
};

double number_after(const std::string& line, const std::string& key) {
  const std::size_t at = line.rfind(key);
  if (at == std::string::npos) return 0.0;
  return std::strtod(line.c_str() + at + key.size(), nullptr);
}

std::vector<DumpSample> read_metrics_dump(const fs::path& path) {
  std::vector<DumpSample> out;
  std::istringstream in(read_file(path));
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t n = line.find("{\"name\":\"");
    if (n == std::string::npos) continue;
    DumpSample s;
    const std::size_t b = n + 9;
    s.name = line.substr(b, line.find('"', b) - b);
    const std::size_t l = line.find("\"labels\":{");
    if (l != std::string::npos) {
      s.labels = line.substr(l + 10, line.find('}', l) - l - 10);
    }
    if (line.find("\"type\":\"histogram\"") != std::string::npos) {
      s.sum = number_after(line, "\"sum\":");
      s.count = number_after(line, "\"count\":");
    } else {
      s.value = number_after(line, "\"value\":");
    }
    out.push_back(std::move(s));
  }
  return out;
}

/// Sum of a family over every label set whose labels contain `match`.
double dump_total(const std::vector<DumpSample>& d, const std::string& name,
                  const std::string& match = {}, bool hist_sum = false,
                  bool hist_count = false) {
  double total = 0.0;
  for (const auto& s : d) {
    if (s.name != name) continue;
    if (!match.empty() && s.labels.find(match) == std::string::npos) continue;
    total += hist_sum ? s.sum : hist_count ? s.count : s.value;
  }
  return total;
}

/// Sum of every unlabelled-or-labelled sample of `name` in a Prometheus
/// exposition.
double prom_total(const std::string& text, const std::string& name) {
  double total = 0.0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    if (text.compare(pos, name.size(), name) == 0) {
      const char next = text[pos + name.size()];
      if (next == ' ' || next == '{') {
        const std::size_t sp = text.rfind(' ', eol);
        total += std::strtod(text.c_str() + sp + 1, nullptr);
      }
    }
    pos = eol + 1;
  }
  return total;
}

// ---------------------------------------------------------------------------
// Control plane: the open-loop query schedule and the /metrics sampler
// ---------------------------------------------------------------------------

enum Route { kSummary, kVerdicts, kScore, kSuspects, kMetrics, kCheckpoint,
             kRouteCount };
constexpr const char* kRouteNames[kRouteCount] = {
    "summary", "verdicts", "score", "suspects", "metrics", "checkpoint"};

struct CtlSample {
  Route route = kSummary;
  e2e::DueSample t;
  bool ok = false;
  std::size_t bytes = 0;
  double lag = 0.0;  ///< serve_ingest_lag_events (kMetrics only)
};

/// Runs an open-loop schedule on its own thread: request i is due at
/// start + i / rate (until `end`) and is sent then, whether or not earlier
/// requests have been answered (each on its own non-blocking connection, all
/// multiplexed by one poll loop), and is timed from its due time.
class Schedule {
 public:
  Schedule(std::uint16_t http, double start, double end, double rate,
           std::function<std::pair<Route, std::string>(std::size_t)> pick)
      : http_(http), start_(start), end_(end), rate_(rate),
        pick_(std::move(pick)),
        thread_([this] { loop(); }) {}
  ~Schedule() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  Schedule(const Schedule&) = delete;
  Schedule& operator=(const Schedule&) = delete;

  /// No request is issued after this; those in flight complete.
  std::vector<CtlSample> stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
    if (!error_.empty()) throw BenchError("control plane: " + error_);
    return std::move(samples_);
  }

 private:
  static constexpr double kDeadlineS = 30.0;

  struct InFlight {
    serve::Fd fd;
    std::string target;
    std::string out;
    std::size_t sent = 0;
    std::string in;
    CtlSample s;
  };

  void start_request(std::size_t i, double due) {
    auto [route, target] = pick_(i);
    InFlight f;
    f.s.route = route;
    f.s.t.due = due;
    f.target = target;
    f.out = std::string(route == kCheckpoint ? "POST " : "GET ") + target +
            " HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n" +
            (route == kCheckpoint ? "Content-Length: 0\r\n" : "") + "\r\n";
    f.s.t.sent = now_s();
    f.fd = serve::Fd(::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(http_);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (!f.fd.valid() ||
        (::connect(f.fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                   sizeof addr) != 0 &&
         errno != EINPROGRESS)) {
      finish(f, false);
      return;
    }
    inflight_.push_back(std::move(f));
  }

  void finish(InFlight& f, bool io_ok) {
    f.s.t.done = now_s();
    int status = 0;
    if (io_ok && f.in.rfind("HTTP/1.", 0) == 0 && f.in.size() > 12) {
      status = std::atoi(f.in.c_str() + 9);
    }
    const std::size_t body_at = f.in.find("\r\n\r\n");
    const std::string_view body =
        body_at == std::string::npos
            ? std::string_view{}
            : std::string_view(f.in).substr(body_at + 4);
    f.s.ok = status >= 200 && status < 300;
    f.s.bytes = body.size();
    if (f.s.route == kMetrics) {
      f.s.lag = prom_total(std::string(body), "serve_ingest_lag_events");
    }
    if (!f.s.ok) {
      std::cerr << "control plane: " << f.target << " -> " << status << " "
                << body.substr(0, 200) << "\n";
    }
    samples_.push_back(f.s);
    f.fd.reset();
  }

  void loop() {
    try {
      run_schedule();
    } catch (const std::exception& e) {
      error_ = e.what();  // stop() reports it on the caller's thread
    }
  }

  void run_schedule() {
    std::size_t next = 0;
    std::vector<pollfd> pfds;
    while (true) {
      const double t = now_s();
      double due = start_ + static_cast<double>(next) / rate_;
      while (!stop_.load() && due <= t && due < end_) {
        start_request(next++, due);
        due = start_ + static_cast<double>(next) / rate_;
      }
      if (stop_.load() && inflight_.empty()) return;
      pfds.clear();
      for (const auto& f : inflight_) {
        pfds.push_back(pollfd{
            f.fd.get(),
            static_cast<short>(f.sent < f.out.size() ? POLLOUT : POLLIN), 0});
      }
      const double wait_s = stop_.load() ? 0.01 : std::min(0.01, due - t);
      ::poll(pfds.data(), pfds.size(),
             static_cast<int>(std::max(0.0, wait_s) * 1000.0));
      for (std::size_t k = 0; k < inflight_.size(); ++k) {
        InFlight& f = inflight_[k];
        const short rev = pfds[k].revents;
        bool done = false;
        bool ok = true;
        if (rev & POLLOUT) {
          const ssize_t w = ::send(f.fd.get(), f.out.data() + f.sent,
                                   f.out.size() - f.sent, MSG_NOSIGNAL);
          if (w > 0) {
            f.sent += static_cast<std::size_t>(w);
          } else if (w < 0 && errno != EAGAIN && errno != EINTR) {
            done = true;
            ok = false;
          }
        } else if (rev & (POLLIN | POLLHUP | POLLERR)) {
          char buf[65536];
          const ssize_t r = ::recv(f.fd.get(), buf, sizeof buf, 0);
          if (r > 0) {
            f.in.append(buf, static_cast<std::size_t>(r));
          } else if (r == 0) {
            done = true;
          } else if (errno != EAGAIN && errno != EINTR) {
            done = true;
            ok = false;
          }
        }
        if (!done && now_s() - f.s.t.sent > kDeadlineS) {
          done = true;
          ok = false;
        }
        if (done) finish(f, ok);
      }
      std::erase_if(inflight_, [](const InFlight& f) { return !f.fd.valid(); });
    }
  }

  std::uint16_t http_;
  double start_;
  double end_;
  double rate_;
  std::function<std::pair<Route, std::string>(std::size_t)> pick_;
  std::atomic<bool> stop_{false};
  std::vector<InFlight> inflight_;
  std::vector<CtlSample> samples_;
  std::string error_;
  std::thread thread_;  // last: starts after the members it uses
};

// ---------------------------------------------------------------------------
// One run
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string cli;
  fs::path work;
  std::string rev = "unknown";
};

/// Counts every operation attempted and every one that failed.
struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  void op(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void check(bool ok, const std::string& what) {
    op(ok);
    if (!ok) {
      correct = false;
      std::cout << "MISMATCH: " << what << "\n";
    }
  }
};

struct MetricDef {
  const char* name;
  const char* unit;
};

// The names and units BENCHMARK.json declares, in its order.
constexpr MetricDef kEndToEnd[] = {
    {"events_per_s", "1/s"},
    {"setup_s", "s"},
    {"drain_tail_s", "s"},
    {"rss_peak_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"trace.read_csv_s", "s"},
    {"trace.csv_mb_per_s", "MB/s"},
    {"trace.detect_visits_s", "s"},
    {"core.pool_busy_frac", "frac"},
    {"match.validate_s", "s"},
    {"wire.text_parse_s", "s"},
    {"wire.binary_decode_s", "s"},
    {"wire.encode_s", "s"},
    {"wire.bytes", "bytes"},
    {"stream.engine_s", "s"},
    {"stream.mailbox_wait_ms", "ms"},
    {"stream.backpressure_stalls", "count"},
    {"stream.save_state_ms", "ms"},
    {"stream.state_bytes_per_user", "bytes"},
    {"score.top_suspects_ms", "ms"},
    {"score.engine_overhead_s", "s"},
    {"serve.send_s", "s"},
    {"serve.reconcile_s", "s"},
    {"serve.reactor0.busy_frac", "frac"},
    {"serve.reactor1.busy_frac", "frac"},
    {"serve.reactor0.ingest_conns", "count"},
    {"serve.reactor1.ingest_conns", "count"},
    {"serve.http.summary_ms", "ms"},
    {"serve.http.verdicts_ms", "ms"},
    {"serve.http.score_ms", "ms"},
    {"serve.http.suspects_ms", "ms"},
    {"serve.http.metrics_ms", "ms"},
    {"serve.http.checkpoint_ms", "ms"},
    {"serve.ingest_lag_events", "count"},
    {"cluster.ring_skew", "ratio"},
    {"cluster.backpressure_pauses", "count"},
    {"obs.scrape_ms", "ms"},
    {"obs.scrape_bytes", "bytes"},
    {"loadgen.late_p99_ms", "ms"},
    {"trace.unaccounted_s", "s"},
    {"tracing.untraced_events_per_s", "1/s"},
    {"tracing.traced_events_per_s", "1/s"},
    {"tracing.overhead_frac", "frac"},
};

struct Rep {
  bool traced = false;
  double headline_s = 0.0;   ///< first byte -> result (drain ack / partition)
  double send_s = 0.0;       ///< first byte -> last socket closed
  double drain_tail_s = 0.0; ///< last byte written -> drain acknowledged
  double rss_mb = 0.0;
  std::vector<double> reactor_conns;  ///< ingest connections per reactor
  std::vector<DumpSample> dump;       ///< merged daemon metrics dumps
  std::vector<CtlSample> ctl;         ///< control-plane schedule
  std::vector<CtlSample> scrapes;     ///< traced /metrics sampler
};

class Run {
 public:
  explicit Run(Options o)
      : opt_(std::move(o)), w_(make_workload(opt_.workload, opt_.seed)) {}

  int execute();

 private:
  void setup_once(bool keep_daemons);
  std::unique_ptr<Deployment> fresh_deployment();
  Rep batch_rep();
  Rep socket_rep(bool traced);
  void verify_daemons(const Deployment& d);
  void choose_query_users();
  std::map<std::string, double> layer_probes();
  void daemon_figures(const std::vector<Rep>& traced,
                      std::map<std::string, double>& m) const;
  void print_result(const std::map<std::string, double>& m,
                    std::span<const MetricDef> defs);

  Options opt_;
  Workload w_;
  Ledger ledger_;
  synth::GeneratedStudy study_;
  std::vector<stream::Event> events_;
  match::ValidationResult validation_;
  Reference ref_;
  score::ScoreModel model_;
  bool have_model_ = false;
  std::array<ConnStream, 2> streams_;
  std::unique_ptr<Deployment> ready_;  ///< the last set-up's daemons
  std::size_t deployments_ = 0;
  std::vector<trace::UserId> query_users_;  ///< users the queries name
  double ctl_delay_s_ = 0.0;  ///< schedule start, after ingest begins
  std::optional<bool> csv_exact_;  ///< batch-csv: CSV == in-memory verdicts
};

fs::path study_dir(const Options& o) { return o.work / "study"; }
fs::path model_path(const Options& o) { return o.work / "model.gvsm"; }

/// One complete set-up: generate the study, write what the workload's
/// system reads (CSV, model), and bring its daemons up to /readyz.
void Run::setup_once(bool keep_daemons) {
  study_ = synth::generate_study(w_.study);
  if (w_.shape == Shape::kBatch) {
    fs::remove_all(study_dir(opt_));
    trace::write_dataset_csv(study_.dataset, study_dir(opt_));
    return;
  }
  if (w_.model) {
    validation_ = match::validate_dataset(study_.dataset, {}, {}, 3);
    model_ = score::ScoreModel::from_detector(
        detect::train_detector(study_.dataset, validation_));
    score::save_model(model_path(opt_), model_);
    have_model_ = true;
  }
  if (ready_) ready_->terminate();
  ready_ = fresh_deployment();
  if (!keep_daemons) {
    ready_->terminate();
    ready_.reset();
  }
}

std::unique_ptr<Deployment> Run::fresh_deployment() {
  return std::make_unique<Deployment>(deploy(
      opt_.cli, w_, opt_.work / ("deploy" + std::to_string(deployments_++)),
      model_path(opt_)));
}

Rep Run::batch_rep() {
  // analyze_csv runs in a child process so that its VmHWM is its own.
  char self[4096] = {};
  const ssize_t n = ::readlink("/proc/self/exe", self, sizeof self - 1);
  if (n <= 0) throw BenchError("cannot resolve /proc/self/exe");
  std::string sample;
  for (const auto& [id, key] : ref_.user) {
    if (!sample.empty()) sample += ',';
    sample += std::to_string(id);
  }
  const fs::path out = opt_.work / "batch_child.txt";
  Proc child({self, "--batch-child", study_dir(opt_).string(), "--sample",
              sample},
             out);
  const int rc = child.wait_exit(120.0);
  const std::string text = read_file(out);
  Rep r;
  ledger_.op(rc == 0);
  if (rc != 0) throw BenchError("batch child failed: " + text);
  std::istringstream in(text);
  std::string tok;
  std::map<trace::UserId, std::string> users;
  std::string totals;
  double hwm_kb = 0.0;
  double load_s = 0.0;
  while (in >> tok) {
    const std::size_t eq = tok.find('=');
    if (eq == std::string::npos) continue;
    const std::string k = tok.substr(0, eq);
    const std::string v = tok.substr(eq + 1);
    if (k == "wall") r.headline_s = std::stod(v);
    else if (k == "load") load_s = std::stod(v);
    else if (k == "hwm_kb") hwm_kb = std::stod(v);
    else if (k == "totals") totals = v;
    else if (k == "user") {
      const std::size_t c = v.find(':');
      users[std::stoull(v.substr(0, c))] = v.substr(c + 1);
    }
  }
  ledger_.check(totals == ref_.totals,
                "batch partition " + totals + " != reference " + ref_.totals);
  for (const auto& [id, key] : ref_.user) {
    ledger_.check(users[id] == key, "batch user " + std::to_string(id) +
                                        " " + users[id] + " != " + key);
  }
  r.drain_tail_s = r.headline_s - load_s;
  r.rss_mb = hwm_kb / 1024.0;
  return r;
}

void Run::verify_daemons(const Deployment& d) {
  match::Partition total;
  bool parsed = true;
  for (const auto& b : d.backends) {
    const auto p = parse_daemon_partition(read_file(b.out));
    if (!p) {
      parsed = false;
      continue;
    }
    add_into(total, *p);
  }
  ledger_.check(parsed && partition_key(total) == ref_.totals,
                "drained partition " + partition_key(total) +
                    " != reference " + ref_.totals);
  // The drain's final checkpoint holds each backend's applied state;
  // finalized, it must give the batch verdicts for the sampled users.
  std::map<trace::UserId, std::string> got;
  for (const auto& b : d.backends) {
    const auto ck = stream::restore_latest(b.checkpoints);
    if (!ck) continue;
    stream::StreamEngineConfig cfg;
    cfg.shards = 1;
    cfg.metrics = false;
    cfg.model = have_model_ && w_.model ? &model_ : nullptr;
    stream::StreamEngine engine(cfg);
    // A serve checkpoint is the per-user coverage table, then the engine
    // payload as a blob (serve::Server::start reads it the same way).
    stream::SnapshotReader reader(ck->payload);
    const std::uint64_t covered = reader.u64();
    for (std::uint64_t i = 0; i < covered; ++i) {
      (void)reader.u32();
      (void)reader.u64();
    }
    engine.load_state(reader.blob());
    engine.finish();
    for (const auto& [id, key] : ref_.user) {
      if (const auto v = engine.user_verdicts(id)) {
        got[id] = partition_key(v->partition);
      }
    }
  }
  for (const auto& [id, key] : ref_.user) {
    ledger_.check(got[id] == key, "daemon user " + std::to_string(id) + " " +
                                      got[id] + " != " + key);
  }
}

Rep Run::socket_rep(bool traced) {
  std::unique_ptr<Deployment> d =
      ready_ ? std::move(ready_) : fresh_deployment();
  const PinScope pin(cpu_masks().gen);  // the schedules' threads inherit it
  Rep r;
  r.traced = traced;
  std::unique_ptr<Schedule> ctl;
  std::unique_ptr<Schedule> sampler;
  const double start = now_s() + 0.001;
  if (w_.query_rate > 0.0) {
    // The paced ingest ends at a known time; the last query is due 0.3 s
    // before it, so none is in flight when the drain is requested.
    const double ctl_start = start + ctl_delay_s_;
    const double ctl_end =
        w_.pace_eps > 0.0
            ? start + static_cast<double>(events_.size()) / w_.pace_eps - 0.3
            : 1e300;
    const std::size_t ck_every = w_.checkpoint_every_s > 0.0
        ? static_cast<std::size_t>(w_.checkpoint_every_s * w_.query_rate)
        : 0;
    ctl = std::make_unique<Schedule>(
        d->front.http, ctl_start, ctl_end, w_.query_rate,
        [this, ck_every](std::size_t i) -> std::pair<Route, std::string> {
          if (ck_every > 0 && i % ck_every == ck_every - 1) {
            return {kCheckpoint, "/admin/checkpoint"};
          }
          const std::string user =
              "/v1/users/" +
              std::to_string(query_users_[i % query_users_.size()]);
          switch (i % 5) {
            case 0: return {kSummary, "/v1/summary"};
            case 1: return {kVerdicts, user + "/verdicts"};
            case 2: return {kScore, user + "/score"};
            case 3: return {kSuspects, "/v1/suspects?k=10"};
            default: return {kMetrics, "/metrics"};
          }
        });
  }
  if (traced) {
    sampler = std::make_unique<Schedule>(
        d->front.http, start, 1e300, 5.0,
        [](std::size_t) -> std::pair<Route, std::string> {
          return {kMetrics, "/metrics"};
        });
  }
  const SendResult s = send_streams(streams_, d->front.ingest, w_.pace_eps,
                                    [&] { d->sample_hwm(); });
  for (std::size_t c = 0; c < 2; ++c) ledger_.op(c >= s.failed_conns);
  if (ctl) r.ctl = ctl->stop();
  if (sampler) r.scrapes = sampler->stop();
  d->sample_hwm();
  double t_ack = 0.0;
  try {
    const serve::HttpResponse resp = serve::http_post_deadline(
        "127.0.0.1", d->front.http, "/admin/drain", 120000);
    t_ack = now_s();
    ledger_.op(resp.status == 200);
  } catch (const std::exception& e) {
    ledger_.op(false);
    throw BenchError(std::string("drain failed: ") + e.what());
  }
  d->sample_hwm();
  for (const auto& c : r.ctl) ledger_.op(c.ok);
  for (const auto& c : r.scrapes) ledger_.op(c.ok);
  if (d->router) ledger_.op(d->router->wait_exit(30.0) == 0);
  for (auto& b : d->backends) ledger_.op(b.proc->wait_exit(30.0) == 0);
  r.headline_s = t_ack - s.t_first;
  r.send_s = s.t_last_close - s.t_first;
  r.drain_tail_s = t_ack - s.t_last_byte;
  r.rss_mb = static_cast<double>(d->peak_kb()) / 1024.0;
  for (const auto& b : d->backends) {
    auto dump = read_metrics_dump(b.metrics_json);
    r.dump.insert(r.dump.end(), dump.begin(), dump.end());
  }
  if (d->router) {
    auto dump = read_metrics_dump(d->router_metrics_json);
    r.dump.insert(r.dump.end(), dump.begin(), dump.end());
  }
  for (std::size_t k = 0; k < w_.reactors; ++k) {
    // Per-reactor accepts minus the HTTP connections, which reactor 0
    // alone serves: what is left are the ingest connections.
    double conns = dump_total(r.dump, "serve_reactor_connections_total",
                              "\"reactor\":\"" + std::to_string(k) + "\"");
    if (k == 0) {
      conns -= dump_total(r.dump, "serve_connections_total",
                          "\"kind\":\"http\"");
    }
    r.reactor_conns.push_back(conns);
  }
  verify_daemons(*d);
  return r;
}

double median_of(const std::vector<Rep>& reps, double Rep::*field) {
  std::vector<double> v;
  for (const auto& r : reps) v.push_back(r.*field);
  return e2e::median(v);
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

/// The queries name the eight users whose first checkin comes earliest
/// in the stream, and the schedule starts once the paced ingest has
/// delivered all of those checkins: every query then names a user the
/// daemon has scored, so none is refused as unknown.
void Run::choose_query_users() {
  std::map<trace::UserId, std::size_t> first_checkin;
  for (std::size_t i = 0; i < events_.size(); ++i) {
    if (events_[i].kind == stream::Event::Kind::kCheckin) {
      first_checkin.try_emplace(events_[i].user, i);
    }
  }
  std::vector<std::pair<std::size_t, trace::UserId>> by_first;
  for (const auto& [id, pos] : first_checkin) by_first.emplace_back(pos, id);
  std::sort(by_first.begin(), by_first.end());
  by_first.resize(std::min<std::size_t>(by_first.size(), 8));
  for (const auto& [pos, id] : by_first) query_users_.push_back(id);
  if (w_.pace_eps > 0.0 && !by_first.empty()) {
    ctl_delay_s_ =
        static_cast<double>(by_first.back().first) / w_.pace_eps + 0.05;
  }
}

void print_rep(std::size_t i, const Rep& r, double events, bool sockets) {
  std::cout << "rep " << i << (r.traced ? " traced" : "")
            << ": headline_s=" << fmt(r.headline_s)
            << " send_s=" << fmt(r.send_s)
            << " drain_tail_s=" << fmt(r.drain_tail_s)
            << " events_per_s=" << fmt(events / r.headline_s)
            << " rss_peak_mb=" << fmt(r.rss_mb);
  if (!r.reactor_conns.empty()) {
    std::cout << " ingest_conns_per_reactor=[";
    for (std::size_t k = 0; k < r.reactor_conns.size(); ++k) {
      std::cout << (k ? "," : "") << r.reactor_conns[k];
    }
    std::cout << "]";
  }
  if (sockets) {
    // The headline must split into send time plus drain tail.
    const double recon = r.headline_s - (r.send_s + r.drain_tail_s);
    if (std::fabs(recon) > 0.01 * r.headline_s) {
      std::cout << " RECONCILE: send_s+drain_tail_s differs from headline by "
                << fmt(recon) << " s";
    }
  }
  std::cout << "\n";
}

int Run::execute() {
  fs::create_directories(opt_.work);
  // Set-up, several times: its median is setup_s. The last set-up's
  // daemons serve the first timed repetition.
  constexpr int kSetups = 5;
  std::vector<double> setup_times;
  for (int i = 0; i < kSetups; ++i) {
    setup_times.push_back(timed([&] { setup_once(i + 1 == kSetups); }));
  }
  events_ = stream::flatten_dataset(study_.dataset);
  const std::uint64_t stream_hash = e2e::hash_events(events_);
  if (!w_.model) {
    validation_ = match::validate_dataset(study_.dataset, {}, {}, 3);
  }
  ref_ = make_reference(validation_);
  if (w_.shape == Shape::kBatch) {
    // batch-csv's system under test reads the CSV files, so its reference
    // is the batch pipeline on what they hold: parsed, visits re-detected
    // as analyze_csv does, on one thread. The CSV writer keeps 10
    // significant digits, so a round trip can move a borderline checkin
    // between classes; the line below says whether it did for this seed.
    const match::ValidationResult csv = validate_csv(study_dir(opt_));
    csv_exact_ = partition_key(csv.totals) == ref_.totals;
    ref_ = make_reference(csv);
  }
  choose_query_users();
  if (w_.shape != Shape::kBatch) streams_ = encode_streams(events_, w_.binary);

  std::cout << "provenance {\"workload\":\"" << w_.name << "\",\"seed\":"
            << opt_.seed << ",\"events\":" << events_.size()
            << ",\"users\":" << study_.dataset.users().size()
            << ",\"stream_fnv1a64\":\"" << std::hex << stream_hash << std::dec
            << "\",\"nproc\":" << std::thread::hardware_concurrency()
            << ",\"compiler\":\"" << __VERSION__ << "\",\"build_type\":\""
            << E2E_BUILD_TYPE << "\",\"rev\":\"" << opt_.rev
            << "\",\"trace\":" << (opt_.trace ? 1 : 0);
  if (csv_exact_) {
    std::cout << ",\"csv_roundtrip_exact\":"
              << (*csv_exact_ ? "true" : "false");
  }
  std::cout << "}\n";

  // Before timing: flush the set-ups' CSV writes, so disk writeback does
  // not run under the timed repetitions, and run one untimed warm-up
  // repetition (checked like the rest) so caches and lazy set-up settle.
  if (w_.shape == Shape::kBatch) {
    const int dir = ::open(study_dir(opt_).c_str(), O_RDONLY | O_DIRECTORY);
    if (dir >= 0) {
      (void)::syncfs(dir);
      ::close(dir);
    }
  }
  {
    const Rep warm =
        w_.shape == Shape::kBatch ? batch_rep() : socket_rep(false);
    std::cout << "warm-up: headline_s=" << fmt(warm.headline_s) << "\n";
  }

  std::vector<Rep> reps;
  const double t_measure = now_s();
  auto keep_going = [&](std::size_t min_reps) {
    return reps.size() < min_reps || now_s() - t_measure < opt_.seconds;
  };
  // Traced socket runs alternate untraced and traced repetitions, so the
  // tracing overhead compares neighbours. (On batch-csv the traced side is
  // the isolated layer calls that follow.)
  while (keep_going(opt_.trace ? 2 : 3)) {
    const bool traced =
        opt_.trace && w_.shape != Shape::kBatch && reps.size() % 2 == 1;
    Rep r = w_.shape == Shape::kBatch ? batch_rep() : socket_rep(traced);
    r.traced = traced;
    print_rep(reps.size(), r, static_cast<double>(events_.size()),
              w_.shape != Shape::kBatch);
    reps.push_back(std::move(r));
  }
  if (ready_) ready_->terminate();

  std::vector<Rep> untraced, traced;
  for (auto& r : reps) (r.traced ? traced : untraced).push_back(r);
  const double events = static_cast<double>(events_.size());
  auto eps = [&](const std::vector<Rep>& rs) {
    std::vector<double> v;
    for (const auto& r : rs) v.push_back(events / r.headline_s);
    return e2e::median(v);
  };

  // Control-plane figures (serve-mixed), over every untraced repetition.
  std::vector<double> query_ms, suspects_ms, checkpoint_ms;
  std::array<std::vector<double>, kRouteCount> by_route;
  for (const auto& r : untraced) {
    for (const auto& c : r.ctl) {
      const double ms = e2e::latency_from_due(c.t) * 1e3;
      by_route[c.route].push_back(ms);
      if (c.route == kCheckpoint) checkpoint_ms.push_back(ms);
      else query_ms.push_back(ms);
      if (c.route == kSuspects) suspects_ms.push_back(ms);
    }
  }
  // How late the generator ran, over every schedule of the run.
  std::vector<double> late_ms;
  for (const auto& r : reps) {
    for (const auto* list : {&r.ctl, &r.scrapes}) {
      for (const auto& c : *list) late_ms.push_back(e2e::lateness(c.t) * 1e3);
    }
  }

  const double failed_ratio =
      static_cast<double>(ledger_.failed) /
      static_cast<double>(std::max<std::uint64_t>(ledger_.attempted, 1));
  std::cout << "setup_s n=" << setup_times.size() << " median="
            << fmt(e2e::median(setup_times)) << " s samples=[";
  for (std::size_t i = 0; i < setup_times.size(); ++i) {
    std::cout << (i ? "," : "") << fmt(setup_times[i]);
  }
  std::cout << "]\n";
  std::cout << "repetitions untraced=" << untraced.size()
            << " traced=" << traced.size() << "\n";
  auto report_timing = [&](const std::string& name,
                           const std::vector<double>& v) {
    if (v.empty()) return;
    const double p = e2e::tail_percentile_rank(v.size());
    std::cout << name << " n=" << v.size() << " p50=" << fmt(e2e::median(v))
              << " ms";
    if (p > 50.0) {
      std::cout << " p" << p << "=" << fmt(e2e::percentile(v, p)) << " ms";
    }
    std::cout << "\n";
  };
  for (int k = 0; k < kRouteCount; ++k) {
    report_timing(std::string("serve.http.") + kRouteNames[k] + "_ms",
                  by_route[k]);
  }
  report_timing("query_ms", query_ms);
  report_timing("suspects_ms", suspects_ms);
  report_timing("checkpoint_ms", checkpoint_ms);
  report_timing("loadgen.late_ms", late_ms);
  std::cout << "failed_ratio=" << fmt(failed_ratio) << " (" << ledger_.failed
            << " failed of " << ledger_.attempted << " operations)\n";

  std::map<std::string, double> m;
  if (!opt_.trace) {
    m["events_per_s"] = eps(untraced);
    m["setup_s"] = e2e::median(setup_times);
    m["drain_tail_s"] = median_of(untraced, &Rep::drain_tail_s);
    m["rss_peak_mb"] = median_of(untraced, &Rep::rss_mb);
    print_result(m, kEndToEnd);
    return ledger_.correct ? 0 : 1;
  }

  m = layer_probes();
  if (!traced.empty()) daemon_figures(traced, m);
  if (w_.shape != Shape::kBatch) {
    std::array<std::vector<double>, 2> conns;
    for (const auto& r : reps) {
      for (std::size_t k = 0; k < r.reactor_conns.size() && k < 2; ++k) {
        conns[k].push_back(r.reactor_conns[k]);
      }
    }
    m["serve.reactor0.ingest_conns"] = e2e::median(conns[0]);
    m["serve.reactor1.ingest_conns"] = e2e::median(conns[1]);
    m["serve.send_s"] = median_of(untraced, &Rep::send_s);
    std::vector<double> recon;
    for (const auto& r : untraced) {
      recon.push_back(r.headline_s - (r.send_s + r.drain_tail_s));
    }
    m["serve.reconcile_s"] = e2e::median(recon);
    for (int k = 0; k < kRouteCount; ++k) {
      m[std::string("serve.http.") + kRouteNames[k] + "_ms"] =
          e2e::median(by_route[k]);
    }
    m["loadgen.late_p99_ms"] = e2e::percentile(late_ms, 99.0);
  }
  // The isolated layer times on this workload's blocking path, against
  // the untraced headline time.
  const double headline = median_of(untraced, &Rep::headline_s);
  double layers = 0.0;
  if (w_.shape == Shape::kBatch) {
    layers = m["trace.read_csv_s"] + m["trace.detect_visits_s"] +
             m["match.validate_s"];
    m["tracing.traced_events_per_s"] = events / layers;
  } else {
    layers = m["stream.engine_s"] +
             (w_.model ? m["score.engine_overhead_s"] : 0.0);
    for (std::size_t c = 0; c < 2; ++c) {
      const auto& done = streams_[c].unit_done;
      const double share =
          (done.empty() ? 0.0 : static_cast<double>(done.back())) / events;
      layers += share * (w_.binary[c] ? m["wire.binary_decode_s"]
                                      : m["wire.text_parse_s"]);
    }
    m["tracing.traced_events_per_s"] = traced.empty() ? 0.0 : eps(traced);
  }
  m["trace.unaccounted_s"] = headline - layers;
  m["tracing.untraced_events_per_s"] = eps(untraced);
  m["tracing.overhead_frac"] =
      m["tracing.traced_events_per_s"] > 0.0
          ? 1.0 - m["tracing.traced_events_per_s"] /
                      m["tracing.untraced_events_per_s"]
          : 0.0;
  print_result(m, kPerLayer);
  return ledger_.correct ? 0 : 1;
}

/// Daemon-side figures of the traced repetitions: from the metrics dump
/// each daemon wrote on exit and the /metrics scrapes taken meanwhile.
void Run::daemon_figures(const std::vector<Rep>& traced,
                        std::map<std::string, double>& m) const {
  std::vector<double> wait_ms, stalls, pauses, skew;
  std::array<std::vector<double>, 2> busy;
  std::vector<double> scrape_ms, scrape_bytes;
  double lag = 0.0;
  for (const auto& r : traced) {
    const double n =
        dump_total(r.dump, "stream_batch_latency_ns", {}, false, true);
    const double sum_ns =
        dump_total(r.dump, "stream_batch_latency_ns", {}, true);
    wait_ms.push_back(n == 0.0 ? 0.0 : sum_ns / n * 1e-6);
    stalls.push_back(dump_total(r.dump, "stream_backpressure_stalls_total"));
    const double daemons = w_.shape == Shape::kCluster ? 2.0 : 1.0;
    for (std::size_t k = 0; k < 2; ++k) {
      const double loop_ns =
          dump_total(r.dump, "serve_reactor_loop_ns",
                     "\"reactor\":\"" + std::to_string(k) + "\"", true);
      busy[k].push_back(loop_ns * 1e-9 / (r.headline_s * daemons));
    }
    pauses.push_back(dump_total(r.dump, "cluster_backpressure_pauses_total"));
    std::vector<double> per_backend;
    for (const auto& s : r.dump) {
      if (s.name == "cluster_forward_records_total") {
        per_backend.push_back(s.value);
      }
    }
    if (!per_backend.empty()) {
      double sum = 0.0;
      for (const double v : per_backend) sum += v;
      const double mean = sum / static_cast<double>(per_backend.size());
      const double max =
          *std::max_element(per_backend.begin(), per_backend.end());
      skew.push_back(mean > 0.0 ? max / mean : 0.0);
    }
    for (const auto* list : {&r.ctl, &r.scrapes}) {
      for (const auto& c : *list) {
        if (c.route != kMetrics) continue;
        scrape_ms.push_back(e2e::latency_from_due(c.t) * 1e3);
        scrape_bytes.push_back(static_cast<double>(c.bytes));
        lag = std::max(lag, c.lag);
      }
    }
  }
  m["stream.mailbox_wait_ms"] = e2e::median(wait_ms);
  m["stream.backpressure_stalls"] = e2e::median(stalls);
  m["serve.reactor0.busy_frac"] = e2e::median(busy[0]);
  m["serve.reactor1.busy_frac"] = e2e::median(busy[1]);
  m["cluster.backpressure_pauses"] = e2e::median(pauses);
  m["cluster.ring_skew"] = e2e::median(skew);
  m["obs.scrape_ms"] = e2e::median(scrape_ms);
  m["obs.scrape_bytes"] = e2e::median(scrape_bytes);
  m["serve.ingest_lag_events"] = lag;
}

/// Times the calls into each layer's public functions on this workload's
/// own dataset, one layer at a time.
std::map<std::string, double> Run::layer_probes() {
  std::map<std::string, double> m;

  // trace: CSV parsing and visit detection, exactly analyze_csv's stages.
  if (w_.shape != Shape::kBatch) {
    fs::remove_all(study_dir(opt_));
    trace::write_dataset_csv(study_.dataset, study_dir(opt_));
  }
  double csv_bytes = 0.0;
  for (const auto& f : fs::directory_iterator(study_dir(opt_))) {
    csv_bytes += static_cast<double>(f.file_size());
  }
  trace::Dataset ds;
  m["trace.read_csv_s"] = timed([&] {
    ds = trace::read_dataset_csv(study_dir(opt_), "study");
  });
  m["trace.csv_mb_per_s"] = csv_bytes / 1e6 / m["trace.read_csv_s"];

  core::ThreadPool pool(2);
  std::atomic<std::uint64_t> busy_ns{0};
  const trace::VisitDetector detector;
  auto users = ds.mutable_users();
  m["trace.detect_visits_s"] = timed([&] {
    pool.run(users.size(), [&](std::size_t i) {
      const auto t = Clock::now();
      users[i].visits = detector.detect(users[i].gps);
      detector.snap_to_pois(users[i].visits, ds.pois());
      busy_ns += static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t)
              .count());
    });
  });
  m["core.pool_busy_frac"] = static_cast<double>(busy_ns.load()) * 1e-9 /
                             (2.0 * m["trace.detect_visits_s"]);

  // match: the validation stage on the same pool.
  match::ValidationResult v;
  m["match.validate_s"] = timed([&] {
    v = match::validate_dataset(ds, {}, {}, pool);
  });
  // The pooled stages must agree with one thread on the same data. (On
  // socket workloads the CSV exists only for these calls; whether it
  // round-trips exactly is reported, not gated: see csv_roundtrip_exact.)
  const match::ValidationResult one = match::validate_dataset(ds, {}, {}, 1);
  ledger_.check(partition_key(v.totals) == partition_key(one.totals),
                "pooled batch partition " + partition_key(v.totals) +
                    " != one thread " + partition_key(one.totals));
  std::cout << "csv_roundtrip_exact="
            << (partition_key(v.totals) == partition_key(validation_.totals)
                    ? "true"
                    : "false")
            << "\n";

  // serve.wire: both formats over the whole stream, 64 KiB reads.
  const auto text = encode_streams(events_, {false, false});
  const auto binary = encode_streams(events_, {true, true});
  double encode_s = 0.0;
  double wire_bytes = 0.0;
  for (std::size_t c = 0; c < 2; ++c) {
    const bool bin = w_.shape != Shape::kBatch && w_.binary[c];
    // Re-encode one connection's share in its own format, timed.
    std::vector<stream::Event> share;
    for (const auto& e : events_) {
      if (e.user % 2 == c) share.push_back(e);
    }
    std::string out;
    encode_s += timed([&] {
      for (std::size_t i = 0; i < share.size(); i += kUnitEvents) {
        const std::size_t n = std::min(kUnitEvents, share.size() - i);
        if (bin) {
          serve::append_binary_frame(
              out, std::span<const stream::Event>(share.data() + i, n));
        } else {
          for (std::size_t k = i; k < i + n; ++k) {
            serve::append_wire_record(out, share[k]);
          }
        }
      }
    });
    wire_bytes += static_cast<double>(out.size());
  }
  m["wire.encode_s"] = encode_s;
  m["wire.bytes"] = w_.shape == Shape::kBatch ? csv_bytes : wire_bytes;

  std::uint64_t parsed = 0;
  m["wire.text_parse_s"] = timed([&] {
    for (const auto& s : text) {
      serve::LineDecoder dec;
      for (std::size_t off = 0; off < s.bytes.size(); off += 65536) {
        dec.feed(std::string_view(s.bytes).substr(off, 65536));
        while (const auto line = dec.next()) {
          const serve::WireResult r = serve::parse_wire_record(line->text);
          parsed += std::holds_alternative<stream::Event>(r) ? 1 : 0;
        }
      }
    }
  });
  ledger_.check(parsed == events_.size(), "text parse count");
  std::uint64_t decoded = 0;
  m["wire.binary_decode_s"] = timed([&] {
    for (const auto& s : binary) {
      serve::BinaryFrameDecoder dec;
      for (std::size_t off = 0; off < s.bytes.size(); off += 65536) {
        dec.feed(std::string_view(s.bytes).substr(off, 65536));
        while (const auto f = dec.next()) {
          using Frame = serve::BinaryFrameDecoder::Frame;
          if (const auto* frame = std::get_if<Frame>(&*f)) {
            decoded += frame->events.size();
          }
        }
      }
    }
  });
  ledger_.check(decoded == events_.size(), "binary decode count");

  // stream: the engine at this workload's total shard count, metrics on
  // as shipped, with one checkpoint taken at the end of the feed.
  const std::size_t shards =
      w_.shape == Shape::kCluster ? 2 * w_.shards : w_.shards;
  const auto batch_latency = [] {
    double sum = 0.0, count = 0.0, stalls = 0.0;
    for (const auto& s : obs::registry().samples()) {
      if (s.info.name == "stream_batch_latency_ns") {
        sum += static_cast<double>(s.histogram.sum);
        count += static_cast<double>(s.histogram.count);
      } else if (s.info.name == "stream_backpressure_stalls_total") {
        stalls += static_cast<double>(s.counter_value);
      }
    }
    return std::array<double, 3>{sum, count, stalls};
  };
  const auto before = batch_latency();
  double save_s = 0.0;
  std::size_t state_bytes = 0;
  {
    stream::StreamEngineConfig cfg;
    cfg.shards = shards;
    stream::StreamEngine engine(cfg);
    stream::ReplayConfig rc;
    rc.checkpoint_interval_events = events_.size();
    rc.on_checkpoint = [&](std::uint64_t) {
      save_s += timed([&] { state_bytes = engine.save_state().size(); });
    };
    const double wall =
        timed([&] { (void)stream::replay_events(events_, engine, rc); });
    m["stream.engine_s"] = wall - save_s;
    ledger_.check(partition_key(engine.partition()) == ref_.totals,
                  "isolated engine partition " +
                      partition_key(engine.partition()));
  }
  const auto after = batch_latency();
  m["stream.save_state_ms"] = save_s * 1e3;
  m["stream.state_bytes_per_user"] =
      static_cast<double>(state_bytes) /
      static_cast<double>(
          std::max<std::size_t>(study_.dataset.users().size(), 1));
  if (w_.shape == Shape::kBatch) {
    // No daemon here: the isolated engine's own mailbox figures.
    const double n = after[1] - before[1];
    m["stream.mailbox_wait_ms"] =
        n > 0.0 ? (after[0] - before[0]) / n * 1e-6 : 0.0;
    m["stream.backpressure_stalls"] = after[2] - before[2];
  }

  // score: the same replay with the model on, then top-k queries.
  if (!have_model_) {
    model_ = score::ScoreModel::from_detector(
        detect::train_detector(study_.dataset, validation_));
    have_model_ = true;
  }
  {
    stream::StreamEngineConfig cfg;
    cfg.shards = shards;
    cfg.model = &model_;
    stream::StreamEngine engine(cfg);
    const double wall =
        timed([&] { (void)stream::replay_events(events_, engine); });
    m["score.engine_overhead_s"] = wall - m["stream.engine_s"];
    std::vector<double> top_ms;
    for (int i = 0; i < 5; ++i) {
      top_ms.push_back(timed([&] { (void)engine.top_suspects(10); }) * 1e3);
    }
    m["score.top_suspects_ms"] = e2e::median(top_ms);
  }
  return m;
}

void Run::print_result(const std::map<std::string, double>& m,
                       std::span<const MetricDef> defs) {
  std::cout << "{\"correct\":" << (ledger_.correct ? "true" : "false")
            << ",\"attempted\":" << ledger_.attempted
            << ",\"failed\":" << ledger_.failed << ",\"metrics\":{";
  bool first = true;
  for (const MetricDef& d : defs) {
    // A figure the workload has no layer for (no daemon, no router)
    // reads 0.
    const auto it = m.find(d.name);
    std::cout << (first ? "" : ",") << "\"" << d.name << "\":{\"value\":"
              << fmt(it == m.end() ? 0.0 : it->second) << ",\"unit\":\""
              << d.unit << "\"}";
    first = false;
  }
  std::cout << "}}" << std::endl;
}

/// The batch-csv system under test, in its own process: analyze_csv with
/// visit detection on two threads, the same work as
/// `geovalid validate --detect-visits --threads 2`.
int batch_child(const fs::path& dir, const std::string& sample) {
  const double t = now_s();
  const core::StudyAnalysis a =
      core::analyze_csv(dir, dir.filename().string(), true, {}, {}, 2);
  const double wall = now_s() - t;
  double load_ns = 0.0;
  for (const auto& s : obs::registry().samples()) {
    if (s.info.name != "pipeline_stage_ns") continue;
    for (const auto& [k, v] : s.info.labels) {
      if (k == "stage" && v == "load_csv") {
        load_ns += static_cast<double>(s.histogram.sum);
      }
    }
  }
  std::cout << "wall=" << fmt(wall) << " load=" << fmt(load_ns * 1e-9)
            << " hwm_kb=" << vmhwm_kb(::getpid()).value_or(0)
            << " totals=" << partition_key(a.validation.totals);
  std::istringstream ids(sample);
  std::string id;
  while (std::getline(ids, id, ',')) {
    const trace::UserId u = std::stoull(id);
    for (const auto& uv : a.validation.users) {
      if (uv.id == u) {
        std::cout << " user=" << u << ":" << partition_key(user_partition(uv));
      }
    }
  }
  std::cout << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  std::vector<std::string> args(argv + 1, argv + argc);
  auto value = [&](const std::string& flag) -> std::optional<std::string> {
    for (std::size_t i = 0; i + 1 < args.size(); ++i) {
      if (args[i] == flag) return args[i + 1];
    }
    return std::nullopt;
  };
  try {
    if (const auto dir = value("--batch-child")) {
      return batch_child(*dir, value("--sample").value_or(""));
    }
    Options o;
    const auto workload = value("--workload");
    const auto cli = value("--cli");
    const auto work = value("--work");
    if (!workload || !cli || !work) {
      std::cerr << "usage: e2e_driver --workload NAME --seed N --seconds S "
                   "--trace 0|1 --cli PATH --work DIR [--rev REV]\n";
      return 2;
    }
    o.workload = *workload;
    o.cli = *cli;
    o.work = *work;
    o.seed = std::stoull(value("--seed").value_or("1"));
    o.seconds = std::stod(value("--seconds").value_or("10"));
    o.trace = value("--trace").value_or("0") == "1";
    o.rev = value("--rev").value_or("unknown");
    std::signal(SIGALRM, watchdog);
    ::alarm(170);
    Run run(o);
    return run.execute();
  } catch (const std::exception& e) {
    std::cerr << "e2e_driver: " << e.what() << "\n";
    return 1;
  }
}
