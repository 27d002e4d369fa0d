// Cluster throughput: one `geovalid serve` process versus a router
// fronting 4 backends, same primary study over loopback TCP. The single
// process's ceiling is its one parsing thread; the router only extracts
// routing keys and forwards raw bytes, so with real cores behind the
// backends the cluster should clear 2x the single-process rate
// (docs/CLUSTER.md acceptance bar). Correctness is the hard gate: the
// cluster's merged partition must equal the batch pipeline's exactly.
// Throughput is warn-style — CI boxes and single-core containers cannot
// represent the deployment this measures — with the core count reported
// in the JSON so the record is interpretable.
#include <atomic>
#include <iomanip>
#include <iostream>
#include <memory>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "cluster/router.h"
#include "match/pipeline.h"
#include "serve/client.h"
#include "serve/net.h"
#include "serve/server.h"
#include "stream/replay.h"
#include "synth/study_generator.h"
#include "trace/visit_detector.h"

namespace {

using namespace geovalid;

struct Run {
  serve::LoadgenStats loadgen;
  match::Partition partition;
};

match::Partition sum_partitions(const std::vector<match::Partition>& parts) {
  match::Partition total;
  for (const match::Partition& p : parts) {
    total.honest += p.honest;
    total.extraneous += p.extraneous;
    total.missing += p.missing;
    total.checkins += p.checkins;
    total.visits += p.visits;
    for (std::size_t i = 0; i < p.by_class.size(); ++i) {
      total.by_class[i] += p.by_class[i];
    }
  }
  return total;
}

Run run_single(const std::vector<stream::Event>& events) {
  serve::ServeConfig config;
  config.engine.shards = 1;  // the single-process baseline
  config.metrics = false;
  config.idle_timeout_s = 0;
  serve::Server server(std::move(config));
  server.start();
  std::atomic<bool> stop{false};
  std::thread loop([&] { (void)server.run(&stop); });

  serve::LoadgenConfig lg;
  lg.port = server.ingest_port();
  lg.connections = 4;

  Run r;
  r.loadgen = serve::run_loadgen(events, lg);
  (void)serve::http_post("127.0.0.1", server.http_port(), "/admin/drain");
  loop.join();
  r.partition = server.engine().partition();
  return r;
}

Run run_cluster(const std::vector<stream::Event>& events,
                std::size_t n_backends) {
  struct Backend {
    std::unique_ptr<serve::Server> server;
    std::atomic<bool> stop{false};
    std::thread loop;
  };
  std::vector<std::unique_ptr<Backend>> backends;
  cluster::RouteConfig rc;
  rc.metrics = false;
  for (std::size_t i = 0; i < n_backends; ++i) {
    serve::ServeConfig sc;
    sc.engine.shards = 1;
    sc.metrics = false;
    sc.idle_timeout_s = 0;
    auto b = std::make_unique<Backend>();
    b->server = std::make_unique<serve::Server>(std::move(sc));
    b->server->start();
    b->loop = std::thread(
        [srv = b->server.get(), stop = &b->stop] { (void)srv->run(stop); });
    cluster::BackendAddr addr;
    addr.name = "b" + std::to_string(i);
    addr.ingest_port = b->server->ingest_port();
    addr.http_port = b->server->http_port();
    rc.backends.push_back(std::move(addr));
    backends.push_back(std::move(b));
  }
  cluster::Router router(std::move(rc));
  router.start();
  std::thread route_loop([&] { (void)router.run(); });

  serve::LoadgenConfig lg;
  lg.port = router.ingest_port();
  lg.connections = 4;

  Run r;
  r.loadgen = serve::run_loadgen(events, lg);
  // Cluster drain quiesces router + every backend before we read state.
  (void)serve::http_post("127.0.0.1", router.http_port(), "/admin/drain");
  route_loop.join();
  std::vector<match::Partition> parts;
  for (auto& b : backends) {
    b->loop.join();
    parts.push_back(b->server->engine().partition());
  }
  r.partition = sum_partitions(parts);
  return r;
}

template <typename F>
Run run_best(F&& once, int reps) {
  Run best = once();
  for (int i = 1; i < reps; ++i) {
    Run r = once();
    if (r.loadgen.send_events_per_sec > best.loadgen.send_events_per_sec) {
      best = std::move(r);
    }
  }
  return best;
}

void print_json(const char* mode, const Run& r, unsigned cores) {
  const auto& s = r.loadgen;
  std::cout << "{\"bench\":\"cluster_throughput\",\"mode\":\"" << mode
            << "\",\"cores\":" << cores
            << ",\"events_sent\":" << s.events_sent
            << ",\"send_seconds\":" << std::setprecision(6) << s.send_seconds
            << ",\"send_events_per_sec\":" << std::setprecision(8)
            << s.send_events_per_sec << "}\n";
}

bool partitions_equal(const match::Partition& a, const match::Partition& b) {
  return a.honest == b.honest && a.extraneous == b.extraneous &&
         a.missing == b.missing && a.checkins == b.checkins &&
         a.visits == b.visits && a.by_class == b.by_class;
}

}  // namespace

int main() {
  bench::header(
      "Cluster throughput (router + 4 backends vs one serve process)",
      "n/a (systems extension; the paper's pipeline is offline)");

  const unsigned cores = std::thread::hardware_concurrency();
  const synth::GeneratedStudy study =
      synth::generate_study(synth::primary_preset());
  const std::vector<stream::Event> events =
      stream::flatten_dataset(study.dataset);
  std::cout << "replaying " << events.size()
            << " events over loopback TCP (primary study), " << cores
            << " hardware threads\n\n";

  // Batch reference partition for the correctness gate.
  trace::Dataset batch_ds = study.dataset;
  {
    stream::StreamEngineConfig defaults;
    const trace::VisitDetector detector(defaults.detector);
    for (trace::UserRecord& u : batch_ds.mutable_users()) {
      u.visits = detector.detect(u.gps);
    }
  }
  const match::Partition batch =
      match::validate_dataset(batch_ds, {}, {}, 0).totals;

  run_single(events);  // warm-up

  const Run single = run_best([&] { return run_single(events); }, 3);
  print_json("single", single, cores);
  const Run clustered =
      run_best([&] { return run_cluster(events, 4); }, 3);
  print_json("cluster4", clustered, cores);

  // Hard gate: sharding must not change a single verdict.
  const bool single_ok = partitions_equal(single.partition, batch);
  const bool cluster_ok = partitions_equal(clustered.partition, batch);
  std::cout << "\nsingle partition vs batch:  "
            << (single_ok ? "identical" : "MISMATCH") << "\n";
  std::cout << "cluster partition vs batch: "
            << (cluster_ok ? "identical" : "MISMATCH") << "\n";
  if (!single_ok || !cluster_ok) return 1;

  // Acceptance bar: cluster >= 2x single. Warn-style: the speedup needs
  // real cores behind the backends — on a 1-2 core container every
  // process shares one CPU and the comparison measures scheduling, not
  // the architecture. The JSON (with the core count) is the record.
  const double speedup = clustered.loadgen.send_events_per_sec /
                         single.loadgen.send_events_per_sec;
  std::cout << "cluster/single speedup: " << std::setprecision(4) << speedup
            << "x (bar: 2x, needs >= ~5 cores to be representative)\n";
  if (speedup < 2.0) {
    std::cout << "WARNING: below the 2x acceptance bar"
              << (cores < 5 ? " (expected: only " + std::to_string(cores) +
                                  " hardware threads)"
                            : "")
              << "\n";
  }
  return 0;
}
