// Serve-layer throughput: run the daemon in-process, replay the primary
// study through real sockets with the loadgen client, and report
// end-to-end events/sec (serialize + TCP + parse + engine) over a
// format x connections x reactors matrix — text and binary wire formats,
// 8..64 connections at 1, 2 and 4 reactors. Emits one JSON line per
// configuration (with the core count: the scaling numbers only mean
// something with real cores under them).
//
// Gates: every measured configuration's final partition must equal the
// batch pipeline's bit for bit (hard failure — neither reactors nor the
// wire format may be visible in the results); the 4-reactor rate should
// clear 2x the 1-reactor rate and 5M events/s on loopback, and the best
// binary rate should clear 1.5x the best text rate (the text/binary bar
// is hard at >= 5 cores, warn-style below — a 1-2 core CI box measures
// scheduling, not the architecture).
#include <atomic>
#include <iomanip>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
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
  std::size_t connections = 0;
  std::size_t reactors = 0;
  bool binary = false;
  serve::LoadgenStats loadgen;
  match::Partition partition;
};

Run run_once(const std::vector<stream::Event>& events,
             std::size_t connections, std::size_t reactors, bool binary) {
  serve::ServeConfig config;
  config.engine.shards = 4;
  config.reactors = reactors;
  config.metrics = false;  // measure the serve path, not the exporter
  config.idle_timeout_s = 0;
  config.max_connections = 1024;
  serve::Server server(std::move(config));
  server.start();

  std::atomic<bool> stop{false};
  std::thread loop([&] { (void)server.run(&stop); });

  serve::LoadgenConfig lg;
  lg.port = server.ingest_port();
  lg.http_port = server.http_port();
  lg.connections = connections;
  lg.binary = binary;

  Run r;
  r.connections = connections;
  r.reactors = reactors;
  r.binary = binary;
  r.loadgen = serve::run_loadgen(events, lg);
  // Quiesce: the drain answer means every record sent above is in the
  // verdicts (the server finishes reading the socket buffers first).
  (void)serve::http_post("127.0.0.1", server.http_port(), "/admin/drain");
  loop.join();
  stop.store(true);  // unused: the drain exits the loop
  r.partition = server.engine().partition();
  return r;
}

Run run_best(const std::vector<stream::Event>& events,
             std::size_t connections, std::size_t reactors, bool binary,
             int reps) {
  Run best = run_once(events, connections, reactors, binary);
  for (int i = 1; i < reps; ++i) {
    Run r = run_once(events, connections, reactors, binary);
    if (r.loadgen.send_events_per_sec > best.loadgen.send_events_per_sec) {
      best = std::move(r);
    }
  }
  return best;
}

void print_json(const Run& r, unsigned cores) {
  const auto& s = r.loadgen;
  std::cout << "{\"bench\":\"serve_throughput\",\"format\":\"" << s.format
            << "\",\"connections\":"
            << r.connections << ",\"reactors\":" << r.reactors
            << ",\"cores\":" << cores
            << ",\"events_sent\":" << s.events_sent
            << ",\"bytes_sent\":" << s.bytes_sent
            << ",\"send_seconds\":" << std::setprecision(6) << s.send_seconds
            << ",\"summary_latency_s\":" << s.summary_latency_s
            << ",\"send_events_per_sec\":" << std::setprecision(8)
            << s.send_events_per_sec << ",\"encode_events_per_sec\":"
            << s.encode_events_per_sec << "}\n";
}

bool partition_eq(const match::Partition& a, const match::Partition& b) {
  return a.honest == b.honest && a.extraneous == b.extraneous &&
         a.missing == b.missing && a.checkins == b.checkins &&
         a.visits == b.visits && a.by_class == b.by_class;
}

}  // namespace

int main() {
  bench::header("Serve daemon throughput (connections x reactors matrix)",
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

  run_once(events, 8, 1, false);  // warm-up: faults, listen-socket caches
  run_once(events, 8, 1, true);

  // The matrix. The partition gate is hard on EVERY cell: byte-identical
  // results are the whole point of the reactor rebuild, and the wire
  // format must be just as invisible.
  bool partitions_ok = true;
  double best_r1 = 0.0;
  double best_r4 = 0.0;
  double best_text = 0.0;
  double best_binary = 0.0;
  for (const bool binary : {false, true}) {
    for (const std::size_t reactors : {1u, 2u, 4u}) {
      for (const std::size_t connections : {8u, 16u, 32u, 64u}) {
        Run r = run_best(events, connections, reactors, binary, 3);
        print_json(r, cores);
        if (!partition_eq(r.partition, batch)) {
          partitions_ok = false;
          std::cout << "PARTITION MISMATCH at format="
                    << (binary ? "binary" : "text")
                    << " connections=" << connections
                    << " reactors=" << reactors << "\n";
        }
        const double rate = r.loadgen.send_events_per_sec;
        if (!binary) {
          // The reactor-scaling bars keep their original text baseline.
          if (reactors == 1 && rate > best_r1) best_r1 = rate;
          if (reactors == 4 && rate > best_r4) best_r4 = rate;
          if (rate > best_text) best_text = rate;
        } else if (rate > best_binary) {
          best_binary = rate;
        }
      }
    }
  }

  std::cout << "\npartition vs batch across the matrix: "
            << (partitions_ok ? "identical" : "MISMATCH") << "\n";
  if (!partitions_ok) return 1;

  // Acceptance bars, warn-style (the JSON above is the record):
  //   - 4 reactors >= 2x 1 reactor (needs >= ~5 real cores: 4 reactors +
  //     shard workers + the loadgen all contend on a starved box),
  //   - >= 5M events/s on loopback at the best configuration.
  const double speedup = best_r1 > 0.0 ? best_r4 / best_r1 : 0.0;
  std::cout << "reactor scaling (best 4-reactor / best 1-reactor): "
            << std::setprecision(4) << speedup
            << "x (bar: 2x, needs >= ~5 cores to be representative)\n";
  if (speedup < 2.0) {
    std::cout << "WARNING: below the 2x acceptance bar"
              << (cores < 5 ? " (expected: only " + std::to_string(cores) +
                                  " hardware threads)"
                            : "")
              << "\n";
  }
  const double best = best_r4 > best_r1 ? best_r4 : best_r1;
  std::cout << "best throughput: " << std::setprecision(8) << best
            << " events/s (bar: 5000000)\n";
  if (best < 5000000.0) {
    std::cout << "WARNING: below the 5M events/s acceptance bar"
              << (cores < 5 ? " (expected: only " + std::to_string(cores) +
                                  " hardware threads)"
                            : "")
              << "\n";
  }

  // The format A/B: columnar frames skip the server's per-record text
  // parse, so binary should beat text end to end once real cores carry
  // the reactors. Hard at >= 5 cores, warn-style below (a starved box
  // measures scheduling, not parsing).
  const double ab = best_text > 0.0 ? best_binary / best_text : 0.0;
  std::cout << "format A/B (best binary / best text): "
            << std::setprecision(4) << ab
            << "x (bar: 1.5x, hard at >= 5 cores)\n";
  if (ab < 1.5) {
    std::cout << (cores >= 5 ? "FAILED" : "WARNING")
              << ": below the 1.5x binary-vs-text acceptance bar"
              << (cores < 5 ? " (expected: only " + std::to_string(cores) +
                                  " hardware threads)"
                            : "")
              << "\n";
    if (cores >= 5) return 1;
  }
  return 0;
}
