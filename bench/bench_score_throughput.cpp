// Online scoring subsystem bench (docs/DETECTION.md): the cost and the
// quality of serving `/v1/suspects` live.
//
// Part 1 — hot-path overhead A/B: replay the primary study through the
// serve daemon twice, identical configuration, with the scoring model off
// and on. The per-checkin arrival score is the only difference between
// the two runs, so the events/sec delta is the detector's ingest tax.
// Gate: <= 10% overhead (hard at >= 5 cores, warn-style below — a
// starved box measures scheduling, not the scorer).
//
// Part 2 — detection quality vs the batch detector: score every held-out
// checkin two ways — the batch detector's full-trace row score and the
// online scorer's arrival score (prefix-only, what `/v1/suspects` ranks
// by live) — at the batch-calibrated best-F1 threshold, against the
// generator's ground-truth behaviour labels, broken out per archetype
// (honest / superfluous / remote / driveby).
//
// Hard gate on either run: after the drain, every served user mean score
// must equal the batch detector's mean bit for bit (the exactness
// contract the ScoreEquivalence suite pins at unit scale).
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "detect/detector.h"
#include "detect/evaluation.h"
#include "score/model.h"
#include "score/scorer.h"
#include "serve/client.h"
#include "serve/net.h"
#include "serve/server.h"
#include "stream/replay.h"
#include "synth/checkin_model.h"

namespace {

using namespace geovalid;

struct Run {
  serve::LoadgenStats loadgen;
  bool scores_ok = true;
};

/// One serve A/B arm. With a model path the drain is followed by a
/// bit-identity audit of every user's served mean score.
Run run_once(const std::vector<stream::Event>& events,
             const std::filesystem::path& model_path,
             const std::map<trace::UserId, double>* expected_means) {
  serve::ServeConfig config;
  config.engine.shards = 4;
  config.reactors = 2;
  config.metrics = false;  // measure the serve path, not the exporter
  config.idle_timeout_s = 0;
  config.max_connections = 1024;
  config.model_path = model_path;
  serve::Server server(std::move(config));
  server.start();

  std::atomic<bool> stop{false};
  std::thread loop([&] { (void)server.run(&stop); });

  serve::LoadgenConfig lg;
  lg.port = server.ingest_port();
  lg.http_port = server.http_port();
  lg.connections = 16;

  Run r;
  r.loadgen = serve::run_loadgen(events, lg);
  (void)serve::http_post("127.0.0.1", server.http_port(), "/admin/drain");
  loop.join();
  stop.store(true);  // unused: the drain exits the loop

  if (expected_means != nullptr) {
    for (const auto& [user, mean] : *expected_means) {
      const auto snap = server.engine().user_score(user);
      if (!snap || snap->score != mean) {
        r.scores_ok = false;
        std::cout << "SERVED SCORE MISMATCH for user " << user << "\n";
      }
    }
  }
  return r;
}

Run run_best(const std::vector<stream::Event>& events,
             const std::filesystem::path& model_path,
             const std::map<trace::UserId, double>* expected_means,
             int reps) {
  Run best = run_once(events, model_path, expected_means);
  for (int i = 1; i < reps; ++i) {
    Run r = run_once(events, model_path, expected_means);
    r.scores_ok = r.scores_ok && best.scores_ok;
    if (r.loadgen.send_events_per_sec > best.loadgen.send_events_per_sec) {
      best = std::move(r);
    } else {
      best.scores_ok = r.scores_ok;
    }
  }
  return best;
}

void print_throughput_json(const Run& r, bool model_on, unsigned cores) {
  const auto& s = r.loadgen;
  std::cout << "{\"bench\":\"score_throughput\",\"model\":\""
            << (model_on ? "on" : "off")
            << "\",\"connections\":16,\"reactors\":2,\"cores\":" << cores
            << ",\"events_sent\":" << s.events_sent
            << ",\"send_events_per_sec\":" << std::setprecision(8)
            << s.send_events_per_sec << "}\n";
}

/// Per-archetype flag tallies for one scoring path.
struct ArchetypeTally {
  std::size_t total = 0;
  std::size_t flagged = 0;
};

}  // namespace

int main() {
  bench::header(
      "Online scoring: serve overhead A/B + live-vs-batch detection",
      "n/a (systems extension; the paper's detector analysis is offline)");

  const unsigned cores = std::thread::hardware_concurrency();
  const auto& prim = bench::primary();
  const std::vector<stream::Event> events =
      stream::flatten_dataset(prim.dataset);

  // Freeze the artifact exactly as `geovalid train` would.
  const detect::TrainedDetector det =
      detect::train_detector(prim.dataset, prim.validation);
  const score::ScoreModel model = score::ScoreModel::from_detector(det);
  const std::filesystem::path model_path =
      std::filesystem::temp_directory_path() /
      ("bench_score_model_" + std::to_string(::getpid()) + ".gvsm");
  score::save_model(model_path, model);

  // Batch mean score per user: the bit-identity reference for the served
  // /v1/users/{id}/score. Sum in index order — the scorer's order.
  std::map<trace::UserId, double> expected_means;
  for (const trace::UserRecord& user : prim.dataset.users()) {
    if (user.checkins.empty()) continue;
    const std::vector<double> scores = det.score_user(user);
    double sum = 0.0;
    for (double s : scores) sum += s;
    expected_means[user.id] = sum / static_cast<double>(scores.size());
  }

  std::cout << "replaying " << events.size()
            << " events over loopback TCP (primary study), " << cores
            << " hardware threads\n\n";

  // --- Part 1: hot-path overhead A/B --------------------------------------
  run_once(events, {}, nullptr);  // warm-up: listen-socket caches
  const Run off = run_best(events, {}, nullptr, 3);
  const Run on = run_best(events, model_path, &expected_means, 3);
  std::filesystem::remove(model_path);
  print_throughput_json(off, false, cores);
  print_throughput_json(on, true, cores);

  const double overhead =
      off.loadgen.send_events_per_sec > 0.0
          ? 1.0 - on.loadgen.send_events_per_sec /
                      off.loadgen.send_events_per_sec
          : 1.0;
  std::cout << "{\"bench\":\"score_throughput\",\"overhead_frac\":"
            << std::setprecision(4) << overhead << ",\"bar\":0.10}\n";
  std::cout << "\nscoring overhead (1 - on/off): " << std::setprecision(4)
            << overhead * 100.0 << "% (bar: 10%, hard at >= 5 cores)\n";
  bool failed = false;
  if (overhead > 0.10) {
    std::cout << (cores >= 5 ? "FAILED" : "WARNING")
              << ": above the 10% scoring-overhead bar"
              << (cores < 5 ? " (expected: only " + std::to_string(cores) +
                                  " hardware threads)"
                            : "")
              << "\n";
    if (cores >= 5) failed = true;
  }
  if (!on.scores_ok) {
    std::cout << "FAILED: served mean scores diverged from the batch "
                 "detector\n";
    failed = true;
  } else {
    std::cout << "served mean scores vs batch detector: bit-identical ("
              << expected_means.size() << " users)\n";
  }

  // --- Part 2: live vs batch detection quality per archetype ---------------
  // Batch path: full-trace row scores on the held-out users; threshold is
  // the batch-calibrated best-F1 point. Live path: the arrival score the
  // online scorer assigns the moment the checkin lands (prefix-only).
  const detect::ScoredLabels scored =
      detect::score_test_split(det, prim.dataset, prim.validation);
  const double threshold = detect::best_f1_threshold(scored);

  const auto& truth = *prim.truth;
  constexpr std::size_t kArchetypes = 4;  // synth::TrueBehavior values
  static constexpr const char* kNames[kArchetypes] = {
      "honest", "superfluous", "remote", "driveby"};
  ArchetypeTally batch_tally[kArchetypes];
  ArchetypeTally live_tally[kArchetypes];
  match::DetectionScore batch_conf;
  match::DetectionScore live_conf;
  // Arrival scores depend only on the user's own prefix, so one scorer fed
  // each held-out user's checkins in trace order reproduces exactly what
  // the daemon computed when each checkin landed.
  score::OnlineScorer live(model);
  for (const std::size_t idx : det.test_users) {
    const trace::UserRecord& user = prim.dataset.users()[idx];
    const auto labels = truth.at(user.id);
    const std::vector<double> batch_scores = det.score_user(user);
    const auto checkins = user.checkins.events();
    for (std::size_t i = 0; i < checkins.size(); ++i) {
      const double arrival = live.observe(user.id, checkins[i]);
      const auto a = static_cast<std::size_t>(labels[i]);
      const bool fake = labels[i] != synth::TrueBehavior::kHonest;
      const bool batch_flag = batch_scores[i] >= threshold;
      const bool live_flag = arrival >= threshold;
      ++batch_tally[a].total;
      ++live_tally[a].total;
      if (batch_flag) ++batch_tally[a].flagged;
      if (live_flag) ++live_tally[a].flagged;
      if (fake && batch_flag) ++batch_conf.true_positive;
      else if (fake) ++batch_conf.false_negative;
      else if (batch_flag) ++batch_conf.false_positive;
      else ++batch_conf.true_negative;
      if (fake && live_flag) ++live_conf.true_positive;
      else if (fake) ++live_conf.false_negative;
      else if (live_flag) ++live_conf.false_positive;
      else ++live_conf.true_negative;
    }
  }

  std::cout << "\n";
  for (const auto* conf : {&batch_conf, &live_conf}) {
    std::cout << "{\"bench\":\"score_detection\",\"path\":\""
              << (conf == &batch_conf ? "batch" : "live")
              << "\",\"threshold\":" << std::setprecision(6) << threshold
              << ",\"precision\":" << conf->precision()
              << ",\"recall\":" << conf->recall() << ",\"f1\":" << conf->f1()
              << "}\n";
  }
  for (std::size_t a = 0; a < kArchetypes; ++a) {
    const auto rate = [](const ArchetypeTally& t) {
      return t.total == 0 ? 0.0
                          : static_cast<double>(t.flagged) /
                                static_cast<double>(t.total);
    };
    std::cout << "{\"bench\":\"score_detection_archetype\",\"archetype\":\""
              << kNames[a] << "\",\"checkins\":" << batch_tally[a].total
              << ",\"batch_flag_rate\":" << std::setprecision(6)
              << rate(batch_tally[a])
              << ",\"live_flag_rate\":" << rate(live_tally[a]) << "}\n";
  }
  std::cout << "\nbatch F1 " << std::setprecision(4) << batch_conf.f1()
            << " vs live F1 " << live_conf.f1()
            << " at the shared threshold (live scores see only the prefix; "
               "the served *mean* score converges to the batch mean)\n";

  return failed ? 1 : 0;
}
