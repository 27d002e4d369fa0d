// Control-plane aggregation for the cluster router (docs/CLUSTER.md).
//
// The router's read-side endpoints are *merged views* over N backend
// responses, computed by pure text-level functions so they can be unit
// tested without sockets:
//
//   - merge_prometheus: sum Prometheus samples per (family, sample,
//     labels) across backends. Summation is the right merge for every
//     family the backends expose — counters and gauges add, and
//     histogram buckets add because obs::Histogram uses fixed log2
//     bounds, so `le` labels line up across processes.
//   - filter_prometheus: project an exposition down to families with a
//     given name prefix — how the router appends only its own
//     `cluster_*` families to the merged backend view without
//     double-counting shared-registry families in in-process tests.
//   - merge_summaries: combine /v1/summary bodies. Users live on exactly
//     one backend (the ring is a partition), so counts sum; the two mean
//     fields are user-weighted so the merged value equals what a single
//     process covering all users would report.
//
// Both parsers accept exactly the formats emitted by src/obs/export.cpp
// and serve::Server::summary_json — grouped exposition (samples follow
// their # TYPE header) and object-only JSON with numeric leaves. That is
// a deliberate contract with our own backends, not a general scraper.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace geovalid::cluster {

/// Sums samples across expositions; renders families sorted by name with
/// `# HELP`/`# TYPE` headers (first text's wording wins) and samples in
/// first-seen order, preserving the exporter's cumulative bucket order.
[[nodiscard]] std::string merge_prometheus(
    const std::vector<std::string>& texts);

/// Keeps only families whose name starts with `family_prefix`.
[[nodiscard]] std::string filter_prometheus(std::string_view text,
                                            std::string_view family_prefix);

/// Drops families whose name starts with `family_prefix` — the router
/// applies this to backend expositions so a shared-registry (in-process)
/// deployment cannot echo the router's own cluster_* families back into
/// the merge. A no-op against real serve processes.
[[nodiscard]] std::string strip_prometheus(std::string_view text,
                                           std::string_view family_prefix);

/// One string or number leaf of a JSON object tree.
struct JsonLeaf {
  std::string path;  ///< dotted, e.g. "prevalence.users"
  /// A number's token verbatim (so re-emitted bytes never round-trip
  /// through a double); a string's unescaped contents.
  std::string text;
  std::optional<double> number;  ///< empty for a string leaf
};

/// String and number leaves of a JSON object in document order. Bools
/// and nulls are skipped; arrays are rejected with std::invalid_argument,
/// as is any malformed body.
[[nodiscard]] std::vector<JsonLeaf> flatten_json(std::string_view json);

/// The numeric leaves of flatten_json as (dotted path, value).
[[nodiscard]] std::vector<std::pair<std::string, double>>
flatten_json_numbers(std::string_view json);

/// Merges /v1/summary bodies: every numeric field sums except
/// prevalence.mean_extraneous_ratio (weighted by
/// prevalence.users_with_checkins) and burstiness.mean (weighted by
/// burstiness.users_with_gaps). The result keeps the first body's field
/// order with a leading "backends" count. Throws std::invalid_argument
/// on empty input or malformed JSON.
[[nodiscard]] std::string merge_summaries(
    const std::vector<std::string>& bodies);

}  // namespace geovalid::cluster
