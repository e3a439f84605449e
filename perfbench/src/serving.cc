// serve_mixed and live_ingest: a QueryService over the bitcoin-like
// graph, read-only and under live ingest. NOTES.md says why each exists.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "core/motif_catalog.h"
#include "engine/query_engine.h"
#include "graph/epoch_log.h"
#include "layers.h"
#include "serve/query_service.h"
#include "stream/streaming_monitor.h"
#include "util/random.h"
#include "workloads.h"

namespace flowbench {
namespace {

using namespace flowmotif;

// Two service workers plus two waiting clients (serve_mixed) or a reader
// and a writer (live_ingest): never more than four busy threads.
constexpr int kServiceWorkers = 2;
// Edges appended per live_ingest epoch: at scale 1 the ingested half of
// the trace is 250 epochs.
constexpr size_t kEpochEdges = 300;
// Operations per nominal second (RunConfig::Operations): client reads
// of serve_mixed, epochs of live_ingest (at 30 s: the whole second half).
constexpr double kServeReadsPerSecond = 50.0;
constexpr double kLiveEpochsPerSecond = 8.5;
// Read stream: fresh reads are kCount, kTopK (k in 1..kMaxTopK) or kTop1
// over the catalog motifs x the preset's delta and phi sweeps; a share of
// reads re-issues one of the last kRecentWindow reads verbatim.
constexpr double kCountShare = 0.25;
constexpr double kTop1Share = 0.10;
constexpr int64_t kMaxTopK = 100;
constexpr double kRecentRepeatShare = 0.20;
constexpr size_t kRecentWindow = 32;
constexpr size_t kStreamLength = 50000;  // longer than any run consumes
// Served reads checked against a solo engine run (and, traced, replayed
// layer by layer): one in kSampleEvery, at most kMaxSamples.
constexpr uint64_t kServeSampleEvery = 8;
constexpr size_t kServeMaxSamples = 300;
constexpr uint64_t kLiveSampleEvery = 24;
constexpr size_t kLiveMaxSamples = 60;

struct ReadSpec {
  size_t motif = 0;
  QueryMode mode = QueryMode::kCount;
  Timestamp delta = 0;
  Flow phi = 0.0;
  int64_t k = 0;

  bool operator<(const ReadSpec& o) const {
    if (motif != o.motif) return motif < o.motif;
    if (mode != o.mode) return mode < o.mode;
    if (delta != o.delta) return delta < o.delta;
    if (phi != o.phi) return phi < o.phi;
    return k < o.k;
  }

  QueryOptions Options() const {
    QueryOptions options;
    options.mode = mode;
    options.delta = delta;
    options.phi = phi;
    if (mode == QueryMode::kTopK) options.k = k;
    return options;
  }
};

const char* ModeName(QueryMode mode) {
  switch (mode) {
    case QueryMode::kCount:
      return "count";
    case QueryMode::kTopK:
      return "topk";
    case QueryMode::kTop1:
      return "top1";
    default:
      return "other";
  }
}

/// The seeded read stream both serving workloads replay.
std::vector<ReadSpec> MakeReadStream(const DatasetPreset& preset,
                                     uint64_t seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0x7265616473ULL);
  const size_t num_motifs = MotifCatalog::All().size();
  std::vector<ReadSpec> counts;
  std::vector<ReadSpec> top1s;
  for (size_t m = 0; m < num_motifs; ++m) {
    for (Timestamp delta : preset.delta_sweep) {
      for (Flow phi : preset.phi_sweep) {
        counts.push_back(ReadSpec{m, QueryMode::kCount, delta, phi, 0});
      }
      top1s.push_back(ReadSpec{m, QueryMode::kTop1, delta, 0.0, 0});
    }
  }
  size_t next_count = counts.size();
  size_t next_top1 = top1s.size();
  auto next_of = [&rng](std::vector<ReadSpec>* pool, size_t* next) {
    if (*next == pool->size()) {
      rng.Shuffle(pool);
      *next = 0;
    }
    return (*pool)[(*next)++];
  };
  auto pick = [&rng](const auto& values) {
    return values[static_cast<size_t>(rng.NextBounded(values.size()))];
  };

  std::vector<ReadSpec> stream;
  stream.reserve(kStreamLength);
  for (size_t i = 0; i < kStreamLength; ++i) {
    if (i > 0 && rng.UniformDouble() < kRecentRepeatShare) {
      const size_t back = static_cast<size_t>(
          rng.NextBounded(std::min<size_t>(i, kRecentWindow)));
      stream.push_back(stream[i - 1 - back]);
      continue;
    }
    const double u = rng.UniformDouble();
    if (u < kCountShare) {
      stream.push_back(next_of(&counts, &next_count));
    } else if (u < kCountShare + kTop1Share) {
      stream.push_back(next_of(&top1s, &next_top1));
    } else {
      ReadSpec spec;
      spec.motif = static_cast<size_t>(rng.NextBounded(num_motifs));
      spec.mode = QueryMode::kTopK;
      spec.delta = pick(preset.delta_sweep);
      spec.phi = pick(preset.phi_sweep);
      spec.k = 1 + static_cast<int64_t>(rng.NextBounded(kMaxTopK));
      stream.push_back(spec);
    }
  }
  return stream;
}

/// first[i] is true when stream[i] equals no earlier read.
std::vector<bool> FirstOccurrences(const std::vector<ReadSpec>& stream) {
  std::set<ReadSpec> seen;
  std::vector<bool> first(stream.size());
  for (size_t i = 0; i < stream.size(); ++i) {
    first[i] = seen.insert(stream[i]).second;
  }
  return first;
}

bool SampledIndex(uint64_t seed, size_t index, uint64_t every) {
  Rng rng(seed ^ (0xD1B54A32D192ED03ULL * (index + 1)));
  return rng.NextBounded(every) == 0;
}

/// The multigraph of the first `n` interactions of `edges`.
InteractionGraph Prefix(const InteractionGraph& edges, size_t n) {
  InteractionGraph prefix;
  for (size_t i = 0; i < n; ++i) {
    const InteractionGraph::Edge& e = edges.edges()[i];
    prefix.AddEdge(e.src, e.dst, e.t, e.f);
  }
  return prefix;
}

ServiceConfig MakeServiceConfig() {
  ServiceConfig config;
  config.num_workers = kServiceWorkers;
  return config;
}

/// One client read as the client saw it.
struct ReadRecord {
  size_t index = 0;  // position in the stream; the request id of spans
  double latency = 0.0;  // Submit until the future resolved; inf if failed
  bool failed = false;
  bool coalesced = false;
  bool cached = false;
  EpochId epoch = 0;
  double queue_s = 0.0;
  double served_s = 0.0;
  std::shared_ptr<const QueryResult> result;  // kept for sampled reads only
};

bool ServedOk(const ServedResult& served) {
  return !served.rejected && served.result != nullptr &&
         served.result->termination.complete();
}

/// A closed-loop client: takes the next stream position below `limit`,
/// submits it, waits for the reply, repeats until `stop` or the deadline.
void ReadLoop(QueryService* service, const std::vector<ReadSpec>& stream,
              size_t limit, const std::vector<bool>& keep,
              std::atomic<size_t>* next, const std::atomic<bool>* stop,
              double deadline, Tracer* tracer, Report* report,
              std::vector<ReadRecord>* out) {
  const std::vector<Motif>& motifs = MotifCatalog::All();
  while (!stop->load(std::memory_order_relaxed) && Now() < deadline) {
    const size_t i = next->fetch_add(1);
    if (i >= limit) break;
    const ReadSpec& spec = stream[i];
    ServeRequest request{motifs[spec.motif], spec.Options(), std::string(),
                         nullptr};
    const double t0 = Now();
    const ServedResult served = service->Submit(std::move(request)).get();
    const double t1 = Now();
    tracer->Add("serve.read", t0, t1, -1, static_cast<int64_t>(i));
    ReadRecord record;
    record.index = i;
    record.failed = !ServedOk(served);
    record.latency = record.failed ? INFINITY : t1 - t0;
    record.coalesced = served.coalesced;
    record.cached = served.from_result_cache;
    record.epoch = served.epoch;
    record.queue_s = served.queue_seconds;
    record.served_s = served.total_seconds;
    if (keep[i] && !record.failed) record.result = served.result;
    report->CountOp("Submit", !record.failed);
    out->push_back(std::move(record));
  }
}

std::vector<ReadRecord> Merge(std::vector<std::vector<ReadRecord>> parts) {
  std::vector<ReadRecord> all;
  for (auto& part : parts) {
    for (auto& r : part) all.push_back(std::move(r));
  }
  std::sort(all.begin(), all.end(),
            [](const ReadRecord& a, const ReadRecord& b) {
              return a.index < b.index;
            });
  return all;
}

std::vector<double> Latencies(const std::vector<ReadRecord>& reads) {
  std::vector<double> out;
  out.reserve(reads.size());
  for (const ReadRecord& r : reads) out.push_back(r.latency);
  return out;
}

/// Accumulates what the sampled reads' replays measured.
struct SampleLayers {
  CoreReplay core;
  int64_t reads = 0;
  int64_t executed = 0;  // neither coalesced nor answered from the cache
  double engine_run_s = 0.0;
  double engine_topk_s = 0.0;
  double engine_top1_s = 0.0;
  double engine_residue_s = 0.0;
  int64_t engine_batches = 0;
  double client_s = 0.0;  // client latency of the executed sampled reads
  double queue_s = 0.0;
  double solo_s = 0.0;
  std::vector<double> overhead_s;  // served run minus solo engine run
};

/// Checks one sampled read against a solo engine run on `graph` (the
/// snapshot it was served from) and, when tracing, replays its phases.
void CheckAndReplay(const TimeSeriesGraph& graph, const ReadSpec& spec,
                    const ReadRecord& record, Tracer* tracer, Report* report,
                    SampleLayers* layers) {
  const Motif& motif = MotifCatalog::All()[spec.motif];
  const QueryOptions options = spec.Options();
  const QueryEngine engine(graph);
  const int64_t request = static_cast<int64_t>(record.index);
  const double t0 = Now();
  const QueryResult solo = engine.Run(motif, options);
  const double t1 = Now();
  char what[160];
  std::snprintf(what, sizeof(what),
                "read %zu (%s %s delta=%lld phi=%g k=%lld, epoch %llu) equals "
                "a solo engine run",
                record.index, motif.name().c_str(), ModeName(spec.mode),
                static_cast<long long>(spec.delta), spec.phi,
                static_cast<long long>(spec.k),
                static_cast<unsigned long long>(record.epoch));
  report->Check(SameResult(*record.result, solo), what);
  if (!tracer->enabled()) return;

  tracer->Add("engine.run", t0, t1, -1, request);
  const CoreReplay core = ReplayCore(graph, motif, options, tracer, request);
  layers->core.Add(core);
  ++layers->reads;
  const double run_s = t1 - t0;
  layers->engine_run_s += run_s;
  layers->engine_residue_s += run_s - core.p1_s - core.p2_s - core.dp_s;
  if (spec.mode == QueryMode::kTopK) layers->engine_topk_s += run_s;
  if (spec.mode == QueryMode::kTop1) layers->engine_top1_s += run_s;
  layers->engine_batches += solo.num_batches;
  if (!record.coalesced && !record.cached) {
    ++layers->executed;
    layers->client_s += record.latency;
    layers->queue_s += record.queue_s;
    layers->solo_s += run_s;
    layers->overhead_s.push_back(record.served_s - record.queue_s - run_s);
  }
}

/// Traffic of the serving workloads and the serve-layer counters, which
/// need no replay and so are reported on every run.
void ReportServeTraffic(const std::vector<ReadSpec>& stream,
                        const std::vector<bool>& first,
                        const std::vector<ReadRecord>& reads,
                        const ServiceStats& stats, size_t tier_max_entries,
                        Report* report) {
  int64_t repeats = 0;
  int64_t coalesced = 0;
  int64_t cached = 0;
  int64_t by_mode[3] = {0, 0, 0};
  std::vector<double> queue_ms;
  for (const ReadRecord& r : reads) {
    if (!first[r.index]) ++repeats;
    if (r.coalesced) ++coalesced;
    if (r.cached) ++cached;
    if (!r.failed && !r.coalesced && !r.cached) {
      queue_ms.push_back(r.queue_s * 1e3);
    }
    const QueryMode mode = stream[r.index].mode;
    ++by_mode[mode == QueryMode::kCount ? 0 : mode == QueryMode::kTopK ? 1 : 2];
  }
  const double n = std::max<double>(1.0, static_cast<double>(reads.size()));
  report->Context("reads", static_cast<double>(reads.size()));
  report->Context("reads_count_topk_top1",
                  std::to_string(by_mode[0]) + "/" + std::to_string(by_mode[1]) +
                      "/" + std::to_string(by_mode[2]));
  report->Context("repeat_share", static_cast<double>(repeats) / n);
  report->Context("tier_lookups", static_cast<double>(stats.tier_lookups));
  report->Context("tier_hits", static_cast<double>(stats.tier_hits));
  report->Context("tier_max_entries", static_cast<double>(tier_max_entries));
  report->Context("reads_beyond_p95",
                  std::floor(0.05 * static_cast<double>(reads.size())));
  report->Layer("serve.queue_ms_p50", Median(queue_ms), "ms");
  report->Layer("serve.tier_hit_rate",
                stats.tier_lookups > 0
                    ? static_cast<double>(stats.tier_hits) /
                          static_cast<double>(stats.tier_lookups)
                    : 0.0,
                "ratio");
  report->Layer("serve.tier_rotations",
                static_cast<double>(stats.tier_rotations), "count");
  report->Layer("serve.result_cache_hit_share",
                static_cast<double>(cached) / n, "ratio");
  report->Layer("serve.coalesced_share", static_cast<double>(coalesced) / n,
                "ratio");
}

/// engine.*, core.* and serve.overhead_ms_p50 from the replayed sample.
void ReportReplayLayers(const SampleLayers& layers, Report* report) {
  std::vector<double> overhead_ms;
  for (double s : layers.overhead_s) overhead_ms.push_back(s * 1e3);
  report->Layer("serve.overhead_ms_p50", Median(overhead_ms), "ms");
  ReportCoreLayers(layers.core, report);
  report->Layer("engine.run_s", layers.engine_run_s, "s");
  report->Layer("engine.residue_s", layers.engine_residue_s, "s");
  report->Layer("engine.topk_s", layers.engine_topk_s, "s");
  report->Layer("engine.top1_s", layers.engine_top1_s, "s");
  report->Layer("engine.batches", static_cast<double>(layers.engine_batches),
                "count");
  report->Note("sampled reads replayed: " + std::to_string(layers.reads) +
               " (" + std::to_string(layers.executed) + " executed by the "
               "service); p1 share of engine.run_s = " +
               FormatDouble(layers.engine_run_s > 0
                                ? layers.core.p1_s / layers.engine_run_s
                                : 0.0));
  const double layer_sum = layers.queue_s + layers.solo_s;
  report->Note("reconciliation over executed sampled reads: client " +
               FormatDouble(layers.client_s) + " s = queue " +
               FormatDouble(layers.queue_s) + " s + engine " +
               FormatDouble(layers.solo_s) + " s (core p1 " +
               FormatDouble(layers.core.p1_s) + " s, p2 " +
               FormatDouble(layers.core.p2_s) + " s, dp " +
               FormatDouble(layers.core.dp_s) + " s over all sampled) + "
               "residue " + FormatDouble(layers.client_s - layer_sum) + " s");
}

/// One live_ingest epoch as the writer saw it.
struct EpochRecord {
  double latency = 0.0;   // appends + both seals + probe
  double visible = 0.0;   // service SealEpoch call until the probe answered
  double standing = 0.0;  // monitor SealEpoch
  double serve_seal = 0.0;
  EpochId sealed = 0;
  EpochId probe_epoch = 0;
  int64_t probe_count = -1;
  int64_t monitor_total = -2;
  StreamingMotifMonitor::EpochStats stream_stats;
};

/// live_ingest's graph.*, serve.seal and stream.* layers (traced runs).
/// The graph layer's seal is timed alone: a standalone EpochLog is fed
/// the same appends, epoch by epoch, after the timed phase.
void ReportLiveLayers(const std::vector<EpochRecord>& epochs,
                      const InteractionGraph& seed,
                      const std::vector<InteractionGraph::Edge>& ingest,
                      Tracer* tracer, Report* report) {
  EpochLog log(TimeSeriesGraph::Build(seed));
  std::vector<double> seal_ms, serve_seal_ms;
  int64_t dirty = 0;
  bool appended = true;
  for (size_t e = 0; e < epochs.size(); ++e) {
    for (size_t i = e * kEpochEdges; i < (e + 1) * kEpochEdges; ++i) {
      appended = log.Append(ingest[i]).ok() && appended;
    }
    const double t0 = Now();
    const EpochLog::SealInfo info = log.SealEpoch();
    const double t1 = Now();
    tracer->Add("graph.seal", t0, t1);
    seal_ms.push_back((t1 - t0) * 1e3);
    serve_seal_ms.push_back(epochs[e].serve_seal * 1e3);
    dirty += static_cast<int64_t>(info.dirty_pairs.size());
  }
  report->Check(appended, "standalone log accepted every append");
  report->Layer("graph.seal_ms_p50", Median(seal_ms), "ms");
  report->Layer("graph.dirty_pairs_per_seal",
                static_cast<double>(dirty) /
                    std::max<double>(1.0, static_cast<double>(epochs.size())),
                "count");
  report->Layer("serve.seal_ms_p50", Median(serve_seal_ms), "ms");

  int64_t revisited = 0, total = 0, new_matches = 0, full_rescans = 0;
  int64_t settled = 0;
  double epoch_s = 0.0, seal_s = 0.0, overlap_s = 0.0;
  for (const EpochRecord& r : epochs) {
    revisited += static_cast<int64_t>(r.stream_stats.num_matches_revisited);
    total += static_cast<int64_t>(r.stream_stats.num_matches_total);
    new_matches += static_cast<int64_t>(r.stream_stats.num_new_matches);
    full_rescans += r.stream_stats.full_rescan ? 1 : 0;
    settled += r.stream_stats.num_instances_settled;
    epoch_s += r.latency;
    seal_s += r.serve_seal;
    overlap_s += std::max(r.visible - r.serve_seal, r.standing);
  }
  report->Layer("stream.revisit_share",
                total > 0 ? static_cast<double>(revisited) /
                                static_cast<double>(total)
                          : 0.0,
                "ratio");
  report->Layer("stream.new_matches", static_cast<double>(new_matches),
                "count");
  report->Layer("stream.full_rescans", static_cast<double>(full_rescans),
                "count");
  report->Layer("stream.instances_settled", static_cast<double>(settled),
                "count");
  report->Note("reconciliation over epochs: epoch " + FormatDouble(epoch_s) +
               " s = serve seal " + FormatDouble(seal_s) +
               " s + max(probe, monitor seal) " + FormatDouble(overlap_s) +
               " s + residue (appends, hand-offs) " +
               FormatDouble(epoch_s - seal_s - overlap_s) + " s");
}

void ReportSetup(const std::vector<double>& setup_s,
                 const std::vector<double>& load_s,
                 const std::vector<double>& build_s, Report* report) {
  report->EndToEnd("setup_s", Median(setup_s), "s");
  report->Context("setups", static_cast<double>(setup_s.size()));
  report->Layer("graph.load_s", Median(load_s), "s");
  report->Layer("graph.build_s", Median(build_s), "s");
}

}  // namespace

int RunServeMixed(const RunConfig& config) {
  Report report;
  StampContext(config, &report);
  Tracer tracer(config.trace);
  const DatasetPreset preset = SeededPreset("bitcoin", config.seed);
  const std::vector<ReadSpec> stream = MakeReadStream(preset, config.seed);
  const std::vector<bool> first = FirstOccurrences(stream);
  std::vector<bool> keep(stream.size());
  for (size_t i = 0; i < stream.size(); ++i) {
    keep[i] = first[i] && SampledIndex(config.seed, i, kServeSampleEvery);
  }

  // Set-up: edge file on disk until the service is ready, repeated.
  std::vector<double> setup_s, load_s, build_s;
  std::unique_ptr<QueryService> service;
  while (MoreSetups(setup_s)) {
    service.reset();
    const double t0 = Now();
    const InteractionGraph edges = LoadEdges(config.edges);
    const double t1 = Now();
    TimeSeriesGraph graph = TimeSeriesGraph::Build(edges);
    const double t2 = Now();
    service = std::make_unique<QueryService>(std::move(graph),
                                             MakeServiceConfig());
    const double t3 = Now();
    setup_s.push_back(t3 - t0);
    load_s.push_back(t1 - t0);
    build_s.push_back(t2 - t1);
    if (!MoreSetups(setup_s)) {
      StampGraph(edges, service->Snapshot()->num_pairs(), &report);
    }
  }

  // Timed phase: two closed-loop clients share a fixed number of reads.
  const size_t num_reads = std::min<size_t>(
      stream.size(),
      static_cast<size_t>(config.Operations(kServeReadsPerSecond)));
  std::atomic<size_t> next{0};
  std::atomic<bool> stop{false};
  std::vector<std::vector<ReadRecord>> parts(2);
  const CpuTicks ticks = ReadCpuTicks();
  const double start = Now();
  const double deadline = config.SafetyDeadline(start);
  {
    std::vector<std::thread> clients;
    for (auto& part : parts) {
      clients.emplace_back(ReadLoop, service.get(), std::cref(stream),
                           num_reads, std::cref(keep), &next, &stop, deadline,
                           &tracer, &report, &part);
    }
    for (std::thread& t : clients) t.join();
  }
  const double elapsed = Now() - start;
  const double peak_rss_mb = PeakRssMb();
  report.Context("cpu_steal_share", StealShare(ticks, ReadCpuTicks()));
  const ServiceStats stats = service->Stats();
  const std::vector<ReadRecord> reads = Merge(std::move(parts));

  std::vector<double> latency_ms = Latencies(reads);
  for (double& v : latency_ms) v *= 1e3;
  int64_t completed = 0;
  for (const ReadRecord& r : reads) completed += r.failed ? 0 : 1;
  const double p50 = Percentile(latency_ms, 0.5);
  const double p95 = Percentile(latency_ms, 0.95);
  const double qps = static_cast<double>(completed) / elapsed;
  ReportSetup(setup_s, load_s, build_s, &report);
  report.EndToEnd("peak_rss_mb", peak_rss_mb, "MB");
  report.EndToEnd("op_p50_ms", p50, "ms");
  report.EndToEnd("op_p95_ms", p95, "ms");
  report.EndToEnd("ops_per_s", qps, "1/s");
  report.Figure("query_p50_ms", p50, "ms");
  report.Figure("query_p95_ms", p95, "ms");
  report.Figure("throughput_qps", qps, "1/s");
  report.Context("timed_s", elapsed);
  ReportServeTraffic(stream, first, reads, stats,
                     service->config().tier_max_entries, &report);

  // Output checks (and, traced, the layer replays) after the timed phase.
  const std::shared_ptr<const TimeSeriesGraph> snapshot = service->Snapshot();
  SampleLayers layers;
  size_t checked = 0;
  for (const ReadRecord& r : reads) {
    if (r.result == nullptr || checked == kServeMaxSamples) continue;
    ++checked;
    report.Check(r.epoch == 0, "read served from epoch 0");
    CheckAndReplay(*snapshot, stream[r.index], r, &tracer, &report, &layers);
  }
  report.Context("reads_checked", static_cast<double>(checked));
  report.Check(checked > 0, "at least one served read was checked");

  if (tracer.enabled()) {
    ReportReplayLayers(layers, &report);
    FinishTrace(config, tracer, &report);
  }
  service.reset();
  return report.Finish(std::cout);
}

int RunLiveIngest(const RunConfig& config) {
  Report report;
  StampContext(config, &report);
  Tracer tracer(config.trace);
  const DatasetPreset preset = SeededPreset("bitcoin", config.seed);
  const std::vector<ReadSpec> stream = MakeReadStream(preset, config.seed);
  const std::vector<bool> first = FirstOccurrences(stream);
  std::vector<bool> keep(stream.size());
  for (size_t i = 0; i < stream.size(); ++i) {
    keep[i] = SampledIndex(config.seed, i, kLiveSampleEvery);
  }
  const Motif standing = *MotifCatalog::ByName("M(3,2)");
  StreamOptions stream_options;
  stream_options.delta = preset.default_delta;
  stream_options.phi = preset.default_phi;
  QueryOptions probe_options;
  probe_options.mode = QueryMode::kCount;
  probe_options.delta = preset.default_delta;
  probe_options.phi = preset.default_phi;

  // Set-up: load the time-ordered edge file, seed the service and the
  // standing monitor with its first half; the second half is the ingest.
  std::vector<double> setup_s, load_s, build_s;
  std::unique_ptr<QueryService> service;
  std::unique_ptr<StreamingMotifMonitor> monitor;
  std::vector<InteractionGraph::Edge> ingest;
  size_t seed_edges = 0;
  while (MoreSetups(setup_s)) {
    service.reset();
    monitor.reset();
    const double t0 = Now();
    const InteractionGraph edges = LoadEdges(config.edges);
    const double t1 = Now();
    seed_edges = edges.edges().size() / 2;
    const InteractionGraph seed = Prefix(edges, seed_edges);
    ingest.assign(edges.edges().begin() + static_cast<ptrdiff_t>(seed_edges),
                  edges.edges().end());
    const double t2 = Now();
    TimeSeriesGraph graph = TimeSeriesGraph::Build(seed);
    const double t3 = Now();
    service = std::make_unique<QueryService>(std::move(graph),
                                             MakeServiceConfig());
    monitor = std::make_unique<StreamingMotifMonitor>(standing,
                                                      stream_options, seed);
    const double t4 = Now();
    setup_s.push_back(t4 - t0);
    load_s.push_back(t1 - t0);
    build_s.push_back(t3 - t2);
    if (!MoreSetups(setup_s)) {
      StampGraph(edges, service->Snapshot()->num_pairs(), &report);
      bool ordered = true;
      for (size_t i = 1; i < edges.edges().size(); ++i) {
        ordered = ordered && edges.edges()[i - 1].t <= edges.edges()[i].t;
      }
      report.Check(ordered, "edge file is in time order");
    }
  }
  const size_t num_epochs = std::min<size_t>(
      ingest.size() / kEpochEdges,
      static_cast<size_t>(config.Operations(kLiveEpochsPerSecond)));
  report.Context("seed_edges", static_cast<double>(seed_edges));
  report.Context("edges_per_epoch", static_cast<double>(kEpochEdges));

  // Timed phase: one writer (this thread) ingesting a fixed number of
  // fixed-size epochs, one closed-loop reader replaying the read stream
  // until the writer is done.
  std::vector<EpochRecord> epochs;
  std::atomic<size_t> next{0};
  std::atomic<bool> writer_done{false};
  std::vector<std::vector<ReadRecord>> parts(1);
  const CpuTicks ticks = ReadCpuTicks();
  const double start = Now();
  const double deadline = config.SafetyDeadline(start);
  std::thread reader(ReadLoop, service.get(), std::cref(stream),
                     stream.size(), std::cref(keep), &next, &writer_done,
                     deadline, &tracer, &report, &parts[0]);
  for (size_t e = 0; e < num_epochs && Now() < deadline; ++e) {
    EpochRecord rec;
    const double t0 = Now();
    for (size_t i = e * kEpochEdges; i < (e + 1) * kEpochEdges; ++i) {
      report.CountOp("Append", service->Append(ingest[i]).ok());
      report.CountOp("Append", monitor->Append(ingest[i]).ok());
    }
    const double t1 = Now();
    const EpochLog::SealInfo info = service->SealEpoch();
    const double t2 = Now();
    report.CountOp("SealEpoch", info.num_appended == kEpochEdges);
    // The monitor seals on this thread while a service worker answers
    // the probe; the probe's own clock says when it answered.
    ServeRequest probe{standing, probe_options, std::string(), nullptr};
    std::future<ServedResult> pending = service->Submit(std::move(probe));
    const double t3 = Now();
    rec.stream_stats = monitor->SealEpoch();
    const double t4 = Now();
    report.CountOp("SealEpoch", rec.stream_stats.termination.complete());
    const ServedResult served = pending.get();
    const double t5 = Now();
    report.CountOp("Submit", ServedOk(served));
    rec.latency = t5 - t0;
    rec.visible = ServedOk(served) ? t2 - t1 + served.total_seconds : INFINITY;
    rec.standing = t4 - t3;
    rec.serve_seal = t2 - t1;
    rec.sealed = info.epoch;
    rec.probe_epoch = served.epoch;
    if (ServedOk(served)) rec.probe_count = served.result->stats.num_instances;
    rec.monitor_total = monitor->TotalInstances();
    epochs.push_back(rec);
    const int64_t parent = tracer.Add("live.epoch", t0, t5);
    tracer.Add("serve.append", t0, t1, parent);
    tracer.Add("serve.seal", t1, t2, parent);
    tracer.Add("stream.seal", t3, t4, parent);
    tracer.Add("serve.probe_wait", t4, t5, parent);
  }
  const double writer_s = Now() - start;
  writer_done = true;
  reader.join();
  const double elapsed = Now() - start;
  const double peak_rss_mb = PeakRssMb();
  report.Context("cpu_steal_share", StealShare(ticks, ReadCpuTicks()));
  const ServiceStats stats = service->Stats();
  const std::vector<ReadRecord> reads = Merge(std::move(parts));

  std::vector<double> epoch_ms, visible_ms, standing_ms;
  for (const EpochRecord& r : epochs) {
    epoch_ms.push_back(r.latency * 1e3);
    visible_ms.push_back(r.visible * 1e3);
    standing_ms.push_back(r.standing * 1e3);
  }
  std::vector<double> read_ms = Latencies(reads);
  for (double& v : read_ms) v *= 1e3;
  int64_t completed = 0;
  for (const ReadRecord& r : reads) completed += r.failed ? 0 : 1;
  const double epochs_done = static_cast<double>(epochs.size());

  ReportSetup(setup_s, load_s, build_s, &report);
  report.EndToEnd("peak_rss_mb", peak_rss_mb, "MB");
  report.EndToEnd("op_p50_ms", Percentile(epoch_ms, 0.5), "ms");
  report.EndToEnd("op_p95_ms", Percentile(epoch_ms, 0.95), "ms");
  report.EndToEnd("ops_per_s", epochs_done / writer_s, "1/s");
  report.Figure("query_p50_ms", Percentile(read_ms, 0.5), "ms");
  report.Figure("query_p95_ms", Percentile(read_ms, 0.95), "ms");
  report.Figure("throughput_qps", static_cast<double>(completed) / elapsed,
                "1/s");
  report.Figure("visible_p50_ms", Percentile(visible_ms, 0.5), "ms");
  report.Figure("visible_p95_ms", Percentile(visible_ms, 0.95), "ms");
  report.Figure("standing_p50_ms", Percentile(standing_ms, 0.5), "ms");
  report.Figure("standing_p95_ms", Percentile(standing_ms, 0.95), "ms");
  report.Figure("ingest_edges_per_s",
                epochs_done * static_cast<double>(kEpochEdges) / writer_s,
                "1/s");
  report.Context("timed_s", elapsed);
  report.Context("epochs", epochs_done);
  report.Context("epochs_beyond_p95", std::floor(0.05 * epochs_done));
  ReportServeTraffic(stream, first, reads, stats,
                     service->config().tier_max_entries, &report);

  // Output checks after the timed phase. Probes: each answered on the
  // epoch just sealed, with the standing monitor's count after that seal.
  report.Check(!epochs.empty(), "at least one epoch was ingested");
  for (size_t e = 0; e < epochs.size(); ++e) {
    const EpochRecord& r = epochs[e];
    const std::string at = "epoch " + std::to_string(e + 1);
    report.Check(r.sealed == e + 1, at + ": service sealed the next epoch");
    report.Check(r.probe_epoch == r.sealed,
                 at + ": probe reports the sealed epoch");
    report.Check(r.probe_count == r.monitor_total,
                 at + ": probe count equals the monitor's TotalInstances");
  }
  // Sampled reads: against a solo engine run on a batch build of the
  // snapshot they were served from (seed half plus `epoch` epochs).
  service.reset();
  monitor.reset();
  const InteractionGraph edges = LoadEdges(config.edges);
  std::map<EpochId, std::vector<const ReadRecord*>> by_epoch;
  size_t checked = 0;
  for (const ReadRecord& r : reads) {
    if (r.result == nullptr || checked == kLiveMaxSamples) continue;
    ++checked;
    by_epoch[r.epoch].push_back(&r);
  }
  SampleLayers layers;
  for (const auto& [epoch, records] : by_epoch) {
    const TimeSeriesGraph snapshot = TimeSeriesGraph::Build(Prefix(
        edges, seed_edges + static_cast<size_t>(epoch) * kEpochEdges));
    for (const ReadRecord* r : records) {
      CheckAndReplay(snapshot, stream[r->index], *r, &tracer, &report,
                     &layers);
    }
  }
  report.Context("reads_checked", static_cast<double>(checked));

  if (tracer.enabled()) {
    ReportReplayLayers(layers, &report);
    ReportLiveLayers(epochs, Prefix(edges, seed_edges), ingest, &tracer,
                     &report);
    FinishTrace(config, tracer, &report);
  }
  return report.Finish(std::cout);
}

}  // namespace flowbench
