// Component microbenchmarks (google-benchmark): lock manager, routing
// table/query router, samplers, simulator event loop, and the processing
// queue. These bound the per-event costs the discrete-event runs pay.
//
// Besides the normal google-benchmark CLI, the binary has a machine-
// readable mode for CI perf tracking:
//
//   bench_micro --json [path]         measure the event-loop suite and
//                                     write bench_results/BENCH_micro.json
//                                     (or `path`)
//   bench_micro --json --baseline f   additionally compare against a
//                                     previous JSON and exit non-zero on a
//                                     >25% throughput regression or on a
//                                     gate key the baseline lacks
//
// The JSON suite times the simulator event loop (drain + steady-state),
// cancel throughput, routing lookups in three table shapes, sketch-mode
// co-access graph Observe (the planner's per-transaction path), history
// recording plus the offline consistency check (--check), and a
// fast-scale figure panel serially and on min(4, host cores)
// ParallelRunner threads.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/check/checker.h"
#include "src/check/history_recorder.h"
#include "src/cluster/processing_queue.h"
#include "src/common/random.h"
#include "src/engine/parallel_runner.h"
#include "src/planner/co_access_graph.h"
#include "src/router/query_parser.h"
#include "src/router/query_router.h"
#include "src/sim/simulator.h"
#include "src/txn/lock_manager.h"

namespace {

using soap::Rng;
using soap::ZipfSampler;

void BM_LockAcquireReleaseUncontended(benchmark::State& state) {
  soap::txn::LockManager lm;
  soap::txn::TxnId id = 1;
  uint64_t key = 0;
  for (auto _ : state) {
    lm.Acquire(id, key, soap::txn::LockMode::kExclusive, [] {});
    lm.ReleaseAll(id);
    ++id;
    key = (key + 1) % 1024;
  }
}
BENCHMARK(BM_LockAcquireReleaseUncontended);

void BM_LockContendedQueueGrant(benchmark::State& state) {
  // One holder, one waiter, release grants: the hot-key path.
  soap::txn::LockManager lm;
  soap::txn::TxnId id = 1;
  for (auto _ : state) {
    const soap::txn::TxnId a = id++;
    const soap::txn::TxnId b = id++;
    lm.Acquire(a, 7, soap::txn::LockMode::kExclusive, [] {});
    lm.Acquire(b, 7, soap::txn::LockMode::kExclusive, [] {});
    lm.ReleaseAll(a);  // grants b
    lm.ReleaseAll(b);
  }
}
BENCHMARK(BM_LockContendedQueueGrant);

void BM_DeadlockCheckDepth(benchmark::State& state) {
  // A chain of N waiters; every new Acquire runs the cycle check over it.
  const int depth = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    soap::txn::LockManager lm;
    for (int i = 0; i < depth; ++i) {
      lm.Acquire(i + 1, i, soap::txn::LockMode::kExclusive, [] {});
    }
    for (int i = 1; i < depth; ++i) {
      lm.Acquire(i, i - 1 + 1000000, soap::txn::LockMode::kExclusive, [] {});
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        lm.Acquire(depth, depth - 1, soap::txn::LockMode::kExclusive, [] {}));
  }
}
BENCHMARK(BM_DeadlockCheckDepth)->Arg(4)->Arg(16)->Arg(64);

void BM_RoutingLookup(benchmark::State& state) {
  soap::router::RoutingTable rt(500'000);
  for (uint64_t k = 0; k < 500'000; ++k) {
    (void)rt.SetPrimary(k, static_cast<uint32_t>(k % 5));
  }
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rt.GetPrimary(rng.NextUint64(500'000)));
  }
}
BENCHMARK(BM_RoutingLookup);

// The three lookup shapes of the interval table: a pure round-robin range
// hit (the bulk-load layout — one entry, owner = key % modulus), a point-
// exception hit (migrated keys living in the overlay), and the legacy
// dense path (every key SetPrimary'd with no base range, i.e. the
// all-exception representation the dense table degenerated to).
void BM_RoutingLookupRangeHit(benchmark::State& state) {
  soap::router::RoutingTable rt(500'000);
  (void)rt.AssignRoundRobin(0, 500'000, 5);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rt.GetPrimary(rng.NextUint64(500'000)));
  }
}
BENCHMARK(BM_RoutingLookupRangeHit);

void BM_RoutingLookupExceptionHit(benchmark::State& state) {
  soap::router::RoutingTable rt(500'000);
  (void)rt.AssignRoundRobin(0, 500'000, 5);
  // Move 50k keys off their round-robin owner: all land in the overlay.
  for (uint64_t k = 0; k < 500'000; k += 10) {
    (void)rt.SetPrimary(k, static_cast<uint32_t>((k + 1) % 5));
  }
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rt.GetPrimary(rng.NextUint64(50'000) * 10));
  }
}
BENCHMARK(BM_RoutingLookupExceptionHit);

void BM_RoutingMigrate(benchmark::State& state) {
  soap::router::RoutingTable rt(500'000);
  for (uint64_t k = 0; k < 500'000; ++k) {
    (void)rt.SetPrimary(k, 0);
  }
  uint64_t key = 0;
  uint32_t from = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rt.Migrate(key, from, from + 1));
    key = (key + 1) % 500'000;
    if (key == 0) ++from;
  }
}
BENCHMARK(BM_RoutingMigrate);

void BM_QueryParse(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(soap::router::QueryParser::Parse(
        "UPDATE t SET content = 42 WHERE key = 123456"));
  }
}
BENCHMARK(BM_QueryParse);

void BM_ZipfSample(benchmark::State& state) {
  Rng rng(1);
  ZipfSampler zipf(23'457, 1.16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(rng));
  }
}
BENCHMARK(BM_ZipfSample);

void BM_PoissonSample(benchmark::State& state) {
  Rng rng(1);
  const double mean = state.range(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.NextPoisson(mean));
  }
}
BENCHMARK(BM_PoissonSample)->Arg(20)->Arg(8000);

void BM_SimulatorEventLoop(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    soap::sim::Simulator sim;
    for (int i = 0; i < 10'000; ++i) {
      sim.At(i, [] {});
    }
    state.ResumeTiming();
    sim.Run();
  }
  state.SetItemsProcessed(state.iterations() * 10'000);
}
BENCHMARK(BM_SimulatorEventLoop);

void BM_ProcessingQueuePushPop(benchmark::State& state) {
  soap::cluster::ProcessingQueue q;
  for (auto _ : state) {
    auto t = std::make_unique<soap::txn::Transaction>();
    t->id = 1;
    t->priority = soap::txn::TxnPriority::kNormal;
    q.Push(std::move(t));
    benchmark::DoNotOptimize(q.Pop());
  }
}
BENCHMARK(BM_ProcessingQueuePushPop);

// --- Machine-readable perf suite (--json mode) -------------------------

double MedianOf(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// ns/event draining a pre-seeded 10k-event queue (the BM_SimulatorEventLoop
/// shape), median over `reps`.
double MeasureDrainNsPerEvent(int reps) {
  std::vector<double> samples;
  for (int rep = 0; rep < reps; ++rep) {
    soap::sim::Simulator sim;
    for (int i = 0; i < 10'000; ++i) sim.At(i, [] {});
    const auto t0 = std::chrono::steady_clock::now();
    sim.Run();
    samples.push_back(SecondsSince(t0) * 1e9 / 10'000.0);
  }
  return MedianOf(std::move(samples));
}

/// ns/event with self-rescheduling callbacks at a steady queue depth — the
/// pattern experiment runs actually produce (schedule/execute interleaved).
double MeasureSteadyStateNsPerEvent(int reps) {
  struct State {
    soap::sim::Simulator* sim;
    long remaining;
    uint64_t mix;
  };
  struct Fire {
    State* st;
    void operator()() {
      if (--st->remaining <= 0) return;
      st->mix = st->mix * 6364136223846793005ull + 1442695040888963407ull;
      st->sim->After(1 + (st->mix >> 33) % 200, Fire{st});
    }
  };
  std::vector<double> samples;
  for (int rep = 0; rep < reps; ++rep) {
    soap::sim::Simulator sim;
    State st{&sim, 1'000'000, 0x9e3779b97f4a7c15ull};
    for (int i = 0; i < 1'000; ++i) sim.At(i, Fire{&st});
    const auto t0 = std::chrono::steady_clock::now();
    sim.Run();
    samples.push_back(SecondsSince(t0) * 1e9 /
                      static_cast<double>(sim.events_executed()));
  }
  return MedianOf(std::move(samples));
}

/// ns per Cancel of a pending far-future event, median over `reps`.
double MeasureCancelNs(int reps) {
  const int kN = 200'000;
  std::vector<double> samples;
  for (int rep = 0; rep < reps; ++rep) {
    soap::sim::Simulator sim;
    std::vector<soap::sim::EventId> ids;
    ids.reserve(kN);
    for (int i = 0; i < kN; ++i) ids.push_back(sim.After(1'000'000 + i, [] {}));
    const auto t0 = std::chrono::steady_clock::now();
    for (soap::sim::EventId id : ids) sim.Cancel(id);
    samples.push_back(SecondsSince(t0) * 1e9 / kN);
  }
  return MedianOf(std::move(samples));
}

/// ns per routing GetPrimary for one of the three table shapes (see the
/// BM_RoutingLookup* comments), median over `reps`.
enum class RoutingShape { kRangeHit, kExceptionHit, kDensePath };

double MeasureRoutingLookupNs(RoutingShape shape, int reps) {
  constexpr uint64_t kKeys = 500'000;
  constexpr uint64_t kLookups = 2'000'000;
  soap::router::RoutingTable rt(kKeys);
  if (shape == RoutingShape::kDensePath) {
    for (uint64_t k = 0; k < kKeys; ++k) {
      (void)rt.SetPrimary(k, static_cast<uint32_t>(k % 5));
    }
  } else {
    (void)rt.AssignRoundRobin(0, kKeys, 5);
    if (shape == RoutingShape::kExceptionHit) {
      for (uint64_t k = 0; k < kKeys; k += 10) {
        (void)rt.SetPrimary(k, static_cast<uint32_t>((k + 1) % 5));
      }
    }
  }
  std::vector<double> samples;
  for (int rep = 0; rep < reps; ++rep) {
    Rng rng(1 + rep);
    const auto t0 = std::chrono::steady_clock::now();
    for (uint64_t i = 0; i < kLookups; ++i) {
      const uint64_t key = shape == RoutingShape::kExceptionHit
                               ? rng.NextUint64(kKeys / 10) * 10
                               : rng.NextUint64(kKeys);
      benchmark::DoNotOptimize(rt.GetPrimary(key));
    }
    samples.push_back(SecondsSince(t0) * 1e9 / kLookups);
  }
  return MedianOf(std::move(samples));
}

/// Sketch-mode CoAccessGraph::Observe throughput (txns/s), median over
/// `reps`: a 4M-key uniform stream of 5-key read transactions, the
/// bench_scale 4M cell's keyspace and sketch defaults, with a Decay every
/// 20k-transaction interval (timed too: it is part of the planner's cost).
/// Keys are drawn before the clock starts.
double MeasureCoAccessObservePerSec(int reps) {
  constexpr uint64_t kKeys = 4'000'000;
  constexpr size_t kKeysPerTxn = 5;
  constexpr size_t kInterval = 20'000;
  constexpr size_t kTxns = 5 * kInterval;
  soap::planner::CoAccessGraphConfig config;
  config.num_keys = kKeys;
  std::vector<double> samples;
  for (int rep = 0; rep < reps; ++rep) {
    Rng rng(101 + rep);
    std::vector<uint64_t> keys(kTxns * kKeysPerTxn);
    for (uint64_t& key : keys) key = rng.NextUint64(kKeys);
    soap::txn::Transaction txn;
    txn.ops.resize(kKeysPerTxn);
    soap::planner::CoAccessGraph graph(config);
    const auto t0 = std::chrono::steady_clock::now();
    for (size_t i = 0; i < kTxns; ++i) {
      for (size_t j = 0; j < kKeysPerTxn; ++j) {
        txn.ops[j].key = keys[i * kKeysPerTxn + j];
      }
      graph.Observe(txn);
      if ((i + 1) % kInterval == 0) graph.Decay();
    }
    samples.push_back(static_cast<double>(kTxns) / SecondsSince(t0));
    benchmark::DoNotOptimize(graph.edge_count());
  }
  return MedianOf(std::move(samples));
}

/// Consistency-checker throughput (txns/s), median over `reps`: the
/// HistoryRecorder hooks plus CheckHistory over a seeded synthetic history
/// of 200k zipf transactions on 500k keys and 5 partitions, each with
/// three reads and one write, under sparse txn ids. Keys are drawn before
/// the clock starts; the clock covers recording and the offline check.
double MeasureCheckHistoryTxnsPerSec(int reps) {
  constexpr uint64_t kKeys = 500'000;
  constexpr uint32_t kPartitions = 5;
  constexpr size_t kReads = 3;
  constexpr size_t kTxns = 200'000;
  soap::ZipfSampler zipf(kKeys, 1.0);
  std::vector<double> samples;
  for (int rep = 0; rep < reps; ++rep) {
    Rng rng(211 + rep);
    std::vector<uint64_t> keys(kTxns * (kReads + 1));
    for (uint64_t& key : keys) key = zipf.Sample(rng);
    soap::txn::Transaction txn;
    txn.ops.resize(kReads + 1);
    for (size_t j = 0; j < kReads; ++j) {
      txn.ops[j].kind = soap::txn::OpKind::kRead;
    }
    txn.ops[kReads].kind = soap::txn::OpKind::kWrite;
    soap::storage::Tuple row;
    const auto t0 = std::chrono::steady_clock::now();
    soap::check::HistoryRecorder recorder;
    for (size_t i = 0; i < kTxns; ++i) {
      txn.id = 3 * i + 1;
      const soap::SimTime at = static_cast<soap::SimTime>(10 * i);
      for (size_t j = 0; j <= kReads; ++j) {
        txn.ops[j].key = keys[i * (kReads + 1) + j];
      }
      for (size_t j = 0; j < kReads; ++j) {
        const uint64_t key = txn.ops[j].key;
        recorder.OnRead(txn.id, key, key % kPartitions, at);
      }
      soap::txn::Operation& write = txn.ops[kReads];
      write.write_value = static_cast<int64_t>(i);
      row.key = write.key;
      row.content = write.write_value;
      recorder.OnApplyUpdate(write.key % kPartitions, txn.id, row);
      recorder.OnCommit(txn, at + 5);
    }
    const soap::check::CheckReport report =
        soap::check::CheckHistory(recorder, /*serializable=*/false);
    samples.push_back(static_cast<double>(kTxns) / SecondsSince(t0));
    if (!report.ok()) {
      std::fprintf(stderr, "# check_history: %s\n", report.ToString().c_str());
    }
  }
  return MedianOf(std::move(samples));
}

/// Fast-scale fig4-style panel (alpha sweep x 5 strategies) wall-clock at
/// the given thread count. Scale mirrors SOAP_BENCH_FAST without needing
/// the environment variable.
double MeasurePanelSeconds(unsigned threads) {
  std::vector<soap::engine::ExperimentCell> cells;
  for (double alpha : {1.0, 0.6, 0.2}) {
    for (soap::SchedulingStrategy strategy : soap::bench::AllStrategies()) {
      soap::engine::ExperimentConfig config = soap::bench::MakeCellConfig(
          strategy, soap::workload::PopularityDist::kZipf,
          /*high_load=*/true, alpha);
      config.workload_options.spec.num_templates = 2'345;
      config.workload_options.spec.num_keys = 50'000;
      config.warmup_intervals = 2;
      config.measured_intervals = 6;
      cells.push_back(soap::engine::ExperimentCell{std::move(config)});
    }
  }
  const auto t0 = std::chrono::steady_clock::now();
  soap::engine::ParallelRunner(threads).Run(std::move(cells));
  return SecondsSince(t0);
}

/// Minimal extractor for the flat JSON this binary writes: finds
/// `"key": <number>` anywhere in `text`. Returns 0.0 when absent.
double JsonNumber(const std::string& text, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = text.find(needle);
  if (at == std::string::npos) return 0.0;
  return std::strtod(text.c_str() + at + needle.size(), nullptr);
}

int RunJsonMode(const std::string& out_path, const std::string& baseline) {
  const double drain_ns = MeasureDrainNsPerEvent(151);
  const double steady_ns = MeasureSteadyStateNsPerEvent(5);
  const double cancel_ns = MeasureCancelNs(9);
  const double route_range_ns =
      MeasureRoutingLookupNs(RoutingShape::kRangeHit, 5);
  const double route_exc_ns =
      MeasureRoutingLookupNs(RoutingShape::kExceptionHit, 5);
  const double route_dense_ns =
      MeasureRoutingLookupNs(RoutingShape::kDensePath, 5);
  const double coaccess_per_sec = MeasureCoAccessObservePerSec(5);
  const double check_per_sec = MeasureCheckHistoryTxnsPerSec(5);
  const double panel_serial_s = MeasurePanelSeconds(1);
  // Panel speedup scales with min(threads, cores); measuring 4 threads on
  // a 1-core host would just report scheduler overhead. Record the host
  // core count so readers can interpret the ratio.
  const unsigned host_cpus =
      std::max(1u, std::thread::hardware_concurrency());
  const unsigned panel_threads = std::min(4u, host_cpus);
  const double panel_par_s = panel_threads > 1 ? MeasurePanelSeconds(panel_threads)
                                               : panel_serial_s;

  std::ostringstream json;
  json.precision(6);
  json << "{\n"
       << "  \"schema\": \"soap-bench-micro-v1\",\n"
       << "  \"host_cpus\": " << host_cpus << ",\n"
       << "  \"event_loop_events_per_sec\": " << 1e9 / drain_ns << ",\n"
       << "  \"event_loop_ns_per_event\": " << drain_ns << ",\n"
       << "  \"steady_state_events_per_sec\": " << 1e9 / steady_ns << ",\n"
       << "  \"steady_state_ns_per_event\": " << steady_ns << ",\n"
       << "  \"cancel_per_sec\": " << 1e9 / cancel_ns << ",\n"
       << "  \"cancel_ns\": " << cancel_ns << ",\n"
       << "  \"routing_range_hit_per_sec\": " << 1e9 / route_range_ns << ",\n"
       << "  \"routing_range_hit_ns\": " << route_range_ns << ",\n"
       << "  \"routing_exception_hit_per_sec\": " << 1e9 / route_exc_ns
       << ",\n"
       << "  \"routing_exception_hit_ns\": " << route_exc_ns << ",\n"
       << "  \"routing_dense_path_per_sec\": " << 1e9 / route_dense_ns
       << ",\n"
       << "  \"routing_dense_path_ns\": " << route_dense_ns << ",\n"
       << "  \"coaccess_observe_sketch_per_sec\": " << coaccess_per_sec
       << ",\n"
       << "  \"check_history_txns_per_sec\": " << check_per_sec << ",\n"
       << "  \"panel_fast_serial_seconds\": " << panel_serial_s << ",\n"
       << "  \"panel_fast_parallel_threads\": " << panel_threads << ",\n"
       << "  \"panel_fast_parallel_seconds\": " << panel_par_s << ",\n"
       << "  \"panel_fast_speedup\": "
       << (panel_par_s > 0.0 ? panel_serial_s / panel_par_s : 0.0) << "\n"
       << "}\n";

  std::filesystem::path path(out_path);
  if (path.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(path.parent_path(), ec);
  }
  std::ofstream out(path);
  out << json.str();
  out.close();
  std::printf("%s", json.str().c_str());
  std::printf("# wrote %s\n", out_path.c_str());

  if (baseline.empty()) return 0;
  std::ifstream in(baseline);
  if (!in) {
    std::fprintf(stderr, "baseline %s unreadable\n", baseline.c_str());
    return 1;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string base = buf.str();
  struct Gate {
    const char* key;
    double current;
  };
  // Throughput gates: fail when current drops below 75% of the baseline.
  const Gate gates[] = {
      {"event_loop_events_per_sec", 1e9 / drain_ns},
      {"steady_state_events_per_sec", 1e9 / steady_ns},
      {"cancel_per_sec", 1e9 / cancel_ns},
      {"routing_range_hit_per_sec", 1e9 / route_range_ns},
      {"routing_exception_hit_per_sec", 1e9 / route_exc_ns},
      {"routing_dense_path_per_sec", 1e9 / route_dense_ns},
      {"coaccess_observe_sketch_per_sec", coaccess_per_sec},
      {"check_history_txns_per_sec", check_per_sec},
  };
  int exit_code = 0;
  for (const Gate& gate : gates) {
    const double was = JsonNumber(base, gate.key);
    if (was <= 0.0) {
      // A gate without a floor would pass silently; make it an error.
      std::fprintf(stderr, "# gate %s has no floor in %s\n", gate.key,
                   baseline.c_str());
      exit_code = 1;
      continue;
    }
    const double ratio = gate.current / was;
    std::printf("# gate %-28s %.3gx baseline%s\n", gate.key, ratio,
                ratio < 0.75 ? "  REGRESSION" : "");
    if (ratio < 0.75) exit_code = 1;
  }
  return exit_code;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::string baseline;
  std::vector<char*> passthrough{argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json_path = "bench_results/BENCH_micro.json";
      if (i + 1 < argc && argv[i + 1][0] != '-') json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
      baseline = argv[++i];
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (!json_path.empty()) return RunJsonMode(json_path, baseline);
  int pass_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pass_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pass_argc, passthrough.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
