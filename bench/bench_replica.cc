// bench_replica: replica-aware repartitioning versus migration-only
// planning on a read-heavy paired workload, plus a crash-failover
// scenario.
//
// Workload: Zipf, 10% writes, with a stationary hub-pairing phase from
// interval 0: a fraction of transactions additionally read keys of a
// small hub of hot templates — shared reference data touched from every
// partition. Migration-only planning can collocate the hub with at most
// one of its reader partitions; replica-aware planning copies the hub's
// read-only keys to all of them. The headline metric is the tail
// distributed-transaction ratio: lower means more reads went local.
//
// For each of the five scheduling strategies the bench runs the same
// configuration twice — online planner with migrations only, then with
// replica-aware planning — and reports the pair. A final scenario crashes
// the node holding replicated primaries mid-run and checks that reads
// keep committing from surviving replicas while the primary is down.
//
//   bench_replica [--smoke] [--json PATH] [--threads N]
//
// --smoke shrinks the scale ~4x and relaxes the win gate to mechanical
// checks (replicas created, replica reads observed, promotions on crash)
// so CI can run it in seconds; the full run additionally requires the
// replica-aware plan to win on >= 3 of 5 strategies.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/flags.h"
#include "src/engine/flag_table.h"
#include "src/engine/parallel_runner.h"

namespace {

using namespace soap;

engine::ExperimentConfig BaseConfig(bool smoke) {
  engine::ExperimentConfig config;
  workload::WorkloadSpec spec = workload::WorkloadSpec::Zipf(/*alpha=*/1.0);
  spec.num_templates = smoke ? 1'000 : 4'000;
  spec.num_keys = smoke ? 25'000 : 100'000;
  spec.write_fraction = 0.1;  // read-heavy: replicas stay cheap to keep
  // One stationary phase from interval 0: a pair_fraction of transactions
  // additionally read keys of a small hub of hot templates — shared
  // reference data co-accessed from every partition. A migration can
  // collocate the hub with at most one of its reader partitions; copies
  // can satisfy all of them, which is the structural gap this bench
  // measures.
  workload::DriftPhase pairing;
  pairing.start_interval = 0;
  pairing.rotation = 0;
  pairing.zipf_s = spec.zipf_s;
  pairing.pair_fraction = 0.35;
  pairing.pair_hub = smoke ? 40 : 100;
  spec.phases.push_back(pairing);
  config.workload_options.spec = spec;

  config.workload_options.utilization = workload::kHighLoadUtilization;
  config.warmup_intervals = smoke ? 3 : 5;
  config.measured_intervals = smoke ? 15 : 40;
  config.seed = 42;
  config.planner_options.enabled = true;
  return config;
}

engine::ExperimentConfig WithReplicas(engine::ExperimentConfig config) {
  config.replicas.enabled = true;
  // The hub is read from every partition; let copies reach all of them.
  config.planner_options.builder.max_copies = config.cluster.num_nodes;
  return config;
}

struct StrategyOutcome {
  std::string name;
  double dist_tail_migration = 0.0;
  double dist_tail_replica = 0.0;
  double replica_read_frac = 0.0;
  uint64_t replica_creates = 0;
  uint64_t replicated_keys = 0;
  bool win = false;
};

}  // namespace

int main(int argc, char** argv) {
  Result<Flags> parsed = Flags::Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    return 2;
  }
  engine::FlagTable table({
      {"smoke", engine::FlagType::kBool, "off",
       "CI scale: ~4x smaller, mechanical gates only", nullptr},
      {"json", engine::FlagType::kString, "",
       "write the outcome table as a JSON artifact", nullptr},
      {"threads", engine::FlagType::kInt, "1",
       "run cells on N parallel threads (identical results at any count)",
       nullptr},
      {"help", engine::FlagType::kBool, "", "this text", nullptr},
  });
  if (parsed->GetBool("help")) {
    std::printf("%s", table.Help("bench_replica",
                                 "replica-aware planning vs migration-only "
                                 "on a read-heavy paired workload")
                          .c_str());
    return 0;
  }
  if (Status s = table.CheckUnknown(*parsed); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 2;
  }
  const bool smoke = parsed->GetBool("smoke");
  const std::string json_path = parsed->GetString("json", "");
  const unsigned threads = engine::ParseThreadCount(
      parsed->GetString("threads", "").c_str());

  std::printf("==== bench_replica: replica-aware vs migration-only ====\n");
  std::printf("# scale: %s\n\n", smoke ? "SMOKE (~4x reduced)" : "full");

  // One cell per (strategy, mode): migration-only first, replicas second.
  std::vector<engine::ExperimentCell> cells;
  for (SchedulingStrategy strategy : bench::AllStrategies()) {
    engine::ExperimentConfig base = BaseConfig(smoke);
    base.deployment.strategy = strategy;
    engine::ExperimentConfig replicas = WithReplicas(base);
    bench::ApplyObsEnv(&base,
                       std::string(StrategyName(strategy)) + "_migration");
    bench::ApplyObsEnv(&replicas,
                       std::string(StrategyName(strategy)) + "_replicas");
    cells.push_back(engine::ExperimentCell{base});
    cells.push_back(engine::ExperimentCell{replicas});
  }
  engine::ParallelRunner runner(threads);
  std::vector<engine::CellOutcome> outcomes = runner.Run(
      std::move(cells), [&](const engine::CellOutcome& outcome) {
        const engine::ExperimentResult& r = outcome.result;
        std::printf("# ran %-9s %-10s: %.1fs wall, %s\n",
                    r.strategy_name.c_str(),
                    r.replicas_enabled ? "replicas" : "migration",
                    outcome.wall_seconds,
                    r.audit.ok() ? "audit ok" : r.audit.ToString().c_str());
        std::fflush(stdout);
      });

  int exit_code = 0;
  std::vector<StrategyOutcome> results;
  for (size_t i = 0; i < bench::AllStrategies().size(); ++i) {
    const engine::ExperimentResult& mig = outcomes[2 * i].result;
    const engine::ExperimentResult& rep = outcomes[2 * i + 1].result;
    if (!mig.audit.ok() || !rep.audit.ok()) exit_code = 1;
    StrategyOutcome out;
    out.name = mig.strategy_name;
    out.dist_tail_migration = mig.distributed_ratio.TailMean(10);
    out.dist_tail_replica = rep.distributed_ratio.TailMean(10);
    out.replica_read_frac =
        rep.reads_routed > 0 ? static_cast<double>(rep.replica_reads) /
                                   static_cast<double>(rep.reads_routed)
                             : 0.0;
    out.replica_creates = rep.planner_stats.replica_creates_emitted;
    out.replicated_keys = rep.replica_count_final;
    out.win = out.dist_tail_replica < out.dist_tail_migration;
    results.push_back(out);
  }

  std::printf("\n# %-9s %-14s %-14s %-8s %-16s %-8s %-10s\n", "strategy",
              "dist_migration", "dist_replica", "win", "replica_read_frac",
              "creates", "repl_keys");
  int wins = 0;
  uint64_t total_creates = 0;
  double max_replica_read_frac = 0.0;
  for (const StrategyOutcome& out : results) {
    std::printf("# %-9s %-14.4f %-14.4f %-8s %-16.4f %-8llu %-10llu\n",
                out.name.c_str(), out.dist_tail_migration,
                out.dist_tail_replica, out.win ? "yes" : "no",
                out.replica_read_frac,
                static_cast<unsigned long long>(out.replica_creates),
                static_cast<unsigned long long>(out.replicated_keys));
    wins += out.win ? 1 : 0;
    total_creates += out.replica_creates;
    if (out.replica_read_frac > max_replica_read_frac) {
      max_replica_read_frac = out.replica_read_frac;
    }
  }
  std::printf("# replica-aware planning wins %d/5 on tail distributed "
              "ratio\n\n", wins);

  // --- Crash-failover scenario: crash a replica-hosting primary node
  // mid-run; reads must keep committing from surviving replicas while it
  // is down (nonzero replica-read fraction during the outage intervals).
  engine::ExperimentConfig crash_config =
      WithReplicas(BaseConfig(smoke));
  crash_config.deployment.strategy = SchedulingStrategy::kHybrid;
  const uint32_t crash_interval = crash_config.warmup_intervals +
                                  (smoke ? 6 : 10);
  const long crash_at = static_cast<long>(crash_interval) * 20;
  const long down_for = 40;
  crash_config.fault_options.spec = "crash:node=2,at=" + std::to_string(crash_at) +
                            "s,down=" + std::to_string(down_for) + "s";
  bench::ApplyObsEnv(&crash_config, "hybrid_crash_failover");
  engine::ExperimentResult crash_run =
      engine::Experiment(crash_config).Run();
  // The outage spans two intervals starting at crash_interval.
  double outage_replica_reads = 0.0;
  for (uint32_t k = crash_interval;
       k < crash_interval + 2 &&
       k < static_cast<uint32_t>(crash_run.replica_read_ratio.size());
       ++k) {
    outage_replica_reads += crash_run.replica_read_ratio.values()[k];
  }
  std::printf("# crash scenario (node 2 down %lds at %lds): %s\n", down_for,
              crash_at, crash_run.Summary().c_str());
  std::printf("# outage replica-read fraction (2 intervals): %.4f, "
              "promotions=%llu\n\n",
              outage_replica_reads / 2.0,
              static_cast<unsigned long long>(
                  crash_run.replica_stats.promotions));
  if (!crash_run.audit.ok()) exit_code = 1;

  // --- Gates.
  if (total_creates == 0) {
    std::fprintf(stderr, "GATE: no replicas were ever created\n");
    exit_code = 1;
  }
  if (max_replica_read_frac <= 0.0) {
    std::fprintf(stderr, "GATE: no read was ever served by a replica\n");
    exit_code = 1;
  }
  if (crash_run.replica_stats.promotions == 0) {
    std::fprintf(stderr, "GATE: primary crash promoted no replica\n");
    exit_code = 1;
  }
  if (outage_replica_reads <= 0.0) {
    std::fprintf(stderr,
                 "GATE: no replica reads during the primary outage\n");
    exit_code = 1;
  }
  if (!smoke && wins < 3) {
    std::fprintf(stderr,
                 "GATE: replica-aware planning won only %d/5 strategies\n",
                 wins);
    exit_code = 1;
  }

  if (!json_path.empty()) {
    FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"scale\": \"%s\",\n  \"strategies\": [\n",
                 smoke ? "smoke" : "full");
    for (size_t i = 0; i < results.size(); ++i) {
      const StrategyOutcome& out = results[i];
      std::fprintf(
          f,
          "    {\"name\": \"%s\", \"dist_tail_migration\": %.6f, "
          "\"dist_tail_replica\": %.6f, \"win\": %s, "
          "\"replica_read_frac\": %.6f, \"replica_creates\": %llu}%s\n",
          out.name.c_str(), out.dist_tail_migration, out.dist_tail_replica,
          out.win ? "true" : "false", out.replica_read_frac,
          static_cast<unsigned long long>(out.replica_creates),
          i + 1 < results.size() ? "," : "");
    }
    std::fprintf(
        f,
        "  ],\n  \"wins\": %d,\n  \"crash\": {\"promotions\": %llu, "
        "\"outage_replica_read_frac\": %.6f, \"audit_ok\": %s}\n}\n",
        wins,
        static_cast<unsigned long long>(crash_run.replica_stats.promotions),
        outage_replica_reads / 2.0, crash_run.audit.ok() ? "true" : "false");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return exit_code;
}
