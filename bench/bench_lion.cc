// bench_lion: adaptive replica provisioning (lion) versus the static
// replica-aware planner on a drifting affinity-hub workload.
//
// Workload: Zipf with 20% writes and a partition-affinity hub — every
// paired transaction homed on partition p borrows the keys of one fixed
// hot reference template homed on p's neighbour, so each hub key has an
// owner partition (reads from the template that owns it) and exactly one
// borrower partition. Phase 1 is read-only borrowing: both planners
// answer with a fan-in copy on the borrower and keep the primary with the
// owner. Phase 2 rotates template popularity (the owners go cold) and
// turns a slice of the borrowed accesses into writes. That wedges the
// static replica-aware planner (PR 5) into a corner it cannot leave:
// migrating the primary to the borrower is vetoed because a copy already
// lives there, the borrower's copy is kept by read hysteresis, and a
// primary can never be dropped — so every borrowed write 2PCs across the
// stranded primary and the borrower's copy forever. Lion prices
// migrate-vs-replicate-vs-leader-shift per key from one candidate pool:
// the borrower partition dominates the key's windowed write sources, the
// leader *shifts* onto the existing copy at zero move cost, and the next
// sweep retires the faded owner's copy — borrowed writes go single-node.
//
// Headline metrics, per strategy: the tail distributed-transaction ratio
// (lower = more work went local) and the tail distributed-*write* ratio
// (lower = write-hot keys went single-node), plus applied shift counts
// and budget activity.
//
//   bench_lion [--smoke] [--json PATH] [--threads N]
//
// --smoke shrinks the scale ~4x and gates only on mechanics (shifts
// emitted and applied, clean audits); the full run additionally requires
// lion to beat the static replica planner's tail distributed ratio on
// >= 3 of 5 strategies.

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
  // alpha = 0.2: a modest initial repartitioning backlog. The paper's
  // alpha = 1.0 floods every plan generation with the 2-keys-per-template
  // migration storm, and the slow-deploying strategies then never get the
  // hub copies placed before the drift — this bench measures placement
  // *policy* under drift, not backlog scheduling.
  workload::WorkloadSpec spec = workload::WorkloadSpec::Zipf(/*alpha=*/0.2);
  spec.num_templates = smoke ? 1'000 : 4'000;
  spec.num_keys = smoke ? 25'000 : 100'000;
  spec.write_fraction = 0.2;  // enough writes that leadership placement matters

  // Phase 1 (interval 0): stationary affinity-hub pairing — each
  // partition's paired transactions read the keys of one hot reference
  // template homed on the neighbouring partition. Hot owner + one steady
  // borrower puts both planners in the split-reader state: primary with
  // the owner, fan-in copy on the borrower.
  workload::DriftPhase pairing;
  pairing.start_interval = 0;
  pairing.rotation = 0;
  pairing.zipf_s = spec.zipf_s;
  pairing.pair_fraction = 0.35;
  pairing.pair_hub = config.cluster.num_nodes;
  pairing.pair_affinity = true;
  spec.phases.push_back(pairing);

  // Phase 2 (mid-window): popularity rotates away from the hub owners,
  // and an eighth of the borrowed accesses become writes. The borrower
  // partition — unchanged by rotation, because affinity pairing keys the
  // hub off the issuing partition — is now each hub key's only reader and
  // its dominant write source; the owner-side primary is stranded dead
  // weight only a leader shift can unseat.
  workload::DriftPhase drift = pairing;
  drift.start_interval = smoke ? 10 : 18;
  drift.rotation = smoke ? 250 : 1'000;
  drift.pair_write = 0.125;
  spec.phases.push_back(drift);
  config.workload_options.spec = spec;

  config.workload_options.utilization = workload::kHighLoadUtilization;
  config.warmup_intervals = smoke ? 3 : 5;
  // The slow-deploying strategies replan only when the previous plan has
  // fully deployed (a new generation every ~4-5 intervals); the
  // shift-then-retire sequence needs two post-drift generations plus
  // deployment, so the measured window leaves them that runway.
  config.measured_intervals = smoke ? 25 : 60;
  config.seed = 42;
  config.planner_options.enabled = true;
  // The rotation kick floods a single plan generation (every template's
  // stranded remote keys go hot at once); the default per-generation op
  // cap would displace cooler migrates behind lion's extra shift/drop
  // ops and measure cap scheduling instead of placement policy.
  config.planner_options.builder.max_ops = 8192;
  // Both modes get the static replica machinery; lion builds on top of it.
  config.replicas.enabled = true;
  config.planner_options.builder.max_copies = config.cluster.num_nodes;
  return config;
}

engine::ExperimentConfig WithLion(engine::ExperimentConfig config) {
  config.planner_options.builder.lion.enabled = true;
  return config;
}

struct StrategyOutcome {
  std::string name;
  double dist_tail_static = 0.0;
  double dist_tail_lion = 0.0;
  double dist_write_tail_static = 0.0;
  double dist_write_tail_lion = 0.0;
  uint64_t shifts_emitted = 0;
  uint64_t shifts_applied = 0;
  uint64_t evictions = 0;
  uint64_t denials = 0;
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
    std::printf("%s", table.Help("bench_lion",
                                 "adaptive replica provisioning + leader "
                                 "shifting vs the static replica planner")
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

  std::printf("==== bench_lion: adaptive provisioning vs static replicas "
              "====\n");
  std::printf("# scale: %s\n\n", smoke ? "SMOKE (~4x reduced)" : "full");

  // One cell pair per strategy: static replica planner first, lion second.
  std::vector<engine::ExperimentCell> cells;
  for (SchedulingStrategy strategy : bench::AllStrategies()) {
    engine::ExperimentConfig stat = BaseConfig(smoke);
    stat.deployment.strategy = strategy;
    engine::ExperimentConfig lion = WithLion(stat);
    bench::ApplyObsEnv(&stat,
                       std::string(StrategyName(strategy)) + "_static");
    bench::ApplyObsEnv(&lion, std::string(StrategyName(strategy)) + "_lion");
    cells.push_back(engine::ExperimentCell{stat});
    cells.push_back(engine::ExperimentCell{lion});
  }
  engine::ParallelRunner runner(threads);
  std::vector<engine::CellOutcome> outcomes = runner.Run(
      std::move(cells), [&](const engine::CellOutcome& outcome) {
        const engine::ExperimentResult& r = outcome.result;
        std::printf("# ran %-9s %-7s: %.1fs wall, %s\n",
                    r.strategy_name.c_str(),
                    r.lion_enabled ? "lion" : "static", outcome.wall_seconds,
                    r.audit.ok() ? "audit ok" : r.audit.ToString().c_str());
        std::fflush(stdout);
      });

  int exit_code = 0;
  std::vector<StrategyOutcome> results;
  for (size_t i = 0; i < bench::AllStrategies().size(); ++i) {
    const engine::ExperimentResult& stat = outcomes[2 * i].result;
    const engine::ExperimentResult& lion = outcomes[2 * i + 1].result;
    if (!stat.audit.ok() || !lion.audit.ok()) exit_code = 1;
    StrategyOutcome out;
    out.name = stat.strategy_name;
    out.dist_tail_static = stat.distributed_ratio.TailMean(10);
    out.dist_tail_lion = lion.distributed_ratio.TailMean(10);
    out.dist_write_tail_static = stat.distributed_write_ratio.TailMean(10);
    out.dist_write_tail_lion = lion.distributed_write_ratio.TailMean(10);
    out.shifts_emitted = lion.planner_stats.leader_shifts_emitted;
    out.shifts_applied = lion.counters.leader_shifts_applied;
    out.evictions = lion.planner_stats.replicas_evicted_budget;
    out.denials = lion.planner_stats.replica_budget_denials;
    out.win = out.dist_tail_lion < out.dist_tail_static;
    results.push_back(out);
  }

  std::printf("\n# %-9s %-12s %-12s %-5s %-13s %-13s %-8s %-8s %-7s %-7s\n",
              "strategy", "dist_static", "dist_lion", "win", "dwrite_static",
              "dwrite_lion", "emitted", "applied", "evict", "deny");
  int wins = 0;
  uint64_t total_shifts_applied = 0;
  uint64_t total_shifts_emitted = 0;
  for (const StrategyOutcome& out : results) {
    std::printf(
        "# %-9s %-12.4f %-12.4f %-5s %-13.4f %-13.4f %-8llu %-8llu %-7llu "
        "%-7llu\n",
        out.name.c_str(), out.dist_tail_static, out.dist_tail_lion,
        out.win ? "yes" : "no", out.dist_write_tail_static,
        out.dist_write_tail_lion,
        static_cast<unsigned long long>(out.shifts_emitted),
        static_cast<unsigned long long>(out.shifts_applied),
        static_cast<unsigned long long>(out.evictions),
        static_cast<unsigned long long>(out.denials));
    wins += out.win ? 1 : 0;
    total_shifts_applied += out.shifts_applied;
    total_shifts_emitted += out.shifts_emitted;
  }
  std::printf("# lion wins %d/5 on tail distributed ratio; %llu leader "
              "shifts applied\n\n",
              wins, static_cast<unsigned long long>(total_shifts_applied));

  // --- Gates.
  if (total_shifts_emitted == 0) {
    std::fprintf(stderr, "GATE: the planner never emitted a leader shift\n");
    exit_code = 1;
  }
  if (total_shifts_applied == 0) {
    std::fprintf(stderr, "GATE: no leader shift was ever applied\n");
    exit_code = 1;
  }
  if (!smoke && wins < 3) {
    std::fprintf(stderr, "GATE: lion won only %d/5 strategies\n", wins);
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
          "    {\"name\": \"%s\", \"dist_tail_static\": %.6f, "
          "\"dist_tail_lion\": %.6f, \"win\": %s, "
          "\"dist_write_tail_static\": %.6f, \"dist_write_tail_lion\": %.6f, "
          "\"shifts_emitted\": %llu, \"shifts_applied\": %llu, "
          "\"evictions\": %llu, \"denials\": %llu}%s\n",
          out.name.c_str(), out.dist_tail_static, out.dist_tail_lion,
          out.win ? "true" : "false", out.dist_write_tail_static,
          out.dist_write_tail_lion,
          static_cast<unsigned long long>(out.shifts_emitted),
          static_cast<unsigned long long>(out.shifts_applied),
          static_cast<unsigned long long>(out.evictions),
          static_cast<unsigned long long>(out.denials),
          i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"wins\": %d,\n  \"shifts_applied\": %llu\n}\n",
                 wins,
                 static_cast<unsigned long long>(total_shifts_applied));
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return exit_code;
}
