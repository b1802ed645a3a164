#include "src/planner/plan_builder.h"

#include <algorithm>
#include <unordered_set>

namespace soap::planner {

BuiltPlan PlanBuilder::Build(const Clustering& clustering,
                             const CoAccessGraph& graph,
                             const router::RoutingTable& routing,
                             repartition::OpIdAllocator* ids,
                             const PlanAuditContext* audit) const {
  using repartition::PlacementKind;
  struct Move {
    storage::TupleKey key = 0;
    uint32_t source = 0;
    uint32_t target = 0;
    uint64_t heat = 0;
    PlacementKind kind = PlacementKind::kMigrate;
    repartition::PlacementCost cost{};
  };
  obs::AuditLog* audit_log =
      audit != nullptr && audit->log != nullptr ? audit->log : nullptr;
  // One `plan_op` record per decision point; cost inputs come straight
  // from the structures the decision itself read. Pull shares are zero
  // for branches that never computed them.
  auto audit_op = [&](storage::TupleKey key, PlacementKind kind, bool accept,
                      const char* reason, uint32_t source, uint32_t target,
                      uint64_t heat, uint64_t pull_target,
                      uint64_t pull_total, size_t copies) {
    if (audit_log == nullptr) return;
    obs::AuditRecord rec(audit_log, "plan_op", audit->t_us);
    rec.U64("cycle", audit->cycle)
        .U64("key", key)
        .Str("op", repartition::PlacementKindName(kind))
        .Str("decision", accept ? "accept" : "reject")
        .Str("reason", reason)
        .U64("source", source)
        .U64("target", target)
        .U64("heat", heat)
        .U64("reads", graph.VertexReads(key))
        .U64("writes", graph.VertexWrites(key))
        .U64("copies", copies);
    if (pull_total > 0) {
      rec.U64("pull_target", pull_target).U64("pull_total", pull_total);
    }
  };
  auto read_heavy = [this, &graph](storage::TupleKey key) {
    const uint64_t reads = graph.VertexReads(key);
    const uint64_t writes = graph.VertexWrites(key);
    return static_cast<double>(reads) >
           config_.min_read_write_ratio * static_cast<double>(writes);
  };
  // Clustering label of a key; keys outside the clustering (cold, evicted
  // from the graph) count at their current primary.
  auto label_of = [&clustering, &routing](storage::TupleKey key) -> int64_t {
    auto it = std::lower_bound(clustering.keys.begin(),
                               clustering.keys.end(), key);
    if (it != clustering.keys.end() && *it == key) {
      return clustering.partition_of[it - clustering.keys.begin()];
    }
    Result<router::PartitionId> p = routing.GetPrimary(key);
    return p.ok() ? static_cast<int64_t>(*p) : -1;
  };
  // Co-access pull on `key` from each partition: edge mass toward
  // neighbours by their clustered label. A key whose mass concentrates on
  // one partition belongs there outright; a split key is read from two
  // places at once and is the replica candidate.
  struct PullMass {
    std::unordered_map<uint32_t, uint64_t> per_partition;
    uint64_t total = 0;
    uint64_t On(uint32_t p) const {
      auto it = per_partition.find(p);
      return it == per_partition.end() ? 0 : it->second;
    }
    /// Partitions by pull, heaviest first (ties: lowest id).
    std::vector<std::pair<uint32_t, uint64_t>> Sorted() const {
      std::vector<std::pair<uint32_t, uint64_t>> v(per_partition.begin(),
                                                   per_partition.end());
      std::sort(v.begin(), v.end(), [](const auto& x, const auto& y) {
        if (x.second != y.second) return x.second > y.second;
        return x.first < y.first;
      });
      return v;
    }
  };
  auto pull_mass = [&graph, &label_of](storage::TupleKey key) {
    PullMass m;
    for (const auto& [neighbor, weight] : graph.NeighborsOf(key)) {
      const int64_t label = label_of(neighbor);
      if (label < 0) continue;
      m.per_partition[static_cast<uint32_t>(label)] += weight;
      m.total += weight;
    }
    return m;
  };
  // Same pull, but against *deployed* primaries instead of this
  // generation's labels. The drop test uses it: labels of borderline
  // clusters can flip between generations, and dropping a copy on a
  // label flip (only to recreate it next interval) is pure churn.
  auto deployed_pull_mass = [&graph, &routing](storage::TupleKey key) {
    PullMass m;
    for (const auto& [neighbor, weight] : graph.NeighborsOf(key)) {
      Result<router::PartitionId> p = routing.GetPrimary(neighbor);
      if (!p.ok()) continue;
      m.per_partition[*p] += weight;
      m.total += weight;
    }
    return m;
  };

  // Lion path: active only when both the config switch and a provisioner
  // are present. With lion off this function is byte-identical to the
  // static fan-in planner.
  lion::Provisioner* lion =
      config_.lion.enabled && config_.replicate_read_heavy ? lion_ : nullptr;
  if (lion != nullptr) lion->BeginCycle(routing);
  auto heat_fn = [&graph](storage::TupleKey key) {
    return graph.HeatEstimate(key);
  };
  // Uniform candidate pricing (DESIGN.md §9.1): every candidate carries
  // move bytes, a 2PC-savings estimate from the co-access window, and the
  // ongoing freshness/fan-out penalty it commits us to, all in the cost
  // model's node-work-microsecond currency.
  const double dist_gap =
      lion == nullptr
          ? 0.0
          : static_cast<double>(cost_model_->DistributedTxnCost(2) -
                                cost_model_->CollocatedTxnCost());
  constexpr uint64_t kTupleWireBytes = 64;  // fixed-size simulated tuples
  auto priced = [&](PlacementKind kind, uint64_t pull_target,
                    uint64_t pull_away, uint64_t writes) {
    repartition::PlacementCost cost{};
    cost.tpc_savings = static_cast<double>(pull_target) * dist_gap;
    switch (kind) {
      case PlacementKind::kMigrate:
        // The old partition's pull turns remote when the primary leaves.
        cost.move_bytes = kTupleWireBytes;
        cost.freshness_penalty = static_cast<double>(pull_away) * dist_gap;
        break;
      case PlacementKind::kReplicaCreate: {
        // Every window write now fans out to one more 2PC participant.
        const auto& costs = cost_model_->costs();
        cost.move_bytes = kTupleWireBytes;
        cost.freshness_penalty =
            static_cast<double>(writes) *
            static_cast<double>(costs.prepare + costs.commit_apply);
        break;
      }
      case PlacementKind::kLeaderShift:
        // Role swap: no bytes move, and the demoted primary keeps a copy,
        // so no reader goes remote that was local before. The ongoing
        // cost is the write mass still issued from the demoted primary,
        // which turns remote.
        cost.freshness_penalty = static_cast<double>(pull_away) * dist_gap;
        break;
      case PlacementKind::kReplicaDrop:
        break;
    }
    return cost;
  };

  std::vector<Move> moves;
  std::unordered_set<storage::TupleKey> shift_keys;
  // Budget admission shared by every lion replica-create emission: charge
  // the target partition, evicting its LRU/coldest copy to make room when
  // the budget is full. Returns false when nothing is evictable.
  auto admit_create = [&](uint32_t p, storage::TupleKey for_key) {
    if (lion->ChargeCreate(p)) return true;
    std::optional<storage::TupleKey> victim =
        lion->PickEviction(p, for_key, heat_fn);
    if (!victim.has_value()) return false;
    Result<router::Placement> vp = routing.GetPlacement(*victim);
    const uint32_t victim_primary = vp.ok() ? vp->primary : 0;
    audit_op(*victim, PlacementKind::kReplicaDrop, true, "evicted_for_budget",
             p, victim_primary, graph.VertexWeight(*victim), 0, 0,
             vp.ok() ? vp->copy_count() : 0);
    moves.push_back({*victim, p, victim_primary, graph.VertexWeight(*victim),
                     PlacementKind::kReplicaDrop});
    lion->CountEviction();
    lion->Release(p);
    return lion->ChargeCreate(p);
  };
  for (size_t i = 0; i < clustering.keys.size(); ++i) {
    const storage::TupleKey key = clustering.keys[i];
    Result<router::PartitionId> cur = routing.GetPrimary(key);
    if (!cur.ok()) continue;
    const uint32_t want = clustering.partition_of[i];
    const uint64_t heat = graph.VertexWeight(key);
    if (heat < config_.min_vertex_weight) {
      if (*cur != want) {
        audit_op(key, PlacementKind::kMigrate, false, "below_min_heat", *cur,
                 want, heat, 0, 0, 1);
      }
      continue;
    }
    if (!config_.replicate_read_heavy) {
      if (*cur != want) {
        audit_op(key, PlacementKind::kMigrate, true, "migrate_to_cluster",
                 *cur, want, heat, 0, 0, 1);
        moves.push_back({key, *cur, want, heat});
      }
      continue;
    }
    Result<router::Placement> placement = routing.GetPlacement(key);
    if (!placement.ok()) continue;

    if (lion != nullptr) {
      // ---- Lion candidate pool: price migrate / replicate / shift with
      // one cost vocabulary and keep the best-net action for this key.
      const uint64_t writes = graph.VertexWrites(key);
      const PullMass mass = pull_mass(key);
      struct Candidate {
        Move move;
        bool predictive = false;
        const char* reason = "";
      };
      std::vector<Candidate> pool;

      // Leader shift (the Lion trigger): a write-hot key whose windowed
      // writes are issued mostly by transactions homed on one *remote*
      // copy-holding partition — the co-access graph attributes every
      // write to the issuing txn's modal home. Swapping primary and
      // replica roles makes that write mass single-node at zero move
      // cost; the demoted primary keeps a copy, so no reader that was
      // local goes remote. The swap's price is the write mass still
      // issued from the current primary, which turns remote. Shifting
      // toward mere *readers* is never priced in: their copies already
      // serve them, and the swap would only re-home the writers.
      // A couple of stray writes make any partition a "dominant" source
      // with share 1.0; staging copies for that noise adds write fan-out
      // with no swap payoff. Demand a real windowed write rate first.
      constexpr uint64_t kShiftMinWriteMass = 4;
      if (writes >= kShiftMinWriteMass) {
        const auto sources = graph.WriteSources(key);
        uint64_t write_mass = 0;
        uint64_t from_cur = 0;
        for (const auto& [p, w] : sources) {
          write_mass += w;
          if (p == *cur) from_cur = w;
        }
        if (!sources.empty() && write_mass >= kShiftMinWriteMass) {
          const uint32_t dominant = sources.front().first;
          const uint64_t dominant_writes = sources.front().second;
          const double share = static_cast<double>(dominant_writes) /
                               static_cast<double>(write_mass);
          // Only an *existing* copy can be promoted (the TM guard refuses
          // to promote a partition holding no copy), and shipping a fresh
          // copy to a write source just to promote it later is a trap:
          // every write 2PCs across all live copies, so the staged copy
          // makes even the dominant source's writes distributed until the
          // swap lands — on slow-deploying strategies, a long poisoned
          // interim. Lion therefore shifts only onto copies its read-side
          // provisioning already placed; a write source without one is
          // the migrate path's business, not the shift's.
          if (dominant != *cur && share >= config_.lion.shift_threshold &&
              placement->HasReplicaOn(dominant)) {
            pool.push_back(
                {{key, *cur, dominant, heat, PlacementKind::kLeaderShift,
                  priced(PlacementKind::kLeaderShift, dominant_writes,
                         from_cur, writes)},
                 false,
                 "shift_write_source"});
          }
        }
      }
      // Migrate / replicate candidates carry the same churn guards the
      // static path learned the hard way (§5): a primary that still pulls
      // a split-threshold share of its key's reads is never migrated away
      // (its readers would all go remote), and a copy already sitting on
      // the clustering label makes re-migration pure churn. Inside those
      // guards the pool prices everything and the best Net() wins, so a
      // qualifying shift can still beat either static action.
      const bool can_copy = read_heavy(key) &&
                            placement->copy_count() < config_.max_copies;
      const bool cur_still_reads =
          can_copy && mass.total > 0 &&
          static_cast<double>(mass.On(*cur)) >
              config_.replica_split_threshold *
                  static_cast<double>(mass.total);
      if (*cur != want && !cur_still_reads) {
        if (!placement->HasReplicaOn(want)) {
          pool.push_back({{key, *cur, want, heat, PlacementKind::kMigrate,
                           priced(PlacementKind::kMigrate, mass.On(want),
                                  mass.On(*cur), writes)},
                          false,
                          mass.total > 0 ? "migrate_to_majority"
                                         : "migrate_to_cluster"});
        }
      } else if (can_copy) {
        // Replica for the heaviest uncovered split reader, with
        // predictive admission: a below-threshold share whose one-step
        // window trend crosses the threshold gets its copy one cycle
        // before the static planner would create it.
        for (const auto& [p, pull] : mass.Sorted()) {
          if (mass.total == 0) break;
          if (p == *cur) continue;
          if (placement->HasReplicaOn(p)) {
            lion->Touch(key, p);  // live copy still pulling: refresh LRU
            continue;
          }
          const double share =
              static_cast<double>(pull) / static_cast<double>(mass.total);
          if (share <= 0.5 * config_.replica_split_threshold) break;
          const double predicted = lion->PredictedShare(key, p, share);
          const bool qualifies =
              static_cast<double>(pull) >
              config_.replica_split_threshold * static_cast<double>(mass.total);
          if (!qualifies && predicted <= config_.replica_split_threshold) {
            continue;
          }
          pool.push_back(
              {{key, *cur, p, heat, PlacementKind::kReplicaCreate,
                priced(PlacementKind::kReplicaCreate, pull, 0, writes)},
               !qualifies,
               "replica_split_reader"});
          break;  // one admission per key per cycle
        }
      }
      if (pool.empty()) continue;
      // Best net score wins; ties prefer the cheaper deployment (shift
      // before migrate before create), then the lower target id.
      const Candidate* best = &pool[0];
      for (const Candidate& c : pool) {
        const double net_c = c.move.cost.Net();
        const double net_b = best->move.cost.Net();
        if (net_c > net_b ||
            (net_c == net_b &&
             (c.move.cost.move_bytes < best->move.cost.move_bytes ||
              (c.move.cost.move_bytes == best->move.cost.move_bytes &&
               c.move.target < best->move.target)))) {
          best = &c;
        }
      }
      if (best->move.kind == PlacementKind::kReplicaCreate) {
        const uint32_t p = best->move.target;
        if (!admit_create(p, key)) {
          lion->CountBudgetDenial();
          audit_op(key, PlacementKind::kReplicaCreate, false,
                   "replica_budget_exhausted", *cur, p, heat, 0,
                   mass.total, placement->copy_count());
          continue;
        }
        if (best->predictive) lion->CountPredictiveCreate();
        lion->Touch(key, p);
      }
      if (best->move.kind == PlacementKind::kLeaderShift) {
        shift_keys.insert(key);
      }
      audit_op(key, best->move.kind, true,
               best->predictive ? "replica_predicted_split_reader"
                                : best->reason,
               best->move.source, best->move.target, heat,
               mass.On(best->move.target), mass.total,
               placement->copy_count());
      moves.push_back(best->move);
      if (best->move.kind == PlacementKind::kReplicaCreate) {
        // One copy per cycle starves wide fan-in: a hub key pulled by many
        // partitions needs its whole split-reader set covered in one
        // generation (as the static path does), or slow-deploying
        // strategies never converge before the workload drifts again.
        uint32_t copies = placement->copy_count() + 1;
        for (const auto& [p, pull] : mass.Sorted()) {
          if (copies >= config_.max_copies) break;
          if (p == *cur || p == best->move.target) continue;
          if (placement->HasReplicaOn(p)) continue;
          if (static_cast<double>(pull) <=
              config_.replica_split_threshold *
                  static_cast<double>(mass.total)) {
            break;  // sorted: nothing below qualifies either
          }
          if (!admit_create(p, key)) {
            lion->CountBudgetDenial();
            audit_op(key, PlacementKind::kReplicaCreate, false,
                     "replica_budget_exhausted", *cur, p, heat, pull,
                     mass.total, placement->copy_count());
            continue;
          }
          audit_op(key, PlacementKind::kReplicaCreate, true,
                   "replica_split_reader", *cur, p, heat, pull, mass.total,
                   placement->copy_count());
          moves.push_back({key, *cur, p, heat, PlacementKind::kReplicaCreate,
                           priced(PlacementKind::kReplicaCreate, pull, 0,
                                  writes)});
          lion->Touch(key, p);
          ++copies;
        }
      }
      continue;
    }

    // ---- Static fan-in path (lion off) ----
    const bool can_copy = read_heavy(key) &&
                          placement->copy_count() < config_.max_copies;
    const PullMass mass = can_copy ? pull_mass(key) : PullMass{};
    const bool cur_still_reads =
        can_copy && mass.total > 0 &&
        static_cast<double>(mass.On(*cur)) >
            config_.replica_split_threshold * static_cast<double>(mass.total);
    if (*cur != want && !cur_still_reads) {
      // Single-sided pull: everything that touches the key lives at
      // `want` now; move the primary with its readers — unless a copy
      // from an earlier generation already satisfies the clustering
      // (re-emitting would churn).
      if (!placement->HasReplicaOn(want)) {
        audit_op(key, PlacementKind::kMigrate, true,
                 mass.total > 0 ? "migrate_to_majority" : "migrate_to_cluster",
                 *cur, want, heat, mass.On(want), mass.total,
                 placement->copy_count());
        moves.push_back({key, *cur, want, heat});
      } else {
        audit_op(key, PlacementKind::kMigrate, false,
                 "replica_already_on_target", *cur, want, heat, mass.On(want),
                 mass.total, placement->copy_count());
      }
      continue;
    }
    if (*cur != want) {
      // cur_still_reads: the clustering wanted the primary elsewhere, but
      // the current partition keeps a split-threshold share of the pull —
      // keep the primary and cover the remote readers with copies below.
      audit_op(key, PlacementKind::kMigrate, false,
               "primary_retained_split_readers", *cur, want, heat,
               mass.On(*cur), mass.total, placement->copy_count());
    }
    // The primary stays put (it either sits with the majority already, or
    // its own partition still reads the key meaningfully). Cover every
    // other partition holding a split-threshold share of the key's pull
    // with a copy, budget permitting — all in one generation, because
    // slow-deploying strategies may only get a few plan generations.
    if (!can_copy) continue;
    uint32_t budget = config_.max_copies - placement->copy_count();
    for (const auto& [p, pull] : mass.Sorted()) {
      // Audit-only tail: once the budget is gone no move can be emitted,
      // but qualifying partitions still get a reject record so explain
      // output shows what the copy budget cut.
      if (budget == 0 && audit_log == nullptr) break;
      if (p == *cur || placement->HasReplicaOn(p)) continue;
      if (static_cast<double>(pull) <=
          config_.replica_split_threshold * static_cast<double>(mass.total)) {
        break;  // sorted: nothing below qualifies either
      }
      if (budget == 0) {
        audit_op(key, PlacementKind::kReplicaCreate, false,
                 "copy_budget_exhausted", *cur, p, heat, pull, mass.total,
                 placement->copy_count());
        continue;
      }
      audit_op(key, PlacementKind::kReplicaCreate, true,
               "replica_split_reader", *cur, p, heat, pull, mass.total,
               placement->copy_count());
      moves.push_back({key, *cur, p, heat, PlacementKind::kReplicaCreate});
      --budget;
    }
  }

  if (config_.replicate_read_heavy && config_.drop_stale_replicas) {
    routing.ForEachReplicated([&](storage::TupleKey key,
                                  const router::Placement& placement) {
      // A key being shifted this generation keeps its copies: the shift's
      // execution guard needs the target copy alive, and the demoted
      // primary is retired by next generation's sweep instead.
      if (lion != nullptr && shift_keys.count(key) > 0) return;
      const uint64_t heat = graph.VertexWeight(key);
      const bool keep_any =
          heat >= config_.min_vertex_weight && read_heavy(key);
      const PullMass mass = keep_any ? deployed_pull_mass(key) : PullMass{};
      for (router::PartitionId rep : placement.replicas) {
        // Hysteresis: a copy survives while its partition keeps at least
        // half the create threshold's share of the key's pull.
        if (keep_any && mass.total > 0 &&
            static_cast<double>(mass.On(rep)) >=
                0.5 * config_.replica_split_threshold *
                    static_cast<double>(mass.total)) {
          audit_op(key, PlacementKind::kReplicaDrop, false,
                   "kept_by_hysteresis", rep, placement.primary, heat,
                   mass.On(rep), mass.total, placement.copy_count());
          continue;
        }
        audit_op(key, PlacementKind::kReplicaDrop, true,
                 keep_any ? "drop_below_share" : "drop_cold_or_write_heavy",
                 rep, placement.primary, heat, mass.On(rep), mass.total,
                 placement.copy_count());
        moves.push_back({key, rep, placement.primary, heat,
                         PlacementKind::kReplicaDrop});
      }
    });
  }

  // Keys must come out sorted (lock-order discipline for pure repartition
  // transactions); a stable sort keeps migration-before-deletion order for
  // a key that has both. No-op for migration-only plans, which are built
  // key-sorted already.
  std::stable_sort(moves.begin(), moves.end(),
                   [](const Move& x, const Move& y) { return x.key < y.key; });

  BuiltPlan out;
  if (config_.max_ops > 0 && moves.size() > config_.max_ops) {
    out.dropped = moves.size() - config_.max_ops;
    std::stable_sort(moves.begin(), moves.end(),
                     [](const Move& x, const Move& y) {
                       if (x.heat != y.heat) return x.heat > y.heat;
                       return x.key < y.key;
                     });
    for (size_t i = config_.max_ops; i < moves.size(); ++i) {
      const Move& m = moves[i];
      audit_op(m.key, m.kind, false, "dropped_by_cap", m.source, m.target,
               m.heat, 0, 0, 0);
    }
    moves.resize(config_.max_ops);
    // Emission order stays key-sorted regardless of the heat cut.
    std::stable_sort(moves.begin(), moves.end(),
                     [](const Move& x, const Move& y) { return x.key < y.key; });
  }

  out.plan.epoch = ids->BeginEpoch();
  out.plan.ops.reserve(moves.size());
  for (const Move& m : moves) {
    repartition::PlacementAction op;
    op.id = ids->Allocate();
    op.kind = m.kind;
    op.key = m.key;
    op.source_partition = m.source;
    op.target_partition = m.target;
    op.cost = m.cost;
    const uint32_t tmpl = catalog_->TemplateOfKey(m.key);
    if (tmpl != workload::TemplateCatalog::kNoTemplate) {
      op.affected_templates.push_back(tmpl);
    }
    out.plan.ops.push_back(std::move(op));
  }
  if (!out.plan.ops.empty()) {
    out.deploy_cost = cost_model_->RepartitionTxnCost(out.plan.ops);
  }
  return out;
}

}  // namespace soap::planner
