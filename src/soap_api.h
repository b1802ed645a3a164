// SOAP public API — the one header downstream code includes.
//
// Everything a user program needs to build, run, extend and inspect a SOAP
// experiment is re-exported here; the per-layer headers underneath remain
// include-able individually but are implementation detail as far as the
// stability contract goes. Stable entry points, by task:
//
//   Run an experiment
//     engine::ExperimentConfig   grouped configuration (WorkloadOptions,
//                                DeploymentOptions, FaultOptions,
//                                PlannerOptions, ReplicaOptions,
//                                ScaleOptions, CheckOptions, ObsOptions)
//                                with Validate(); each setting has one
//                                field: replica thresholds and lion
//                                (lion::LionConfig) live in
//                                PlannerOptions::builder
//     engine::Experiment         builds the whole stack, Run() to completion
//     engine::ExperimentResult   the per-interval series + counters +
//                                Summary()
//     engine::ParallelRunner     fan independent configs across threads
//                                with deterministic, input-ordered results
//
//   Build a CLI frontend
//     Flags                      --key=value parsing (src/common/flags.h)
//     engine::FlagTable          declarative flag table shared by soap_run
//                                and perfbench: generated --help,
//                                near-miss unknown-flag errors,
//                                ExperimentFlagTable() bindings
//
//   Describe a placement change
//     repartition::PlacementAction  the single public planner-op type: a
//                                kind (kMigrate, kReplicaCreate,
//                                kReplicaDrop, kLeaderShift), the key, the
//                                source/target partitions, and a uniform
//                                PlacementCost breakdown (move_bytes,
//                                tpc_savings, freshness_penalty).
//     lion::Provisioner          adaptive replica budget + predictive
//                                admission backing --lion
//
//   Assemble the stack manually (what Experiment::Run does internally)
//     sim::Simulator             deterministic discrete-event clock
//     cluster::Cluster           nodes + storage + network + 2PC + routing
//     cluster::TransactionManager transaction execution; writes ship
//                                synchronously to live replica holders
//     core::Repartitioner        plan deployment with the five strategies
//     core::Scheduler            base class for user-defined strategies
//     planner::Planner           online co-access-graph replanning
//     replica::ReplicaManager    primary-copy failover and catch-up
//     fault::FaultInjector       crash/network fault injection from a spec
//
//   Observe a run
//     obs::MetricsRegistry       counters/gauges/histograms, Prometheus and
//                                JSONL export
//     obs::TxnTracer             per-transaction phase tracing, Chrome JSON
//
// The namespaces mirror the directory layout (soap::engine, soap::core,
// soap::cluster, ...); `using namespace soap;` in a program is enough to
// reach all of them qualified by layer.

#ifndef SOAP_SOAP_API_H_
#define SOAP_SOAP_API_H_

#include "src/common/flags.h"             // IWYU pragma: export
#include "src/common/histogram.h"         // IWYU pragma: export
#include "src/common/logging.h"           // IWYU pragma: export
#include "src/common/series.h"            // IWYU pragma: export
#include "src/core/soap.h"                // IWYU pragma: export
#include "src/engine/experiment.h"        // IWYU pragma: export
#include "src/engine/flag_table.h"        // IWYU pragma: export
#include "src/engine/parallel_runner.h"   // IWYU pragma: export
#include "src/fault/fault_injector.h"     // IWYU pragma: export
#include "src/lion/provisioner.h"         // IWYU pragma: export
#include "src/planner/planner.h"          // IWYU pragma: export
#include "src/repartition/operation.h"    // IWYU pragma: export
#include "src/repartition/replication.h"  // IWYU pragma: export
#include "src/replica/replica_manager.h"  // IWYU pragma: export

#endif  // SOAP_SOAP_API_H_
