#include "core/sharded_dsms.h"

#include <algorithm>
#include <chrono>
#include <future>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/thread_pool.h"
#include "core/experiment.h"
#include "core/rebalance.h"
#include "exec/engine.h"
#include "obs/telemetry.h"

namespace aqsios::core {

double ShardedRunResult::LoadImbalance() const {
  if (shard_stats.empty()) return 1.0;
  double max_busy = 0.0;
  double total_busy = 0.0;
  int populated = 0;
  for (const ShardRunStats& stats : shard_stats) {
    // Shards the hash left without queries never simulate; counting them in
    // the mean would understate it and inflate the ratio (a 4-shard run with
    // one empty shard and three equal ones is balanced, not 4/3-imbalanced).
    if (stats.num_queries == 0) continue;
    ++populated;
    max_busy = std::max(max_busy, stats.busy_seconds);
    total_busy += stats.busy_seconds;
  }
  if (populated == 0 || total_busy <= 0.0) return 1.0;
  return max_busy / (total_busy / static_cast<double>(populated));
}

namespace {

// Placement groups of the elastic runner: whole sharing groups move as one
// (their shared leaf and frozen draws key on the global group id) and every
// unshared query is its own singleton group. The anchor rule matches
// sched::AssignShards, so a group's initial owner is exactly the static hash
// shard of its anchor — rebalance-off placement is the epoch-0 placement.
struct PlacementGroups {
  std::vector<int> group_of_query;
  std::vector<query::QueryId> anchor_of_group;
  int num_groups = 0;
};

PlacementGroups BuildPlacementGroups(const query::GlobalPlan& plan) {
  const int n = plan.num_queries();
  std::vector<query::QueryId> anchor_of_query(static_cast<size_t>(n));
  for (int q = 0; q < n; ++q) {
    anchor_of_query[static_cast<size_t>(q)] = static_cast<query::QueryId>(q);
  }
  for (const query::SharingGroup& group : plan.sharing_groups()) {
    query::QueryId anchor = group.members.front();
    for (query::QueryId member : group.members) {
      anchor = std::min(anchor, member);
    }
    for (query::QueryId member : group.members) {
      anchor_of_query[static_cast<size_t>(member)] = anchor;
    }
  }
  PlacementGroups pg;
  pg.anchor_of_group = anchor_of_query;
  std::sort(pg.anchor_of_group.begin(), pg.anchor_of_group.end());
  pg.anchor_of_group.erase(
      std::unique(pg.anchor_of_group.begin(), pg.anchor_of_group.end()),
      pg.anchor_of_group.end());
  pg.num_groups = static_cast<int>(pg.anchor_of_group.size());
  pg.group_of_query.resize(static_cast<size_t>(n));
  for (int q = 0; q < n; ++q) {
    const auto it = std::lower_bound(pg.anchor_of_group.begin(),
                                     pg.anchor_of_group.end(),
                                     anchor_of_query[static_cast<size_t>(q)]);
    pg.group_of_query[static_cast<size_t>(q)] =
        static_cast<int>(it - pg.anchor_of_group.begin());
  }
  return pg;
}

// The elastic runner (SimulationOptions::rebalance): K engines each hold the
// *full* plan and the global arrival table but deliver only to the placement
// groups they own, and all advance through shared virtual-time epochs. At
// every epoch barrier the RebalanceController folds the per-shard /
// per-group busy deltas into EWMAs and may migrate whole groups hottest ->
// coolest (quiesced handoff of queues + window-join state), and idle shards
// may steal a bounded train of queued stateless work. Everything the
// controller sees — busy seconds on engine virtual clocks, queue depths at
// barriers — is a pure function of (plan, arrivals, policy, K, shard_seed),
// so elastic runs are deterministic and thread-count-invariant, and at K = 1
// the single engine replays the classic run byte for byte.
ShardedRunResult SimulateElasticPlan(
    const query::GlobalPlan& plan, const stream::ArrivalTable& arrivals,
    const sched::PolicyConfig& policy, const SimulationOptions& options,
    const std::vector<obs::EventTracer*>* shard_tracers) {
  const int num_shards = options.shards;
  AQSIOS_CHECK_GE(num_shards, 1);
  AQSIOS_CHECK(options.tracer == nullptr && shard_tracers == nullptr)
      << "elastic rebalancing does not support tracing (a migrated group's "
         "events would interleave across shard trace files)";
  AQSIOS_CHECK(!options.adaptation.enabled)
      << "elastic rebalancing is incompatible with priority adaptation";
  AQSIOS_CHECK(!options.calibration.enabled)
      << "elastic rebalancing is incompatible with calibration (estimator "
         "state cannot migrate with a group)";
  AQSIOS_CHECK(!options.admission.enabled)
      << "elastic rebalancing bypasses the shard router; admission control "
         "is unavailable on this path";
  AQSIOS_CHECK(!options.shed.enabled)
      << "elastic rebalancing is incompatible with load shedding";

  ShardedRunResult sharded;
  sharded.assignment =
      sched::AssignShards(plan, num_shards, options.shard_seed);
  sharded.shard_stats.resize(static_cast<size_t>(num_shards));
  sharded.query_id_maps.resize(static_cast<size_t>(num_shards));

  const PlacementGroups pg = BuildPlacementGroups(plan);
  std::vector<int> owner_of_group(static_cast<size_t>(pg.num_groups));
  for (int g = 0; g < pg.num_groups; ++g) {
    owner_of_group[static_cast<size_t>(g)] =
        sharded.assignment.shard_of_query[static_cast<size_t>(
            pg.anchor_of_group[static_cast<size_t>(g)])];
  }

  obs::TelemetryHub* hub = options.telemetry;
  if (hub != nullptr) {
    AQSIOS_CHECK_GE(hub->num_shards(), num_shards)
        << "telemetry hub has fewer cells than shards";
  }
  for (int s = 0; s < num_shards; ++s) {
    ShardRunStats& stats = sharded.shard_stats[static_cast<size_t>(s)];
    stats.shard = s;
    stats.num_queries = static_cast<int>(
        sharded.assignment.queries_of_shard[static_cast<size_t>(s)].size());
    if (hub != nullptr) hub->SetShardQueries(s, stats.num_queries);
    // Every elastic engine sees the full plan, so its query ids *are* the
    // global ids.
    std::vector<int32_t>& to_global =
        sharded.query_id_maps[static_cast<size_t>(s)];
    to_global.resize(static_cast<size_t>(plan.num_queries()));
    for (int q = 0; q < plan.num_queries(); ++q) {
      to_global[static_cast<size_t>(q)] = q;
    }
  }

  const SimTime min_op_cost = plan.MinOperatorCost();
  std::vector<metrics::QosCollector> collectors;
  collectors.reserve(static_cast<size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) collectors.emplace_back(options.qos);
  std::vector<std::unique_ptr<sched::Scheduler>> schedulers;
  std::vector<std::unique_ptr<exec::Engine>> engines;
  schedulers.reserve(static_cast<size_t>(num_shards));
  engines.reserve(static_cast<size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    exec::EngineConfig config = MakeEngineConfig(options, policy, min_op_cost);
    config.telemetry = hub != nullptr ? hub->cell(s) : nullptr;
    schedulers.push_back(sched::CreateScheduler(policy));
    engines.push_back(std::make_unique<exec::Engine>(
        &plan, &arrivals, config, schedulers.back().get(),
        &collectors[static_cast<size_t>(s)]));
    std::vector<uint8_t> owned(static_cast<size_t>(pg.num_groups), 0);
    for (int g = 0; g < pg.num_groups; ++g) {
      if (owner_of_group[static_cast<size_t>(g)] == s) {
        owned[static_cast<size_t>(g)] = 1;
      }
    }
    engines.back()->ConfigureElastic(pg.group_of_query, pg.num_groups,
                                     std::move(owned));
    engines.back()->Begin();
  }

  const SimTime span =
      arrivals.arrivals.empty() ? 0.0 : arrivals.arrivals.back().time;
  const SimTime epoch = options.rebalance.epoch_seconds > 0.0
                            ? options.rebalance.epoch_seconds
                            : (span > 0.0 ? span / 32.0 : 1.0);
  RebalanceController controller(options.rebalance, num_shards,
                                 pg.num_groups);
  std::vector<double> prev_shard_busy(static_cast<size_t>(num_shards), 0.0);
  std::vector<double> prev_group_busy(static_cast<size_t>(pg.num_groups),
                                      0.0);
  std::vector<double> shard_busy_delta(static_cast<size_t>(num_shards), 0.0);
  std::vector<double> group_busy_delta(static_cast<size_t>(pg.num_groups),
                                       0.0);
  std::vector<uint8_t> drained(static_cast<size_t>(num_shards), 0);
  std::vector<double> wall_ms(static_cast<size_t>(num_shards), 0.0);

  int exec_threads = options.shard_threads > 0 ? options.shard_threads
                                               : ThreadPool::DefaultThreads();
  exec_threads = std::max(1, std::min(exec_threads, num_shards));
  std::unique_ptr<ThreadPool> exec_pool;
  if (exec_threads > 1) exec_pool = std::make_unique<ThreadPool>(exec_threads);

  // Each shard runs independently between barriers (private scheduler,
  // collector, telemetry cell; shared state is const), so epochs may execute
  // on the pool; every migration/steal decision happens on this thread after
  // the barrier joins, from deterministic virtual-time quantities.
  const auto run_epoch = [&](int s, SimTime barrier) {
    const size_t i = static_cast<size_t>(s);
    const auto start = std::chrono::steady_clock::now();
    drained[i] = engines[i]->RunUntil(barrier) ? 1 : 0;
    wall_ms[i] += std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  };

  SimTime barrier = 0.0;
  while (true) {
    barrier += epoch;
    if (exec_pool != nullptr) {
      std::vector<std::future<void>> running;
      running.reserve(static_cast<size_t>(num_shards));
      for (int s = 0; s < num_shards; ++s) {
        running.push_back(
            exec_pool->Submit([&run_epoch, s, barrier] { run_epoch(s, barrier); }));
      }
      for (std::future<void>& f : running) f.get();
    } else {
      for (int s = 0; s < num_shards; ++s) run_epoch(s, barrier);
    }
    bool all_drained = true;
    for (int s = 0; s < num_shards; ++s) {
      if (!drained[static_cast<size_t>(s)]) all_drained = false;
    }
    if (all_drained) break;

    for (int s = 0; s < num_shards; ++s) {
      const size_t i = static_cast<size_t>(s);
      const double busy = engines[i]->busy_time();
      shard_busy_delta[i] = busy - prev_shard_busy[i];
      prev_shard_busy[i] = busy;
    }
    for (int g = 0; g < pg.num_groups; ++g) {
      const size_t i = static_cast<size_t>(g);
      double busy = 0.0;
      for (int s = 0; s < num_shards; ++s) {
        busy += engines[static_cast<size_t>(s)]->group_busy()[i];
      }
      group_busy_delta[i] = busy - prev_group_busy[i];
      prev_group_busy[i] = busy;
    }
    const std::vector<RebalanceController::Migration> moves =
        controller.OnEpoch(shard_busy_delta, group_busy_delta,
                           owner_of_group);
    for (const RebalanceController::Migration& m : moves) {
      exec::Engine::GroupState state =
          engines[static_cast<size_t>(m.from)]->ExtractGroup(m.group);
      engines[static_cast<size_t>(m.to)]->InjectGroup(
          m.group, std::move(state), barrier);
      owner_of_group[static_cast<size_t>(m.group)] = m.to;
      ++sharded.shard_stats[static_cast<size_t>(m.from)].migrations;
    }

    if (options.rebalance.steal && num_shards > 1) {
      for (int thief = 0; thief < num_shards; ++thief) {
        if (engines[static_cast<size_t>(thief)]->queued_tuples() != 0) {
          continue;
        }
        int donor = -1;
        int64_t donor_backlog = 0;
        for (int s = 0; s < num_shards; ++s) {
          if (s == thief) continue;
          const int64_t backlog =
              engines[static_cast<size_t>(s)]->queued_tuples();
          if (backlog >= options.rebalance.steal_min_backlog &&
              backlog > donor_backlog) {
            donor = s;
            donor_backlog = backlog;
          }
        }
        if (donor < 0) continue;
        int unit = -1;
        std::vector<sched::QueueEntry> entries;
        if (engines[static_cast<size_t>(donor)]->ExtractStolenTrain(
                options.rebalance.steal_max_tuples, &unit, &entries)) {
          engines[static_cast<size_t>(thief)]->InjectStolenTrain(
              unit, entries, barrier);
          ++sharded.shard_stats[static_cast<size_t>(thief)].steals;
        }
      }
    }

    if (hub != nullptr) {
      std::vector<int> owned_queries(static_cast<size_t>(num_shards), 0);
      for (int q = 0; q < plan.num_queries(); ++q) {
        ++owned_queries[static_cast<size_t>(
            owner_of_group[static_cast<size_t>(
                pg.group_of_query[static_cast<size_t>(q)])])];
      }
      for (int s = 0; s < num_shards; ++s) {
        const size_t i = static_cast<size_t>(s);
        const ShardRunStats& stats = sharded.shard_stats[i];
        hub->SetShardQueries(s, owned_queries[i]);
        hub->SetRouted(s, engines[i]->elastic_arrivals_routed());
        hub->SetMigrations(s, stats.migrations);
        hub->SetSteals(s, stats.steals);
      }
    }
  }

  std::vector<exec::RunCounters> counters(static_cast<size_t>(num_shards));
  std::vector<int> owned_queries(static_cast<size_t>(num_shards), 0);
  for (int q = 0; q < plan.num_queries(); ++q) {
    ++owned_queries[static_cast<size_t>(owner_of_group[static_cast<size_t>(
        pg.group_of_query[static_cast<size_t>(q)])])];
  }
  for (int s = 0; s < num_shards; ++s) {
    const size_t i = static_cast<size_t>(s);
    counters[i] = engines[i]->Finish();
    ShardRunStats& stats = sharded.shard_stats[i];
    stats.num_queries = owned_queries[i];
    stats.arrivals = engines[i]->elastic_arrivals_routed();
    stats.wall_ms = wall_ms[i];
    stats.max_rss_kb = CurrentPeakRssKb();
    stats.busy_seconds = counters[i].busy_time;
    stats.end_seconds = counters[i].end_time;
    if (hub != nullptr) {
      hub->SetShardQueries(s, stats.num_queries);
      hub->SetRouted(s, stats.arrivals);
      hub->SetMigrations(s, stats.migrations);
      hub->SetSteals(s, stats.steals);
    }
  }

  sharded.result.policy_name = schedulers.front()->name();
  metrics::QosCollector merged(options.qos);
  bool first = true;
  for (int s = 0; s < num_shards; ++s) {
    const size_t i = static_cast<size_t>(s);
    merged.MergeFrom(collectors[i], sharded.query_id_maps[i]);
    if (first) {
      sharded.result.counters = counters[i];
      first = false;
    } else {
      sharded.result.counters.Merge(counters[i]);
    }
  }
  sharded.result.qos = merged.Snapshot();
  sharded.result.qos.shed_count = sharded.result.counters.tuples_shed;
  sharded.result.qos.shed_ratio = sharded.result.counters.ShedRatio();
  return sharded;
}

}  // namespace

ShardedRunResult SimulateShardedPlan(
    const query::GlobalPlan& plan, const stream::ArrivalTable& arrivals,
    const sched::PolicyConfig& policy, const SimulationOptions& options,
    const std::vector<obs::EventTracer*>* shard_tracers) {
  const int num_shards = options.shards;
  AQSIOS_CHECK_GE(num_shards, 1);
  if (options.rebalance.enabled) {
    return SimulateElasticPlan(plan, arrivals, policy, options,
                               shard_tracers);
  }
  if (shard_tracers != nullptr) {
    AQSIOS_CHECK_EQ(shard_tracers->size(), static_cast<size_t>(num_shards));
  }

  ShardedRunResult sharded;
  sharded.assignment =
      sched::AssignShards(plan, num_shards, options.shard_seed);
  sharded.query_id_maps.resize(static_cast<size_t>(num_shards));
  sharded.shard_stats.resize(static_cast<size_t>(num_shards));
  obs::TelemetryHub* hub = options.telemetry;
  if (hub != nullptr) {
    AQSIOS_CHECK_GE(hub->num_shards(), num_shards)
        << "telemetry hub has fewer cells than shards";
  }
  for (int s = 0; s < num_shards; ++s) {
    ShardRunStats& stats = sharded.shard_stats[static_cast<size_t>(s)];
    stats.shard = s;
    stats.num_queries = static_cast<int>(
        sharded.assignment.queries_of_shard[static_cast<size_t>(s)].size());
    if (hub != nullptr) hub->SetShardQueries(s, stats.num_queries);
  }

  // The §9.2 overhead unit is system-wide: every shard charges the *full*
  // plan's cheapest operator cost, not its sub-plan's.
  const SimTime min_op_cost = plan.MinOperatorCost();

  // Sub-plans: local dense query ids for the engine's tables; global
  // SharingGroup::id preserved so shared-leaf frozen draws are
  // shard-invariant. A group's members all share the group anchor, so the
  // whole group lands on one shard by construction.
  std::vector<query::GlobalPlan> sub_plans(static_cast<size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    const std::vector<query::QueryId>& members =
        sharded.assignment.queries_of_shard[static_cast<size_t>(s)];
    if (members.empty()) continue;
    std::vector<int> local_of_global(
        static_cast<size_t>(plan.num_queries()), -1);
    std::vector<query::CompiledQuery> compiled;
    compiled.reserve(members.size());
    std::vector<int32_t>& to_global =
        sharded.query_id_maps[static_cast<size_t>(s)];
    to_global.reserve(members.size());
    for (query::QueryId global : members) {
      const query::CompiledQuery& q = plan.query(global);
      query::QuerySpec spec = q.spec();
      local_of_global[static_cast<size_t>(global)] =
          static_cast<int>(compiled.size());
      spec.id = static_cast<query::QueryId>(compiled.size());
      to_global.push_back(global);
      compiled.emplace_back(std::move(spec), q.selectivity_mode());
    }
    std::vector<query::SharingGroup> groups;
    for (const query::SharingGroup& group : plan.sharing_groups()) {
      if (sharded.assignment.shard_of_query[static_cast<size_t>(
              group.members.front())] != s) {
        continue;
      }
      query::SharingGroup local = group;  // keeps the global group id
      for (query::QueryId& member : local.members) {
        member = local_of_global[static_cast<size_t>(member)];
        AQSIOS_CHECK_GE(member, 0) << "sharing group split across shards";
      }
      groups.push_back(std::move(local));
    }
    sub_plans[static_cast<size_t>(s)] = query::GlobalPlan(
        std::move(compiled), std::move(groups), plan.num_streams());
  }

  // Arrival routing. All K consumers must drain concurrently while the
  // producer pushes (a full ring blocks the producer), so the collect pool
  // has exactly K workers and the caller thread produces.
  std::vector<stream::ArrivalTable> sub_arrivals(
      static_cast<size_t>(num_shards));
  {
    sched::ShardRouter router(plan, sharded.assignment);
    // Admission control sits on the producer side of the rings: rejected
    // arrivals are decided purely by the time-ordered table walk, so the
    // admitted sub-tables — and therefore all downstream results — stay
    // deterministic regardless of ring/thread timing.
    std::unique_ptr<sched::AdmissionController> admission;
    if (options.admission.enabled) {
      admission = std::make_unique<sched::AdmissionController>(
          plan, sharded.assignment, options.admission);
      router.AttachAdmission(admission.get());
    }
    ThreadPool collect_pool(num_shards);
    std::vector<std::future<void>> draining;
    draining.reserve(static_cast<size_t>(num_shards));
    for (int s = 0; s < num_shards; ++s) {
      draining.push_back(collect_pool.Submit([&router, &sub_arrivals, s] {
        router.Collect(s, &sub_arrivals[static_cast<size_t>(s)]);
      }));
    }
    router.Route(arrivals);
    for (std::future<void>& f : draining) f.get();
    for (int s = 0; s < num_shards; ++s) {
      ShardRunStats& stats = sharded.shard_stats[static_cast<size_t>(s)];
      stats.arrivals = router.routed_counts()[static_cast<size_t>(s)];
      if (admission != nullptr) {
        stats.admission_dropped =
            admission->dropped_per_shard()[static_cast<size_t>(s)];
      }
      // The routing/admission pass runs before any shard engine; publish
      // its per-shard outcome into the hub so the sampler sees routed and
      // rejected counts for the whole execution phase.
      if (hub != nullptr) {
        hub->SetRouted(s, stats.arrivals);
        hub->SetAdmissionRejected(s, stats.admission_dropped);
      }
    }
  }

  // Execute the shards. Each run is single-threaded and deterministic over
  // its sub-plan + sub-table, so dispatch order and thread count change
  // only wall_ms / max_rss_kb.
  std::vector<metrics::QosCollector> collectors;
  collectors.reserve(static_cast<size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) collectors.emplace_back(options.qos);
  std::vector<exec::RunCounters> counters(static_cast<size_t>(num_shards));

  const auto run_shard = [&](int s) {
    const size_t i = static_cast<size_t>(s);
    const auto start = std::chrono::steady_clock::now();
    exec::EngineConfig config = MakeEngineConfig(options, policy, min_op_cost);
    config.tracer =
        shard_tracers != nullptr ? (*shard_tracers)[i] : nullptr;
    config.telemetry = hub != nullptr ? hub->cell(s) : nullptr;
    std::unique_ptr<sched::Scheduler> scheduler =
        sched::CreateScheduler(policy);
    exec::Engine engine(&sub_plans[i], &sub_arrivals[i], config,
                        scheduler.get(), &collectors[i]);
    // The sub-plan renumbers queries to local dense ids; frozen draws and
    // drift membership key on the global ids, so every tuple meets the
    // same filter outcomes and drift factors as in the single-shard run.
    engine.SetGlobalQueryIds(sharded.query_id_maps[i]);
    counters[i] = engine.Run();
    ShardRunStats& stats = sharded.shard_stats[i];
    stats.wall_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    stats.max_rss_kb = CurrentPeakRssKb();
    stats.busy_seconds = counters[i].busy_time;
    stats.end_seconds = counters[i].end_time;
  };

  int exec_threads = options.shard_threads > 0 ? options.shard_threads
                                               : ThreadPool::DefaultThreads();
  exec_threads = std::max(1, std::min(exec_threads, num_shards));
  const auto shard_has_work = [&sharded](int s) {
    return sharded.shard_stats[static_cast<size_t>(s)].num_queries > 0;
  };
  if (exec_threads <= 1) {
    for (int s = 0; s < num_shards; ++s) {
      if (shard_has_work(s)) run_shard(s);
    }
  } else {
    ThreadPool exec_pool(exec_threads);
    std::vector<std::future<void>> running;
    for (int s = 0; s < num_shards; ++s) {
      if (!shard_has_work(s)) continue;
      running.push_back(exec_pool.Submit([&run_shard, s] { run_shard(s); }));
    }
    for (std::future<void>& f : running) f.get();
  }

  // Deterministic aggregation: shards are merged in shard order, and every
  // aggregate merges exactly (see RunCounters::Merge / QosCollector::
  // MergeFrom), so the merged result is independent of execution timing.
  sharded.result.policy_name = sched::CreateScheduler(policy)->name();
  metrics::QosCollector merged(options.qos);
  bool first = true;
  for (int s = 0; s < num_shards; ++s) {
    if (!shard_has_work(s)) continue;
    const size_t i = static_cast<size_t>(s);
    merged.MergeFrom(collectors[i], sharded.query_id_maps[i]);
    if (first) {
      sharded.result.counters = counters[i];
      first = false;
    } else {
      sharded.result.counters.Merge(counters[i]);
    }
  }
  sharded.result.qos = merged.Snapshot();
  // Shed tuples never reached any shard's collector; surface the merged
  // loss on the snapshot, mirroring the single-shard path.
  sharded.result.qos.shed_count = sharded.result.counters.tuples_shed;
  sharded.result.qos.shed_ratio = sharded.result.counters.ShedRatio();
  return sharded;
}

ShardedRunResult SimulateSharded(
    const query::Workload& workload, const sched::PolicyConfig& policy,
    const SimulationOptions& options,
    const std::vector<obs::EventTracer*>* shard_tracers) {
  return SimulateShardedPlan(workload.plan, workload.arrivals, policy,
                             options, shard_tracers);
}

}  // namespace aqsios::core
