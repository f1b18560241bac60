#include "harness/multi_entity.h"

#include <string>

#include "common/logging.h"
#include "common/macros.h"
#include "core/app_manager.h"
#include "core/directory.h"
#include "harness/experiment.h"
#include "harness/parallel_runner.h"
#include "sim/cluster.h"
#include "workload/request_stream.h"
#include "workload/transform.h"

namespace samya::harness {

namespace {

constexpr int kRegions = 5;

/// Shard RNG root: a function of (base seed, entity) only, so a shard's
/// entire event stream is fixed before any worker touches it. The multiplier
/// is a prime far above any realistic entity count, keeping distinct
/// (seed, entity) pairs from colliding.
uint64_t ShardSeed(uint64_t base, uint32_t entity) {
  return base * 1000003ull + entity;
}

}  // namespace

EntityShardResult RunEntityShard(const MultiEntityOptions& opts,
                                 uint32_t entity) {
  SAMYA_CHECK_GE(opts.sites_per_entity, 1);
  const uint64_t shard_seed = ShardSeed(opts.seed, entity);
  const int n = opts.sites_per_entity;

  // Per-entity workload stream: the same generator family as the
  // single-entity harness, but seeded per entity so every entity sees its
  // own demand curve (distinct noise, spikes, and request timings).
  workload::AzureTraceOptions topts = opts.trace;
  topts.seed = shard_seed;
  auto trace = workload::GenerateAzureTrace(topts);
  if (opts.load_scale != 1.0) {
    trace = workload::ScaleCounts(trace, opts.load_scale, shard_seed + 100);
  }
  const auto compressed = std::make_shared<const workload::DemandTrace>(
      workload::CompressTime(trace, opts.compress_factor));
  const Duration day = compressed->interval() * 288;

  sim::Cluster cluster(shard_seed);

  // The entity's site group, round-robin across regions, pools summing to
  // exactly M_e (the first max%n sites absorb the division remainder).
  std::vector<sim::NodeId> site_ids;
  for (int i = 0; i < n; ++i) site_ids.push_back(i);
  std::vector<core::Site*> sites;
  for (int i = 0; i < n; ++i) {
    core::SiteOptions sopts = opts.site_template;
    sopts.sites = site_ids;
    sopts.initial_tokens = InitialSiteTokens(opts.tokens_per_entity, n, i);
    sopts.seasonal_period = 288;
    if (sopts.enable_prediction && sopts.training_series.empty()) {
      const int r = i % kRegions;
      auto shifted = workload::PhaseShift(*compressed, day * r / kRegions);
      sopts.training_series = shifted.CreationSeries();
      const int sites_in_region = (n + kRegions - 1 - r) / kRegions;
      if (sites_in_region > 1) {
        for (double& v : sopts.training_series) {
          v /= static_cast<double>(sites_in_region);
        }
      }
    }
    auto* site = cluster.AddNode<core::Site>(
        sim::kPaperRegions[static_cast<size_t>(i % kRegions)], sopts);
    site->set_storage(cluster.StorageFor(site->id()));
    sites.push_back(site);
  }

  // One app manager per region: the region's own sites first (rotated
  // over), the rest as failover targets; batching per the deployment knobs.
  std::vector<core::AppManager*> ams;
  std::vector<sim::NodeId> am_by_region(kRegions, sim::kInvalidNode);
  for (int r = 0; r < kRegions; ++r) {
    core::AppManagerOptions aopts;
    for (int i = r; i < n; i += kRegions) {
      aopts.sites.push_back(site_ids[static_cast<size_t>(i)]);
    }
    aopts.rotate_over = aopts.sites.size();
    for (int i = 0; i < n; ++i) {
      if (i % kRegions != r) {
        aopts.sites.push_back(site_ids[static_cast<size_t>(i)]);
      }
    }
    aopts.batch_requests = opts.batch_requests;
    aopts.batch_window = opts.batch_window;
    aopts.max_batch = opts.max_batch;
    auto* am = cluster.AddNode<core::AppManager>(
        sim::kPaperRegions[static_cast<size_t>(r)], aopts);
    ams.push_back(am);
    am_by_region[static_cast<size_t>(r)] = am->id();
  }

  // Directory + per-region router front doors (§3.1). Within a shard only
  // this entity is registered; requests carrying any other entity id are
  // rejected by the router, which the tests use to verify routing.
  core::EntityDirectory directory;
  directory.Register(entity, am_by_region);
  std::vector<core::EntityRouter*> routers;
  std::vector<sim::NodeId> router_by_region(kRegions, sim::kInvalidNode);
  for (int r = 0; r < kRegions; ++r) {
    core::EntityRouterOptions ropts;
    ropts.directory = &directory;
    ropts.region_index = r;
    auto* router = cluster.AddNode<core::EntityRouter>(
        sim::kPaperRegions[static_cast<size_t>(r)], ropts);
    routers.push_back(router);
    router_by_region[static_cast<size_t>(r)] = router->id();
  }

  // Five regional clients, each streaming its phase-shifted slice of the
  // entity's trace and stamping the entity id on every request.
  std::vector<WorkloadClient*> clients;
  for (int r = 0; r < kRegions; ++r) {
    workload::RequestStreamOptions ropts;
    ropts.read_ratio = opts.read_ratio;
    ropts.horizon = opts.duration;
    ropts.seed = shard_seed + 7 + static_cast<uint64_t>(r);

    WorkloadClientOptions copts;
    copts.servers = {router_by_region[static_cast<size_t>(r)]};
    copts.request_timeout = opts.client_timeout;
    copts.max_attempts = opts.client_attempts;
    copts.entity = entity;
    auto* client = cluster.AddNode<WorkloadClient>(
        sim::kPaperRegions[static_cast<size_t>(r)], copts,
        workload::RequestStream(compressed, day * r / kRegions, ropts));
    clients.push_back(client);
  }

  Logger::SetThreadSimClock(cluster.env().now_ptr());
  cluster.StartAll();
  cluster.env().RunUntil(opts.duration + Seconds(10));

  EntityShardResult result;
  result.entity = entity;
  for (auto* client : clients) result.clients.Merge(client->stats());
  for (auto* site : sites) {
    result.tokens_left += site->tokens_left();
    result.redistributions += site->stats().proactive_redistributions +
                              site->stats().reactive_redistributions;
  }
  for (auto* am : ams) {
    result.am_relayed += am->relayed();
    result.batches_sent += am->batches_sent();
    result.batched_requests += am->batched_requests();
  }
  for (auto* router : routers) {
    result.routed += router->routed();
    result.unknown_entity += router->unknown_entity();
  }
  result.events_executed = cluster.env().events_executed();
  result.messages_sent = cluster.net().stats().messages_sent;
  result.bytes_sent = cluster.net().stats().bytes_sent;

  if (opts.collect_metrics) {
    auto mr = std::make_shared<obs::MetricsRegistry>();
    obs::MetricLabels l;
    // The entity id rides in the `site` label slot: "entity.*" families are
    // entity-scoped, never site-scoped, so the slot is unambiguous.
    l.site = static_cast<int32_t>(entity);
    mr->GetCounter("entity.committed_acquires", l)
        ->Add(result.clients.committed_acquires);
    mr->GetCounter("entity.committed_releases", l)
        ->Add(result.clients.committed_releases);
    mr->GetCounter("entity.committed_reads", l)
        ->Add(result.clients.committed_reads);
    mr->GetCounter("entity.rejected", l)->Add(result.clients.rejected);
    mr->GetCounter("entity.dropped", l)->Add(result.clients.dropped);
    mr->GetCounter("entity.sent", l)->Add(result.clients.sent);
    mr->GetCounter("entity.routed", l)->Add(result.routed);
    mr->GetCounter("entity.unknown_entity", l)->Add(result.unknown_entity);
    mr->GetCounter("entity.am_relayed", l)->Add(result.am_relayed);
    mr->GetCounter("entity.batches_sent", l)->Add(result.batches_sent);
    mr->GetCounter("entity.batched_requests", l)
        ->Add(result.batched_requests);
    mr->GetCounter("entity.redistributions", l)->Add(result.redistributions);
    mr->GetCounter("entity.messages_sent", l)->Add(result.messages_sent);
    mr->GetCounter("entity.events_executed", l)->Add(result.events_executed);
    mr->GetGauge("entity.tokens_left", l)->Set(result.tokens_left);
    mr->GetHistogram("entity.latency_us", l)->Merge(result.clients.latency);
    mr->GetHistogram("entity.acquire_latency_us", l)
        ->Merge(result.clients.acquire_latency);
    result.metrics = mr;
  }
  Logger::SetThreadSimClock(nullptr);
  return result;
}

JsonValue EntityShardResult::ToJson() const {
  JsonValue o = JsonValue::MakeObject();
  o.Set("entity", static_cast<uint64_t>(entity));
  o.Set("committed_acquires", clients.committed_acquires);
  o.Set("committed_releases", clients.committed_releases);
  o.Set("committed_reads", clients.committed_reads);
  o.Set("rejected", clients.rejected);
  o.Set("dropped", clients.dropped);
  o.Set("sent", clients.sent);
  o.Set("skipped_releases", clients.skipped_releases);
  o.Set("latency", clients.latency.ToJson());
  o.Set("acquire_latency", clients.acquire_latency.ToJson());
  o.Set("events_executed", events_executed);
  o.Set("messages_sent", messages_sent);
  o.Set("bytes_sent", bytes_sent);
  o.Set("routed", routed);
  o.Set("unknown_entity", unknown_entity);
  o.Set("am_relayed", am_relayed);
  o.Set("batches_sent", batches_sent);
  o.Set("batched_requests", batched_requests);
  o.Set("tokens_left", tokens_left);
  o.Set("redistributions", redistributions);
  return o;
}

MultiEntityResult RunMultiEntity(const MultiEntityOptions& opts) {
  SAMYA_CHECK_GE(opts.num_entities, 1);
  const auto n = static_cast<size_t>(opts.num_entities);
  MultiEntityResult result;
  result.per_entity.resize(n);
  RunIndexed(n, opts.threads, [&](size_t i) {
    Logger::SetThreadPrefix("entity " + std::to_string(i));
    result.per_entity[i] = RunEntityShard(opts, static_cast<uint32_t>(i));
    Logger::SetThreadPrefix("");
  });

  // Fold in entity order — fixed regardless of which worker ran what, so
  // the aggregate (and the merged registry) is itself deterministic.
  for (const EntityShardResult& shard : result.per_entity) {
    result.aggregate.Merge(shard.clients);
    result.events_executed += shard.events_executed;
    result.messages_sent += shard.messages_sent;
    result.bytes_sent += shard.bytes_sent;
    result.am_relayed += shard.am_relayed;
    result.batches_sent += shard.batches_sent;
    result.batched_requests += shard.batched_requests;
    if (shard.metrics != nullptr) {
      if (result.metrics == nullptr) {
        result.metrics = std::make_shared<obs::MetricsRegistry>();
      }
      result.metrics->Merge(*shard.metrics);
    }
  }
  return result;
}

}  // namespace samya::harness
