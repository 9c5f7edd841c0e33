#include "scenario_runner.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "common/json.h"
#include "obs/journal.h"
#include "obs/metrics.h"

namespace corropt::bench {

namespace {

void write_time_series(common::JsonWriter& json, const char* name,
                       const std::vector<sim::TimePoint>& series) {
  std::vector<double> times, values;
  times.reserve(series.size());
  values.reserve(series.size());
  for (const sim::TimePoint& p : series) {
    times.push_back(static_cast<double>(p.time));
    values.push_back(p.value);
  }
  json.key(name).begin_object();
  json.member("time_s", times);
  json.member("value", values);
  json.end_object();
}

void write_metrics(common::JsonWriter& json,
                   const sim::SimulationMetrics& metrics,
                   const MetricsJsonOptions& options) {
  json.key("metrics").begin_object();
  json.member("integrated_penalty", metrics.integrated_penalty);
  json.member("mean_tor_fraction", metrics.mean_tor_fraction);
  json.member("faults_injected", metrics.faults_injected);
  json.member("tickets_opened", metrics.tickets_opened);
  json.member("repair_attempts", metrics.repair_attempts);
  json.member("first_attempts", metrics.first_attempts);
  json.member("first_attempt_successes", metrics.first_attempt_successes);
  json.member("first_attempt_accuracy", metrics.first_attempt_accuracy());
  json.member("redetections", metrics.redetections);
  json.member("polled_detections", metrics.polled_detections);
  json.member("mean_detection_latency_s", metrics.mean_detection_latency_s);
  json.member("mean_ticket_resolution_s", metrics.mean_ticket_resolution_s);
  json.member("maintenance_windows", metrics.maintenance_windows);
  json.member("maintenance_capacity_violations",
              metrics.maintenance_capacity_violations);
  json.member("collateral_link_seconds", metrics.collateral_link_seconds);
  json.member("undisabled_detections", metrics.undisabled_detections);
  sim::write_controller_json(json, metrics.controller);
  if (options.include_hourly_penalty) {
    json.member("hourly_penalty", metrics.hourly_penalty);
  }
  if (options.include_tor_series) {
    write_time_series(json, "worst_tor_fraction", metrics.worst_tor_fraction);
    write_time_series(json, "disabled_links", metrics.disabled_links);
  }
  json.end_object();
}

}  // namespace

ScenarioRunner::ScenarioRunner(std::size_t threads) : pool_(threads) {}

std::vector<ScenarioResult> ScenarioRunner::run(
    const std::vector<ScenarioJob>& jobs) {
  std::vector<ScenarioResult> results(jobs.size());
  common::parallel_for_each(pool_, jobs.size(), [&jobs, &results](
                                                    std::size_t i) {
    results[i] = run_job(jobs[i]);
  });
  return results;
}

std::vector<ScenarioResult> ScenarioRunner::run_branched(
    const std::vector<ScenarioJob>& jobs, const BranchedSweep& sweep) {
  if (jobs.empty()) return {};
  const ScenarioJob& base_job = jobs.at(sweep.base);

  // Shared input, computed once: the trace all jobs replay.
  const std::vector<trace::TraceEvent> events = sim::scenario_trace(base_job);

  sim::StopPredicate stop =
      sweep.make_stop ? sweep.make_stop(events) : sim::StopPredicate{};
  if (!stop) {
    // No boundary requested: freeze immediately (the begin_run boundary).
    stop = [](const sim::MitigationSimulation&) { return true; };
  }
  // When the sweep collects obs the prefix runs with its own sink, so the
  // checkpoint carries the journal/registry prefix into every branch,
  // which replays it into the branch's sink on restore.
  const sim::Checkpoint checkpoint =
      sim::checkpoint_scenario(base_job, events, stop);
  if (checkpoint.empty()) {
    // The prefix covered the whole horizon — nothing left to fork.
    return run(jobs);
  }

  std::vector<ScenarioResult> results(jobs.size());
  common::parallel_for_each(pool_, jobs.size(), [&](std::size_t i) {
    results[i] = ScenarioResult{
        sim::run_scenario(jobs[i], &events, &checkpoint), jobs[i].tags};
  });
  return results;
}

ScenarioResult run_job(const ScenarioJob& job) {
  return ScenarioResult{sim::run_scenario(job), job.tags};
}

std::uint64_t derive_seed(std::uint64_t base, std::uint64_t index) {
  // One splitmix64 step over a golden-ratio stride; the same finalizer
  // common::Rng uses for seeding, so nearby (base, index) pairs yield
  // unrelated streams.
  std::uint64_t z = base + 0x9e3779b97f4a7c15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::size_t configured_thread_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

void write_output(const std::string& path, std::string_view items,
                  const std::function<std::size_t(std::ostream&)>& body) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    std::exit(1);
  }
  const std::size_t count = body(out);
  out.close();
  if (!out) {
    std::fprintf(stderr, "write to %s failed\n", path.c_str());
    std::exit(1);
  }
  std::printf("wrote %s (%zu %.*s)\n", path.c_str(), count,
              static_cast<int>(items.size()), items.data());
}

void write_metrics_json(const std::string& path, const std::string& exhibit,
                        const std::string& generator, std::size_t threads,
                        const std::vector<ScenarioResult>& results,
                        const MetricsJsonOptions& options) {
  write_output(path, "scenarios", [&](std::ostream& out) {
    common::JsonWriter json(out);
    common::begin_document(json, "corropt-bench-metrics/1", exhibit,
                           generator, threads);
    json.key("scenarios").begin_array();
    for (const ScenarioResult& result : results) {
      json.begin_object();
      json.member("name", result.name);
      json.key("tags").begin_object();
      for (const auto& [k, v] : result.tags) json.member(k, v);
      json.end_object();
      json.member("link_count", result.link_count);
      json.member("wall_seconds", result.wall_seconds);
      write_metrics(json, result.metrics, options);
      json.end_object();
    }
    json.end_array();
    json.end_object();
    return results.size();
  });
}

void write_obs_jsonl(const std::string& path,
                     const std::vector<const sim::ScenarioRun*>& runs) {
  write_output(path, "events", [&](std::ostream& out) {
    std::size_t events = 0;
    for (const sim::ScenarioRun* run : runs) {
      if (!run->obs) continue;
      for (const obs::Event& event : run->obs->journal) {
        obs::write_event_jsonl(out, event, run->name);
        out << '\n';
      }
      events += run->obs->journal.size();
    }
    return events;
  });
}

void write_obs_metrics_json(const std::string& path,
                            const std::string& exhibit,
                            const std::string& generator, std::size_t threads,
                            const std::vector<const sim::ScenarioRun*>& runs,
                            bool include_timers) {
  write_output(path, "scenarios", [&](std::ostream& out) {
    common::JsonWriter json(out);
    common::begin_document(json, "corropt-obs-metrics/1", exhibit, generator,
                           threads);
    json.key("scenarios").begin_array();
    std::size_t scenarios = 0;
    for (const sim::ScenarioRun* run : runs) {
      if (!run->obs) continue;
      json.begin_object();
      json.member("name", run->name);
      json.member("journal_events", run->obs->journal.size());
      json.member("journal_dropped", run->obs->journal_dropped);
      run->obs->metrics.write_json(json, include_timers);
      json.end_object();
      ++scenarios;
    }
    json.end_array();
    json.end_object();
    return scenarios;
  });
}

}  // namespace corropt::bench
