#include "cpm/sim/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "cpm/common/error.hpp"
#include "cpm/sim/event_heap.hpp"

namespace cpm::sim {

using queueing::Discipline;

void validate_config(const SimConfig& config) {
  require(!config.stations.empty(), "sim: need at least one station");
  require(!config.classes.empty(), "sim: need at least one class");
  require(config.end_time > config.warmup_time, "sim: end_time must exceed warmup");
  for (const auto& s : config.stations) {
    if (s.servers < 1)
      throw Error("sim: station '" + s.name + "' needs >= 1 server");
    if (!(s.idle_watts >= units::watts(0.0) &&
          s.dynamic_watts >= units::watts(0.0)))
      throw Error("sim: station '" + s.name + "' has negative power");
    if (!(s.speed > 0.0))
      throw Error("sim: station '" + s.name + "' needs positive speed");
    if (s.capacity != -1 && s.capacity < s.servers)
      throw Error("sim: station '" + s.name + "' capacity below server count");
  }
  for (const auto& c : config.classes) {
    if (!(c.rate >= units::per_second(0.0)))
      throw Error("sim: class '" + c.name + "' has negative rate");
    if (c.population < 0)
      throw Error("sim: class '" + c.name + "' negative population");
    if (c.population > 0 && c.schedule)
      throw Error("sim: class '" + c.name +
                  "' cannot be both closed and scheduled");
    if (c.population > 0 && !c.arrival_times.empty())
      throw Error("sim: class '" + c.name +
                  "' cannot be both closed and trace-driven");
    for (std::size_t i = 0; i < c.arrival_times.size(); ++i) {
      if (!(c.arrival_times[i] >= 0.0 &&
            (i == 0 || c.arrival_times[i] >= c.arrival_times[i - 1])))
        throw Error("sim: class '" + c.name +
                    "' trace must be sorted and >= 0");
    }
    if (c.route.empty())
      throw Error("sim: class '" + c.name + "' has empty route");
    for (const auto& v : c.route)
      if (v.station < 0 ||
          static_cast<std::size_t>(v.station) >= config.stations.size())
        throw Error("sim: class '" + c.name + "' visits unknown station");
  }
  require(config.sla_thresholds.empty() ||
              config.sla_thresholds.size() == config.classes.size(),
          "sim: sla_thresholds needs one entry per class");
  for (units::Seconds thr : config.sla_thresholds)
    require(thr >= units::seconds(0.0), "sim: sla_thresholds must be >= 0");
  for (const auto& f : config.faults) {
    require(f.time >= 0.0, "sim: fault time must be >= 0");
    require(f.station >= 0 &&
                static_cast<std::size_t>(f.station) < config.stations.size(),
            "sim: fault targets unknown station");
    if (f.kind == FaultKind::kSetServers)
      require(f.value >= 1, "sim: kSetServers needs >= 1 server");
    if (f.kind == FaultKind::kSetCapacity)
      require(f.value >= -1, "sim: kSetCapacity needs value >= -1");
  }
}

namespace {

struct Job {
  std::size_t cls = 0;
  std::size_t route_pos = 0;
  double network_arrival = 0.0;   ///< first entered the system
  double station_arrival = 0.0;   ///< entered the current station
  double service_total = 0.0;     ///< sampled demand (work units) at the visit
  double service_remaining = 0.0; ///< work left (differs under preemption)
  double energy_joules = 0.0;     ///< accumulated dynamic energy
  bool counted = false;           ///< arrived after warm-up -> contributes stats
};

/// Per-run job pool: jobs churn at every arrival/departure, so they are
/// recycled through a free list instead of hitting the allocator. A deque
/// backs the pool because its blocks never move — raw Job* stay valid for
/// the whole run.
class JobArena {
 public:
  Job* acquire() {
    if (!free_.empty()) {
      Job* j = free_.back();
      free_.pop_back();
      *j = Job{};
      return j;
    }
    return &pool_.emplace_back();
  }

  void release(Job* job) { free_.push_back(job); }

 private:
  std::deque<Job> pool_;
  std::vector<Job*> free_;
};

// A job currently holding a server (FCFS / priority stations).
struct InService {
  Job* job = nullptr;
  std::uint64_t token = 0;      ///< matches the scheduled completion event
  double finish_time = 0.0;
  double segment_start = 0.0;   ///< start of the current energy segment
};

// A job sharing the processor (PS stations).
struct PsJob {
  Job* job = nullptr;
  double remaining_work = 0.0;
};

struct StationRuntime {
  // One FIFO queue per priority level; FCFS uses only queue 0.
  std::vector<std::deque<Job*>> queues;
  std::vector<InService> in_service;
  std::size_t waiting = 0;  ///< total queued jobs (sum over `queues`)

  // Processor-sharing state.
  std::vector<PsJob> ps_jobs;
  double ps_last_update = 0.0;
  std::uint64_t ps_token = 0;        ///< invalidates stale PS completions

  std::uint64_t next_token = 1;

  // Static config mirrored here so the dispatch loop never chases
  // cfg_.stations on the hot path.
  Discipline discipline = Discipline::kFcfs;
  int servers = 1;
  int capacity = -1;

  // Runtime operating point (changed by the management hook).
  double speed = 1.0;
  double dynamic_watts = 0.0;

  TimeWeightedStats busy_servers;
  TimeWeightedStats dyn_power;  ///< dynamic_watts x busy servers over time
  TimeWeightedStats queue_len;
  /// idle_watts x active servers over time. Constant unless faults or the
  /// management hook resize the tier; collect() only consults it then, so
  /// the legacy fixed-fleet average-power formula stays bit-identical.
  TimeWeightedStats idle_power;
  /// Audit slack after a capacity-reducing fault: standing jobs are never
  /// evicted, so occupancy may transiently exceed the new capacity but can
  /// only drain (admissions are gated). Tracks the allowed watermark.
  std::size_t audit_capacity_slack = 0;
  std::vector<RunningStats> wait_by_class;
};

/// Typed simulator events: replaces the closure-per-event scheme, whose
/// std::function allocations and indirect calls dominated the old hot
/// path. `a` is a class or station index, `b` a service token.
enum class Ev : std::uint32_t {
  kArrival,      ///< open/trace/scheduled source fires for class `a`
  kThinkDone,    ///< closed-class user of class `a` submits a request
  kCompletion,   ///< station `a` finishes the job holding token `b`
  kPsComplete,   ///< PS station `a` drains, valid while token `b` current
  kWarmupEnd,    ///< statistics reset at the warm-up boundary
  kControlTick,  ///< online-management hook invocation
  kFault,        ///< scheduled fault `a` (index into cfg_.faults) applies
};

struct EvPayload {
  Ev kind = Ev::kArrival;
  std::uint32_t a = 0;
  std::uint64_t b = 0;
};

class Simulation {
 public:
  explicit Simulation(const SimConfig& config) : cfg_(config) {
    validate_config(config);
    const std::size_t n_stations = cfg_.stations.size();
    const std::size_t n_classes = cfg_.classes.size();

    stations_.resize(n_stations);
    for (std::size_t s = 0; s < n_stations; ++s) {
      auto& st = stations_[s];
      const bool fcfs_like = cfg_.stations[s].discipline == Discipline::kFcfs;
      st.queues.resize(fcfs_like ? 1 : n_classes);
      st.discipline = cfg_.stations[s].discipline;
      st.servers = cfg_.stations[s].servers;
      st.capacity = cfg_.stations[s].capacity;
      st.speed = cfg_.stations[s].speed;
      st.dynamic_watts = cfg_.stations[s].dynamic_watts.value();
      st.busy_servers.start(0.0, 0.0);
      st.dyn_power.start(0.0, 0.0);
      st.queue_len.start(0.0, 0.0);
      st.idle_power.start(0.0, cfg_.stations[s].idle_watts.value() *
                                   static_cast<double>(st.servers));
      st.wait_by_class.resize(n_classes);
    }
    window_arrivals_.assign(n_classes, 0);
    manage_ = static_cast<bool>(cfg_.manage);
    admitted_.assign(n_classes, 1);
    window_completed_.assign(n_classes, 0);
    window_blocked_.assign(n_classes, 0);
    window_sla_ok_.assign(n_classes, 0);
    window_delay_sum_.assign(n_classes, 0.0);

    Rng root(cfg_.seed);
    arrival_rng_.reserve(n_classes);
    service_rng_.reserve(n_classes);
    for (std::size_t k = 0; k < n_classes; ++k) {
      arrival_rng_.push_back(root.substream(2 * k));
      service_rng_.push_back(root.substream(2 * k + 1));
    }

    // Flatten each class's route into (station, service distribution)
    // pairs so the per-visit sampling path is one indexed load instead of
    // three chained lookups through cfg_.
    route_.resize(n_classes);
    for (std::size_t k = 0; k < n_classes; ++k) {
      route_[k].reserve(cfg_.classes[k].route.size());
      for (const auto& v : cfg_.classes[k].route)
        route_[k].push_back(RouteStep{static_cast<std::size_t>(v.station),
                                      &v.service});
    }

    class_delay_.resize(n_classes);
    class_energy_.resize(n_classes);
    for (std::size_t k = 0; k < n_classes; ++k)
      class_p95_.emplace_back(0.95);
    completed_.assign(n_classes, 0);
    blocked_.assign(n_classes, 0);
    arrived_.assign(n_classes, 0);
    for (const auto& s : cfg_.stations)
      audit_max_watts_ = std::max(audit_max_watts_, s.dynamic_watts.value());
  }

  SimResult run() {
    trace_pos_.assign(cfg_.classes.size(), 0);
    heap_.reserve(64);
    for (std::size_t k = 0; k < cfg_.classes.size(); ++k) {
      if (cfg_.classes[k].population > 0) {
        for (int u = 0; u < cfg_.classes[k].population; ++u) start_think(k);
      } else if (!cfg_.classes[k].arrival_times.empty() ||
                 cfg_.classes[k].rate.value() > 0.0 || cfg_.classes[k].schedule) {
        schedule_arrival(k);
      }
    }

    if (cfg_.warmup_time > 0.0)
      schedule(cfg_.warmup_time, Ev::kWarmupEnd, 0, 0);

    if (cfg_.control_period > 0.0 && cfg_.manage)
      schedule(cfg_.control_period, Ev::kControlTick, 0, 0);

    for (std::size_t i = 0; i < cfg_.faults.size(); ++i)
      if (cfg_.faults[i].time <= cfg_.end_time)
        schedule(cfg_.faults[i].time, Ev::kFault,
                 static_cast<std::uint32_t>(i), 0);

    // Manual loop (not run_until) because a completion cap may pull
    // cfg_.end_time in while events are in flight.
    while (!heap_.empty() && heap_.top().time <= cfg_.end_time) {
      if (cfg_.audit && heap_.top().time < now_)
        throw Error("sim audit: event time went backwards at t=" +
                    std::to_string(now_));
      const auto entry = heap_.pop();
      now_ = entry.time;
      ++events_fired_;
      switch (entry.payload.kind) {
        case Ev::kArrival:
          on_arrival(entry.payload.a);
          break;
        case Ev::kThinkDone:
          submit(entry.payload.a);
          break;
        case Ev::kCompletion:
          complete_service(entry.payload.a, entry.payload.b);
          break;
        case Ev::kPsComplete:
          ps_complete(entry.payload.a, entry.payload.b);
          break;
        case Ev::kWarmupEnd:
          end_warmup();
          break;
        case Ev::kControlTick:
          control_tick();
          break;
        case Ev::kFault:
          apply_fault(cfg_.faults[entry.payload.a]);
          break;
      }
    }
    return collect();
  }

 private:
  struct RouteStep {
    std::size_t station = 0;
    const Distribution* service = nullptr;
  };

  [[nodiscard]] double now() const { return now_; }

  void schedule(double time, Ev kind, std::uint32_t a, std::uint64_t b) {
    require(time >= now_, "sim: scheduling into the past");
    heap_.push(time, next_seq_++, EvPayload{kind, a, b});
  }

  // ---- arrival generation ------------------------------------------------

  void schedule_arrival(std::size_t k) {
    const auto& cls = cfg_.classes[k];
    double t;
    if (!cls.arrival_times.empty()) {
      if (trace_pos_[k] >= cls.arrival_times.size()) return;  // trace drained
      t = std::max(cls.arrival_times[trace_pos_[k]++], now_);
    } else if (cls.schedule) {
      t = cls.schedule->next_arrival(now_, arrival_rng_[k]);
    } else {
      t = now_ + arrival_rng_[k].exponential(cls.rate.value());
    }
    if (t > cfg_.end_time) return;  // horizon reached for this source
    schedule(t, Ev::kArrival, static_cast<std::uint32_t>(k), 0);
  }

  void on_arrival(std::size_t k) {
    submit(k);
    schedule_arrival(k);
  }

  /// A fresh request of class k arrives now: it enters its first station,
  /// unless the management hook's admission gate sheds the class.
  void submit(std::size_t k) {
    Job* job = arena_.acquire();
    job->cls = k;
    job->network_arrival = now_;
    job->counted = now_ >= cfg_.warmup_time;
    if (job->counted) ++arrived_[k];
    ++window_arrivals_[k];
    if (admitted_[k] == 0) {
      drop(job);
    } else {
      enter_station(job);
    }
  }

  /// Aborts a request that was shed or found a station full. It counts as
  /// arrived + blocked, preserving flow conservation (arrived == completed
  /// + blocked + in_system_at_end) exactly; a closed class's user returns
  /// to thinking and will retry a fresh request.
  void drop(Job* job) {
    const std::size_t k = job->cls;
    if (job->counted) ++blocked_[k];
    if (manage_) ++window_blocked_[k];
    arena_.release(job);
    if (cfg_.classes[k].population > 0) start_think(k);
  }

  /// Closed-class cycle: one user thinks, then submits a fresh request.
  void start_think(std::size_t k) {
    const double think = cfg_.classes[k].think_time.sample(arrival_rng_[k]);
    const double t = now_ + think;
    if (t > cfg_.end_time) return;  // user idles past the horizon
    schedule(t, Ev::kThinkDone, static_cast<std::uint32_t>(k), 0);
  }

  // ---- station entry / service start ------------------------------------

  /// Requests currently at station s (serving + waiting).
  std::size_t station_population(std::size_t s) const {
    const auto& st = stations_[s];
    return st.in_service.size() + st.ps_jobs.size() + st.waiting;
  }

  void enter_station(Job* job) {
    const std::size_t s = route_[job->cls][job->route_pos].station;
    auto& st = stations_[s];

    // Admission control: a full station drops the whole request.
    if (st.capacity >= 0 &&
        station_population(s) >= static_cast<std::size_t>(st.capacity)) {
      drop(job);
      return;
    }

    job->station_arrival = now_;
    job->service_total =
        route_[job->cls][job->route_pos].service->sample(service_rng_[job->cls]);
    job->service_remaining = job->service_total;

    if (st.discipline == Discipline::kProcessorSharing) {
      ps_enter(s, job);
      return;
    }

    if (has_free_server(s)) {
      start_service(s, job);
      return;
    }

    if (st.discipline == Discipline::kPreemptiveResume) {
      // Preempt the lowest-priority job in service if strictly lower.
      std::size_t victim = st.in_service.size();
      std::size_t victim_cls = job->cls;
      for (std::size_t i = 0; i < st.in_service.size(); ++i) {
        if (st.in_service[i].job->cls > victim_cls) {
          victim_cls = st.in_service[i].job->cls;
          victim = i;
        }
      }
      if (victim < st.in_service.size()) {
        preempt(s, victim);
        update_busy_signals(s);
        start_service(s, job);
        return;
      }
    }

    const std::size_t q = st.discipline == Discipline::kFcfs ? 0 : job->cls;
    st.queues[q].push_back(job);
    ++st.waiting;
    update_queue_len(s);
  }

  /// Returns the job in service slot i of station s to the front of its
  /// queue. Its scheduled completion becomes a no-op (stale token); the
  /// remaining WORK is the remaining wall time at the current speed, and
  /// its energy segment closes now. The caller updates the busy signals.
  void preempt(std::size_t s, std::size_t i) {
    auto& st = stations_[s];
    const InService entry = st.in_service[i];
    st.in_service.erase(st.in_service.begin() +
                        static_cast<std::ptrdiff_t>(i));
    entry.job->service_remaining = (entry.finish_time - now_) * st.speed;
    entry.job->energy_joules +=
        st.dynamic_watts * (now_ - entry.segment_start);
    const std::size_t q =
        st.discipline == Discipline::kFcfs ? 0 : entry.job->cls;
    st.queues[q].push_front(entry.job);
    ++st.waiting;
    update_queue_len(s);
  }

  bool has_free_server(std::size_t s) const {
    return stations_[s].in_service.size() <
           static_cast<std::size_t>(stations_[s].servers);
  }

  /// Hands free servers to waiting jobs, highest priority first.
  void dispatch(std::size_t s) {
    auto& st = stations_[s];
    while (st.waiting > 0 && has_free_server(s)) {
      for (auto& queue : st.queues) {
        if (queue.empty()) continue;
        Job* next = queue.front();
        queue.pop_front();
        --st.waiting;
        update_queue_len(s);
        start_service(s, next);
        break;
      }
    }
  }

  /// Refreshes the busy-count and dynamic-power time signals of station s:
  /// the jobs in service, or at a PS station the servers its jobs keep busy.
  void update_busy_signals(std::size_t s) {
    auto& st = stations_[s];
    const double busy = st.discipline == Discipline::kProcessorSharing
                            ? std::min(static_cast<double>(st.servers),
                                       static_cast<double>(st.ps_jobs.size()))
                            : static_cast<double>(st.in_service.size());
    st.busy_servers.update(now_, busy);
    st.dyn_power.update(now_, st.dynamic_watts * busy);
  }

  void start_service(std::size_t s, Job* job) {
    auto& st = stations_[s];
    const std::uint64_t token = st.next_token++;
    const double wall = job->service_remaining / st.speed;
    const double finish = now_ + wall;
    st.in_service.push_back(InService{job, token, finish, now_});
    update_busy_signals(s);
    schedule(finish, Ev::kCompletion, static_cast<std::uint32_t>(s), token);
    if (cfg_.audit) audit_station(s);
  }

  /// Occupancy invariants of one station (audit mode only): never more
  /// jobs in service than servers, never more jobs present than capacity.
  void audit_station(std::size_t s) const {
    const auto& st = stations_[s];
    if (st.in_service.size() > static_cast<std::size_t>(st.servers))
      throw Error("sim audit: station '" + cfg_.stations[s].name +
                  "' has more jobs in service than servers");
    // After a capacity-loss fault, standing jobs above the new capacity are
    // tolerated up to the watermark recorded at fault time — they can only
    // drain, since admissions are gated the moment the station is full.
    const std::size_t limit =
        std::max(st.capacity >= 0 ? static_cast<std::size_t>(st.capacity) : 0,
                 st.audit_capacity_slack);
    if (st.capacity >= 0 && station_population(s) > limit)
      throw Error("sim audit: station '" + cfg_.stations[s].name +
                  "' exceeded its admission capacity");
  }

  void complete_service(std::size_t s, std::uint64_t token) {
    auto& st = stations_[s];
    const auto it = std::find_if(
        st.in_service.begin(), st.in_service.end(),
        [token](const InService& e) { return e.token == token; });
    if (it == st.in_service.end()) return;  // preempted: stale completion

    Job* job = it->job;
    job->energy_joules += st.dynamic_watts * (now_ - it->segment_start);
    st.in_service.erase(it);
    update_busy_signals(s);

    // Hand the freed server to waiting jobs BEFORE routing the departure:
    // a job revisiting this station must not jump ahead of the queue.
    dispatch(s);
    depart_station(s, job);
  }

  // ---- processor sharing -------------------------------------------------

  double ps_rate(std::size_t s) const {
    // Each of n jobs progresses at speed * min(1, c/n).
    const auto& st = stations_[s];
    if (st.ps_jobs.empty()) return 0.0;
    const double c = static_cast<double>(st.servers);
    const double n = static_cast<double>(st.ps_jobs.size());
    return st.speed * std::min(1.0, c / n);
  }

  void ps_advance(std::size_t s) {
    auto& st = stations_[s];
    const double rate = ps_rate(s);
    const double dt = now_ - st.ps_last_update;
    if (dt > 0.0 && rate > 0.0)
      for (auto& pj : st.ps_jobs) pj.remaining_work -= dt * rate;
    st.ps_last_update = now_;
  }

  void ps_reschedule(std::size_t s) {
    auto& st = stations_[s];
    ++st.ps_token;  // invalidate any pending completion
    if (st.ps_jobs.empty()) return;
    const double rate = ps_rate(s);
    double min_work = std::numeric_limits<double>::infinity();
    for (const auto& pj : st.ps_jobs)
      min_work = std::min(min_work, pj.remaining_work);
    min_work = std::max(min_work, 0.0);
    const double t = now_ + min_work / rate;
    schedule(t, Ev::kPsComplete, static_cast<std::uint32_t>(s), st.ps_token);
  }

  void ps_enter(std::size_t s, Job* job) {
    auto& st = stations_[s];
    ps_advance(s);
    st.ps_jobs.push_back(PsJob{job, job->service_total});
    update_busy_signals(s);
    ps_reschedule(s);
  }

  void ps_complete(std::size_t s, std::uint64_t token) {
    auto& st = stations_[s];
    if (token != st.ps_token) return;  // state changed since scheduling
    ps_advance(s);
    // Finish every job whose work has hit zero (simultaneity is possible
    // with deterministic service) or is too small to advance the clock.
    constexpr double kEps = 1e-12;
    const double rate = ps_rate(s);
    ps_finished_.clear();
    for (auto it = st.ps_jobs.begin(); it != st.ps_jobs.end();) {
      if (it->remaining_work <= kEps ||
          now_ + it->remaining_work / rate <= now_) {
        ps_finished_.push_back(it->job);
        it = st.ps_jobs.erase(it);
      } else {
        ++it;
      }
    }
    update_busy_signals(s);
    ps_reschedule(s);
    for (Job* job : ps_finished_) {
      // PS energy attribution: the job's share of server-time equals its
      // total work divided by the station speed (exact at fixed speed;
      // approximate across mid-service retunings).
      job->energy_joules += st.dynamic_watts * job->service_total / st.speed;
      depart_station(s, job);
    }
  }

  // ---- departures & end-to-end accounting --------------------------------

  void depart_station(std::size_t s, Job* job) {
    auto& st = stations_[s];
    const double sojourn = now_ - job->station_arrival;
    if (cfg_.audit) {
      if (sojourn < -1e-9)
        throw Error("sim audit: negative sojourn at station '" +
                    cfg_.stations[s].name + "'");
      // Energy attribution bound: a request draws dynamic power from at
      // most one server at a time, so its accumulated joules can never
      // exceed its network dwell time at the peak dynamic wattage.
      const double dwell = now_ - job->network_arrival;
      const double bound = dwell * audit_max_watts_ * (1.0 + 1e-6) + 1e-6;
      if (job->energy_joules < -1e-9 || job->energy_joules > bound)
        throw Error("sim audit: energy attribution out of bounds for class " +
                    cfg_.classes[job->cls].name);
    }
    // "Wait" = sojourn minus the job's own nominal service wall time at
    // the station's (current) speed.
    if (job->counted)
      st.wait_by_class[job->cls].add(sojourn - job->service_total / st.speed);
    // Dynamic energy was accumulated segment-wise while serving.

    job->route_pos += 1;
    if (job->route_pos < route_[job->cls].size()) {
      enter_station(job);
      return;
    }

    const std::size_t k = job->cls;
    if (manage_) {
      // Window accounting for the management hook: operational, so it
      // counts every completion (warm-up included), unlike the statistics.
      const double delay = now_ - job->network_arrival;
      ++window_completed_[k];
      window_delay_sum_[k] += delay;
      const double thr =
          cfg_.sla_thresholds.empty() ? 0.0 : cfg_.sla_thresholds[k].value();
      if (thr <= 0.0 || delay <= thr) ++window_sla_ok_[k];
    }
    if (job->counted) {
      const double delay = now_ - job->network_arrival;
      class_delay_[k].add(delay);
      class_p95_[k].add(delay);
      class_energy_[k].add(job->energy_joules);
      ++completed_[k];
      if (cfg_.record_completions)
        completions_.push_back(CompletionRecord{now_, units::seconds(delay), k});
    }
    arena_.release(job);
    // Closed class: the user goes back to thinking, then resubmits.
    if (cfg_.classes[k].population > 0) start_think(k);
  }

  void update_queue_len(std::size_t s) {
    auto& st = stations_[s];
    st.queue_len.update(now_, static_cast<double>(st.waiting));
  }

  void end_warmup() {
    for (auto& st : stations_) {
      st.busy_servers.reset_at(now_);
      st.dyn_power.reset_at(now_);
      st.queue_len.reset_at(now_);
      st.idle_power.reset_at(now_);
    }
    window_energy_base_ = 0.0;  // the energy integrals just restarted
  }

  // ---- online management (management hook) -------------------------------

  void control_tick() {
    const ManagementDecision decision = cfg_.manage(take_snapshot());
    if (!decision.tiers.empty()) {
      require(decision.tiers.size() == stations_.size(),
              "sim: manage hook must return one TierSetting per station");
      for (std::size_t s = 0; s < stations_.size(); ++s)
        apply_tier_setting(s, decision.tiers[s]);
    }
    if (!decision.admit.empty()) {
      require(decision.admit.size() == cfg_.classes.size(),
              "sim: manage hook must return one admit flag per class");
      admitted_ = decision.admit;
    }

    const double next = now_ + cfg_.control_period;
    if (next <= cfg_.end_time) schedule(next, Ev::kControlTick, 0, 0);
  }

  /// The snapshot of the window just closed: arrival rates, server counts,
  /// window counters and admission map. Window counters reset here; the
  /// energy figure is the exact (segment-wise) idle + dynamic integral
  /// accumulated since the previous tick.
  ControlSnapshot take_snapshot() {
    const std::size_t n_classes = cfg_.classes.size();
    ControlSnapshot snap;
    snap.time = now_;
    snap.arrival_rate.resize(n_classes);
    snap.servers.resize(stations_.size());
    double energy = 0.0;
    for (std::size_t s = 0; s < stations_.size(); ++s) {
      auto& st = stations_[s];
      snap.servers[s] = st.servers;
      st.dyn_power.finish(now_);
      st.idle_power.finish(now_);
      energy += st.dyn_power.integral() + st.idle_power.integral();
    }
    snap.window_energy_joules = units::joules(energy - window_energy_base_);
    window_energy_base_ = energy;

    snap.window_completed = window_completed_;
    snap.window_blocked = window_blocked_;
    snap.window_within_sla = window_sla_ok_;
    snap.window_mean_delay.resize(n_classes);
    for (std::size_t k = 0; k < n_classes; ++k) {
      snap.arrival_rate[k] = static_cast<double>(window_arrivals_[k]) /
                             cfg_.control_period;
      snap.window_mean_delay[k] =
          window_completed_[k] > 0
              ? window_delay_sum_[k] / static_cast<double>(window_completed_[k])
              : 0.0;
      window_arrivals_[k] = 0;
      window_completed_[k] = 0;
      window_blocked_[k] = 0;
      window_sla_ok_[k] = 0;
      window_delay_sum_[k] = 0.0;
    }
    snap.admitted = admitted_;
    return snap;
  }

  // ---- fault injection -----------------------------------------------------

  void apply_fault(const FaultEvent& fault) {
    const auto s = static_cast<std::size_t>(fault.station);
    auto& st = stations_[s];
    switch (fault.kind) {
      case FaultKind::kServersDelta:
        // A tier never loses its last server: repairs/failures clamp at 1.
        resize_station(s, std::max(st.servers + fault.value, 1));
        break;
      case FaultKind::kSetServers:
        resize_station(s, fault.value);
        break;
      case FaultKind::kSetCapacity:
        // Capacity loss gates admissions only — standing jobs stay. Record
        // the occupancy watermark so the audit tolerates the drain-down.
        st.capacity = fault.value;
        st.audit_capacity_slack = station_population(s);
        break;
    }
  }

  /// Changes the active server count of station s. Shrinking preempts the
  /// lowest-priority in-service jobs in excess of the new count back onto
  /// their queue fronts (work conserving); growing redispatches waiting
  /// jobs. PS stations just recompute the sharing rate.
  void resize_station(std::size_t s, int servers) {
    auto& st = stations_[s];
    if (servers == st.servers) return;
    servers_changed_ = true;
    // Close the idle-power segment at the old fleet size.
    st.idle_power.update(now_, cfg_.stations[s].idle_watts.value() *
                                   static_cast<double>(servers));
    st.servers = servers;

    if (st.discipline == Discipline::kProcessorSharing) {
      ps_advance(s);
      update_busy_signals(s);
      ps_reschedule(s);
      return;
    }

    while (st.in_service.size() > static_cast<std::size_t>(st.servers)) {
      // Victim: the lowest-priority job in service (ties broken towards the
      // most recently started, the last match in the scan).
      std::size_t victim = 0;
      for (std::size_t i = 1; i < st.in_service.size(); ++i)
        if (st.in_service[i].job->cls >= st.in_service[victim].job->cls)
          victim = i;
      preempt(s, victim);
    }
    update_busy_signals(s);
    dispatch(s);  // growing: hand the new servers to waiting jobs
    if (cfg_.audit) audit_station(s);
  }

  void apply_tier_setting(std::size_t s, const TierSetting& setting) {
    require(setting.speed > 0.0, "sim: tier speed must be positive");
    require(setting.dynamic_watts >= units::watts(0.0),
            "sim: dynamic watts must be >= 0");
    require(setting.servers >= 0, "sim: tier servers must be >= 0");
    audit_max_watts_ = std::max(audit_max_watts_, setting.dynamic_watts.value());
    if (setting.servers > 0) resize_station(s, setting.servers);
    auto& st = stations_[s];
    const double now = now_;
    const double old_speed = st.speed;
    if (setting.speed == old_speed &&
        setting.dynamic_watts.value() == st.dynamic_watts)
      return;

    if (st.discipline == Discipline::kProcessorSharing) {
      // Integrate progress at the old rate, then switch.
      ps_advance(s);
      st.speed = setting.speed;
      st.dynamic_watts = setting.dynamic_watts.value();
      update_busy_signals(s);
      ps_reschedule(s);
      return;
    }

    // Close every in-service energy segment at the old watts, rescale the
    // remaining wall time at the new speed, and reschedule completions.
    st.speed = setting.speed;
    for (auto& entry : st.in_service) {
      entry.job->energy_joules +=
          st.dynamic_watts * (now - entry.segment_start);
      entry.segment_start = now;
      const double remaining_wall = (entry.finish_time - now) * old_speed /
                                    setting.speed;
      entry.finish_time = now + remaining_wall;
      entry.token = st.next_token++;
      schedule(entry.finish_time, Ev::kCompletion,
               static_cast<std::uint32_t>(s), entry.token);
    }
    st.dynamic_watts = setting.dynamic_watts.value();
    update_busy_signals(s);
  }

  // ---- result assembly ----------------------------------------------------

  SimResult collect() {
    const double t_end = std::max(now_, cfg_.warmup_time);
    for (auto& st : stations_) {
      st.busy_servers.finish(t_end);
      st.dyn_power.finish(t_end);
      st.queue_len.finish(t_end);
      st.idle_power.finish(t_end);
    }

    SimResult r;
    r.measured_time = t_end - cfg_.warmup_time;
    r.events_fired = events_fired_;
    r.completions = std::move(completions_);

    // Counted jobs still inside the network at the horizon: every live job
    // is owned by some station runtime (queue, server or PS pool).
    std::vector<std::uint64_t> in_system(cfg_.classes.size(), 0);
    for (const auto& st : stations_) {
      for (const auto& q : st.queues)
        for (const Job* job : q)
          if (job->counted) ++in_system[job->cls];
      for (const auto& e : st.in_service)
        if (e.job->counted) ++in_system[e.job->cls];
      for (const auto& pj : st.ps_jobs)
        if (pj.job->counted) ++in_system[pj.job->cls];
    }

    const std::size_t n_classes = cfg_.classes.size();
    r.classes.resize(n_classes);
    double weighted = 0.0;
    double total_rate = 0.0;
    for (std::size_t k = 0; k < n_classes; ++k) {
      auto& cr = r.classes[k];
      cr.completed = completed_[k];
      cr.blocked = blocked_[k];
      cr.arrived = arrived_[k];
      cr.in_system_at_end = in_system[k];
      if (cfg_.audit &&
          arrived_[k] != completed_[k] + blocked_[k] + in_system[k])
        throw Error("sim audit: flow conservation violated for class '" +
                    cfg_.classes[k].name + "'");
      cr.mean_e2e_delay = units::seconds(class_delay_[k].mean());
      cr.p95_e2e_delay = units::seconds(class_p95_[k].value());
      cr.mean_e2e_energy = units::joules(class_energy_[k].mean());
      // Traffic weight: offered rate for open classes, measured throughput
      // for closed and trace-driven ones (no single exogenous rate).
      double rate;
      if (cfg_.classes[k].population > 0 ||
          !cfg_.classes[k].arrival_times.empty()) {
        rate = r.measured_time > 0.0
                   ? static_cast<double>(cr.completed) / r.measured_time
                   : 0.0;
      } else if (cfg_.classes[k].schedule) {
        rate = cfg_.classes[k].schedule->mean_rate().value();
      } else {
        rate = cfg_.classes[k].rate.value();
      }
      weighted += rate * cr.mean_e2e_delay.value();
      total_rate += rate;
    }
    r.mean_e2e_delay =
        units::seconds(total_rate > 0.0 ? weighted / total_rate : 0.0);

    r.stations.resize(cfg_.stations.size());
    for (std::size_t s = 0; s < cfg_.stations.size(); ++s) {
      auto& sr = r.stations[s];
      const auto& st = stations_[s];
      const double servers = static_cast<double>(st.servers);
      const double busy_avg = st.busy_servers.time_average();
      sr.utilization = busy_avg / servers;
      sr.mean_queue_len = st.queue_len.time_average();
      // Dynamic power integrated segment-exactly (watts may vary over time
      // under the management hook). Idle power is constant for a fixed fleet;
      // once faults or the management hook resized any tier, it too comes
      // from the segment-wise integral (same result for fixed fleets, but
      // the legacy closed form is kept for bit-stability of old runs).
      sr.avg_power = units::watts(
          servers_changed_
              ? st.idle_power.time_average() + st.dyn_power.time_average()
              : cfg_.stations[s].idle_watts.value() * servers +
                    st.dyn_power.time_average());
      r.cluster_avg_power += sr.avg_power;
      sr.mean_wait.resize(cfg_.classes.size());
      for (std::size_t k = 0; k < cfg_.classes.size(); ++k)
        sr.mean_wait[k] = st.wait_by_class[k].mean();
    }
    return r;
  }

  const SimConfig& cfg_;
  FourAryHeap<EvPayload> heap_;
  std::uint64_t next_seq_ = 0;
  double now_ = 0.0;
  JobArena arena_;
  std::vector<StationRuntime> stations_;
  std::vector<Job*> ps_finished_;  // ps_complete's departures, reused
  std::vector<std::vector<RouteStep>> route_;
  std::vector<Rng> arrival_rng_;
  std::vector<Rng> service_rng_;
  std::vector<RunningStats> class_delay_;
  std::vector<RunningStats> class_energy_;
  std::vector<P2Quantile> class_p95_;
  std::vector<std::uint64_t> completed_;
  std::vector<std::uint64_t> blocked_;
  std::vector<std::uint64_t> arrived_;
  double audit_max_watts_ = 0.0;
  std::vector<CompletionRecord> completions_;
  std::vector<std::uint64_t> window_arrivals_;
  bool manage_ = false;
  bool servers_changed_ = false;
  std::vector<std::uint8_t> admitted_;
  std::vector<std::uint64_t> window_completed_;
  std::vector<std::uint64_t> window_blocked_;
  std::vector<std::uint64_t> window_sla_ok_;
  std::vector<double> window_delay_sum_;
  double window_energy_base_ = 0.0;
  std::vector<std::size_t> trace_pos_;
  std::uint64_t events_fired_ = 0;
};

}  // namespace

SimResult simulate(const SimConfig& config) {
  Simulation sim(config);
  return sim.run();
}

}  // namespace cpm::sim
