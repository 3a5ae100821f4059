#include "net/fleet.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"

namespace teamnet::net {

FleetStats::FleetStats(const std::string& prefix)
    : stale_replies(prefix + ".stale_replies_total"),
      worker_failures(prefix + ".worker_failures_total"),
      rejoins(prefix + ".rejoins_total"),
      hedges(prefix + ".hedges_total"),
      hedge_wins(prefix + ".hedge_wins_total"),
      hedge_duplicates(prefix + ".hedge_duplicates_total") {}

WorkerFleet::WorkerFleet(std::vector<Channel*> workers,
                         const std::string& metric_prefix)
    : workers_(std::move(workers)),
      slots_(workers_.size()),
      now_(&steady_seconds),
      stats_(metric_prefix),
      flight_(workers_.size()),
      answers_(workers_.size()) {
  for (auto* w : workers_) TEAMNET_CHECK(w != nullptr);
}

void WorkerFleet::set_probe_interval(int queries) {
  TEAMNET_CHECK_MSG(queries >= 0, "probe interval must be >= 0");
  probe_interval_ = std::min(queries, kMaxProbeInterval);
}

void WorkerFleet::set_time_source(TimeSource now) {
  now_ = now ? std::move(now) : TimeSource(&steady_seconds);
}

void WorkerFleet::enable_health(const HealthConfig& config) {
  health_ = std::make_unique<HealthTracker>(
      static_cast<int>(workers_.size()), config, now_);
}

void WorkerFleet::set_hedging(std::vector<Channel*> backups,
                              double min_delay_s, double latency_factor) {
  TEAMNET_CHECK_MSG(backups.size() == workers_.size(),
                    "need one backup entry (possibly null) per worker");
  TEAMNET_CHECK_MSG(min_delay_s >= 0.0 && latency_factor >= 0.0,
                    "hedge delay parameters must be >= 0");
  backups_ = std::move(backups);
  hedge_min_delay_s_ = min_delay_s;
  hedge_factor_ = latency_factor;
}

int WorkerFleet::failed_workers() const {
  return static_cast<int>(
      std::count_if(slots_.begin(), slots_.end(),
                    [](const WorkerSlot& s) { return s.failed; }));
}

bool WorkerFleet::worker_alive(int worker_index) const {
  TEAMNET_CHECK_MSG(
      worker_index >= 0 && worker_index < static_cast<int>(slots_.size()),
      "worker index " << worker_index << " out of range [0, " << slots_.size()
                      << ")");
  return !slots_[static_cast<std::size_t>(worker_index)].failed;
}

void WorkerFleet::mark_failed(std::size_t w) {
  WorkerSlot& slot = slots_[w];
  if (slot.failed) return;
  if (health_) health_->record_failure(static_cast<int>(w));
  slot.failed = true;
  slot.probe_id = 0;
  slot.probe_interval = probe_interval_;
  slot.probe_countdown = probe_interval_;
  stats_.worker_failures.add();
  obs::trace_instant("worker_failed", [&] {
    return obs::TraceArgs().arg("worker", w + 1);
  });
}

double WorkerFleet::remaining() const {
  return std::max(deadline_ - now_(), 0.0);
}

std::optional<std::string> WorkerFleet::recv_within_deadline(
    Channel& channel) const {
  if (std::isinf(deadline_)) return channel.recv();
  return channel.recv_timeout(remaining());
}

void WorkerFleet::give_up(std::size_t w) {
  flight_[w].primary_outstanding = false;
  if (flight_[w].pending) {
    mark_failed(w);
    flight_[w].pending = false;
  }
}

void WorkerFleet::probe_failed_workers() {
  if (probe_interval_ <= 0) return;
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    WorkerSlot& slot = slots_[w];
    if (!slot.failed) continue;
    try {
      // Poll for an answer to the in-flight probe. Anything else queued on
      // the channel (a late Result from before the worker failed) is stale
      // and discarded here — bounded drain, never blocking.
      for (int drained = 0; slot.probe_id != 0 && drained < 64; ++drained) {
        auto raw = workers_[w]->recv_timeout(0.0);
        if (!raw) break;
        Message msg;
        try {
          msg = Message::decode(*raw);
        } catch (const SerializationError&) {
          stats_.stale_replies.add();
          continue;
        }
        if (msg.type == MsgType::Pong && !msg.ints.empty() &&
            msg.ints[0] == slot.probe_id) {
          if (health_) health_->record_probe_success(static_cast<int>(w));
          slot.probe_id = 0;
          if (health_ && !health_->allow_dispatch(static_cast<int>(w))) {
            // The worker answers probes but its breaker is still inside the
            // cooldown: stay in probation (the cadence keeps pinging) until
            // a later Pong lands after the cooldown and opens half_open.
            LOG_INFO("worker " << w + 1
                               << " answered probe but its breaker is open; "
                                  "staying in probation");
            break;
          }
          slot.failed = false;
          stats_.rejoins.add();
          obs::trace_instant("worker_rejoin", [&] {
            return obs::TraceArgs().arg("worker", w + 1);
          });
          LOG_INFO("worker " << w + 1
                             << " answered probe; rejoining the live set");
          break;
        }
        stats_.stale_replies.add();
        if (flow_trace_ && msg.type == MsgType::Result && !msg.ints.empty()) {
          // A late Result from before the worker failed: close its flow at
          // the probation drain so it does not dangle in the trace.
          obs::trace_flow_finish(
              "result",
              obs::flow_id(msg.ints[0], static_cast<int>(w) + 1, 1));
        }
      }
      if (!slot.failed) continue;
      if (--slot.probe_countdown > 0) continue;
      Message ping;
      ping.type = MsgType::Ping;
      ping.ints = {++probe_seq_};
      workers_[w]->send(ping.encode());
      slot.probe_id = probe_seq_;
      obs::trace_instant("probe", [&] {
        return obs::TraceArgs().arg("worker", w + 1).arg("probe_id",
                                                         probe_seq_);
      });
      // Exponential backoff on the probe cadence: each unanswered probe
      // doubles the wait before the next one, up to kMaxProbeInterval.
      slot.probe_interval =
          std::min(slot.probe_interval * 2, kMaxProbeInterval);
      slot.probe_countdown = slot.probe_interval;
    } catch (const Error& e) {
      LOG_DEBUG("worker " << w + 1 << " probe failed: " << e.what());
      // Still failed; the probe cadence continues on later queries.
    }
  }
}

void WorkerFleet::open(std::int64_t qid) {
  info_ = InferInfo{};
  info_.qid = qid;
  mark(obs::QueryPhase::dispatch);
  probe_failed_workers();
  deadline_ = std::numeric_limits<double>::infinity();
  if (worker_timeout_s_ > 0.0) {
    deadline_ = now_() + worker_timeout_s_;
    info_.deadline_us = std::llround(deadline_ * 1e6);
  }
  asked_count_ = answered_count_ = 0;
  std::fill(flight_.begin(), flight_.end(), Flight{});
}

std::string WorkerFleet::infer_frame(Tensor input, bool hedged) const {
  Message request;
  request.type = MsgType::Infer;
  InferInfo info = info_;
  info.hedged = hedged;
  set_infer_info(request, info);
  request.tensors = {std::move(input)};
  return request.encode();
}

bool WorkerFleet::dispatch(std::size_t w, const std::string& frame) {
  if (slots_[w].failed) return false;
  if (health_ && !health_->allow_dispatch(static_cast<int>(w))) return false;
  try {
    workers_[w]->send(frame);
  } catch (const Error& e) {
    LOG_WARN("worker " << w + 1 << " failed on send: " << e.what());
    mark_failed(w);
    return false;
  }
  flight_[w].pending = flight_[w].primary_outstanding = true;
  ++asked_count_;
  if (obs::qtl_active()) {
    // Per-worker send-done instants expose the serial broadcast: the gap
    // between consecutive `sent` marks IS the master's per-worker
    // serialization cost (AttrPhase::broadcast_serial).
    obs::qtl_worker_mark(info_.qid, static_cast<int>(w),
                         obs::WorkerMark::sent, now_());
  }
  if (flow_trace_) {
    obs::trace_flow_start("infer",
                          obs::flow_id(info_.qid, static_cast<int>(w) + 1, 0));
  }
  return true;
}

void WorkerFleet::process_reply(const std::string& raw, std::size_t w,
                                bool from_backup) {
  const std::int64_t qid = info_.qid;
  const int node = static_cast<int>(w) + 1;
  Message reply = Message::decode(raw);
  if (reply.type == MsgType::Pong) {
    stats_.stale_replies.add();  // duplicate probe answer; keep waiting
    obs::trace_instant("stale_reply_discarded", [&] {
      return obs::TraceArgs().arg("worker", node).arg("kind", "duplicate_pong");
    });
    return;
  }
  TEAMNET_CHECK_MSG(
      reply.type == MsgType::Result && reply.tensors.size() == 2,
      "worker " << node << " sent malformed reply type "
                << static_cast<int>(reply.type));
  if (test_pre_qid_gather_) {
    // TEST-ONLY mutant (see set_test_pre_qid_gather): the deadline reading
    // is the only stale filter.
    if (remaining() <= 0.0) {
      give_up(w);
      return;
    }
  } else if (reply.ints.empty() || reply.ints[0] != qid) {
    stats_.stale_replies.add();
    if (flow_trace_ && !from_backup && !reply.ints.empty()) {
      // Close the stale reply's flow at its discard point — a drained
      // stale is consumed, not dangling.
      obs::trace_flow_finish(
          "result", obs::flow_id(reply.ints[0], node, 1));
    }
    obs::trace_instant("stale_reply_discarded", [&] {
      return obs::TraceArgs()
          .arg("worker", node)
          .arg("stale_qid",
               reply.ints.empty() ? std::int64_t{-1} : reply.ints[0])
          .arg("qid", qid);
    });
    return;
  }
  // A current-query Result settles its source's outstanding request,
  // duplicate or not.
  Flight& flight = flight_[w];
  if (from_backup) {
    if (flight.backup_outstanding > 0) --flight.backup_outstanding;
  } else {
    flight.primary_outstanding = false;
    // Backup replicas never open flows (they answer under a lane they do
    // not own), so only primary replies close one — whether accepted or
    // reconciled as a hedge duplicate below.
    if (flow_trace_) {
      obs::trace_flow_finish("result", obs::flow_id(qid, node, 1));
    }
  }
  if (flight.answered) {
    // The other replica of this expert answered first: the id echo
    // reconciles the duplicate instead of double-counting the expert.
    stats_.hedge_duplicates.add();
    obs::trace_instant("hedge_duplicate_reconciled", [&] {
      return obs::TraceArgs().arg("worker", node).arg("qid", qid);
    });
    return;
  }
  flight.answered = true;
  flight.pending = false;
  if (obs::qtl_active()) {
    obs::qtl_worker_mark(qid, static_cast<int>(w), obs::WorkerMark::reply_recv,
                         now_());
  }
  answers_[static_cast<std::size_t>(answered_count_++)] =
      Answer{w, std::move(reply.tensors[0]), std::move(reply.tensors[1])};
  if (from_backup) {
    stats_.hedge_wins.add();
    obs::trace_instant("hedge_won", [&] {
      return obs::TraceArgs().arg("worker", node).arg("qid", qid);
    });
  } else if (health_) {
    health_->record_success(static_cast<int>(w), now_() - t_sent_);
  }
}

void WorkerFleet::hedge_to(std::size_t w, const Tensor& input) {
  try {
    backups_[w]->send(infer_frame(input, /*hedged=*/true));
  } catch (const Error& e) {
    LOG_WARN("hedge to worker " << w + 1
                                << "'s backup failed on send: " << e.what());
    return;
  }
  ++flight_[w].backup_outstanding;
  stats_.hedges.add();
  obs::trace_instant("hedge_dispatch", [&] {
    return obs::TraceArgs().arg("worker", w + 1).arg("qid", info_.qid);
  });
}

void WorkerFleet::end_dispatch() {
  t_sent_ = now_();
  mark(obs::QueryPhase::broadcast_end);
}

void WorkerFleet::mark(obs::QueryPhase phase) const {
  if (obs::qtl_active()) obs::qtl_master_mark(info_.qid, phase, now_());
}

void WorkerFleet::recv_failed(std::size_t w, bool backup, const Error& e) {
  LOG_WARN("worker " << w + 1 << (backup ? "'s backup" : "")
                     << " failed on recv: " << e.what());
  if (backup) {
    flight_[w].backup_outstanding = 0;
  } else {
    give_up(w);
  }
}

// analyze:hot  (per-query path: hot-path allocation audit root)
std::span<const Answer> WorkerFleet::gather(int quorum,
                                            const Tensor* hedge_input) {
  obs::TraceSpan span("gather", [&] {
    return obs::TraceArgs().arg("qid", info_.qid);
  });
  const int needed =
      quorum > 0 ? std::min(quorum - 1, asked_count_) : asked_count_;
  // The slowest pending worker that has a backup (by health EWMA; lowest
  // index breaks ties deterministically), or size() when there is none.
  const auto slowest_hedgeable = [&] {
    std::size_t slowest = workers_.size();
    double worst = -1.0;
    for (std::size_t w = 0; w < backups_.size(); ++w) {
      if (!flight_[w].pending || backups_[w] == nullptr) continue;
      const double expect =
          health_ ? health_->expected_latency_s(static_cast<int>(w)) : 0.0;
      if (expect > worst) {
        worst = expect;
        slowest = w;
      }
    }
    return slowest;
  };
  const bool can_hedge =
      hedge_input != nullptr && slowest_hedgeable() < workers_.size();
  int hedge_round = 0;
  double hedge_at = std::numeric_limits<double>::infinity();
  double hedge_interval = 0.0;
  if (can_hedge) {
    // Adaptive hedge delay: wait `hedge_factor_` times the slowest
    // outstanding worker's expected latency (half the SLO budget when no
    // health tracker is observing), floored at hedge_min_delay_s_. The
    // same interval paces the later escalation rounds.
    const double slowest =
        health_ ? health_->expected_latency_s(
                      static_cast<int>(slowest_hedgeable()))
                : (worker_timeout_s_ > 0.0 ? worker_timeout_s_ / 2 : 0.0);
    hedge_interval = std::max(hedge_min_delay_s_, hedge_factor_ * slowest);
    hedge_at = t_sent_ + hedge_interval;
  }
  // The need-all wait rule: when every asked worker's answer is required
  // and no hedge can fire, the gather cannot close before its slowest
  // reply, so nothing is gained by looking at a later worker before an
  // earlier one: the loop blocks on the lowest-index pending worker for
  // the rest of the deadline. Polling would cost latency on real channels
  // (the TCP serving path): a pass that finds nothing falls back to a
  // timed wait on ONE source, so a reply landing on another worker sits
  // unread until that slice ends. A blocking receive returns the moment
  // its reply arrives and spends no CPU while waiting.
  const bool need_all = needed >= asked_count_ && !can_hedge;

  // The lowest-index source that can still produce a fresh ANSWER,
  // primaries first; size() when none can. A backup can only while its
  // worker is unanswered — once answered it is drained purely for
  // duplicate reconciliation and must not keep the loop alive.
  std::size_t source = 0;
  bool source_backup = false;
  const auto find_source = [&] {
    for (const bool backup : {false, true}) {
      for (source = 0; source < flight_.size(); ++source) {
        const Flight& f = flight_[source];
        if (backup ? f.backup_outstanding > 0 && !f.answered : f.pending) {
          source_backup = backup;
          return;
        }
      }
    }
  };

  for (;;) {
    if (answered_count_ >= needed) break;
    find_source();
    if (source == workers_.size()) break;  // all answered, failed or errored
    if (need_all) {
      try {
        if (auto raw = recv_within_deadline(*workers_[source])) {
          process_reply(*raw, source, false);
        } else {
          LOG_WARN("worker " << source + 1 << " missed the "
                             << worker_timeout_s_
                             << "s gather deadline; marking failed");
          give_up(source);
        }
      } catch (const Error& e) {
        recv_failed(source, false, e);
      }
      continue;
    }
    // Quorum/hedge polling (DESIGN.md §13): poll every outstanding source
    // round-robin with a zero budget. On a DES mesh a zero-budget receive
    // blocks until quiescence and charges nothing, so the rotation
    // behaves like an ideal deterministic select over the outstanding
    // channels; the bounded no-progress wait at the bottom paces the loop
    // (and burns deadline budget, virtual time included) when every
    // outstanding worker is genuinely silent.
    if (remaining() <= 0.0) {
      for (std::size_t w = 0; w < workers_.size(); ++w) {
        if (!flight_[w].pending) continue;
        LOG_WARN("worker " << w + 1 << " missed the " << worker_timeout_s_
                           << "s gather deadline; marking failed");
        give_up(w);
      }
      break;
    }
    // One zero-budget drain pass over every outstanding source — answered
    // workers' counterparts included, so same-query duplicates are
    // reconciled here rather than going stale next query.
    bool progress = false;
    for (const bool backup : {false, true}) {
      for (std::size_t w = 0; w < workers_.size(); ++w) {
        try {
          while (backup ? flight_[w].backup_outstanding > 0
                        : flight_[w].primary_outstanding) {
            auto raw = (backup ? backups_[w] : workers_[w])->recv_timeout(0.0);
            if (!raw) break;
            progress = true;
            process_reply(*raw, w, backup);
          }
        } catch (const Error& e) {
          recv_failed(w, backup, e);
        }
      }
    }
    if (answered_count_ >= needed) break;
    if (can_hedge && now_() >= hedge_at) {
      if (++hedge_round == 1) {
        // First round: cover only the slowest still-outstanding worker
        // with its backup — the classic single tail hedge.
        const std::size_t slowest = slowest_hedgeable();
        if (slowest < workers_.size()) hedge_to(slowest, *hedge_input);
      } else {
        // Escalation rounds: the first hedge did not close the gather
        // within another interval, so the query is in the drop-loss tail —
        // re-issue to EVERY pending worker's backup, previous in-flight
        // hedges included (a lost hedge is indistinguishable from a slow
        // one; retrying is what bounds p99 under message loss, DESIGN.md
        // §13).
        for (std::size_t w = 0; w < backups_.size(); ++w) {
          if (flight_[w].pending && backups_[w] != nullptr) {
            hedge_to(w, *hedge_input);
          }
        }
      }
      hedge_at += hedge_interval;  // pace the next escalation round
      progress = true;  // a hedged reply may land on the next pass
    }
    if (progress) continue;
    // Nothing moved: block briefly on ONE outstanding source so the wait
    // burns deadline budget (virtual time under simulation) instead of
    // spinning, bounded by the deadline and the pending hedge fire time.
    double wait = worker_timeout_s_ > 0.0 ? worker_timeout_s_ / 8 : 0.005;
    wait = std::min(wait, remaining());
    if (can_hedge) wait = std::min(wait, hedge_at - now_());
    wait = std::max(wait, 1e-6);
    find_source();
    if (source == workers_.size()) continue;
    Channel& channel =
        source_backup ? *backups_[source] : *workers_[source];
    try {
      if (auto raw = channel.recv_timeout(wait)) {
        process_reply(*raw, source, source_backup);
      }
    } catch (const Error& e) {
      recv_failed(source, source_backup, e);
    }
  }
  return {answers_.data(), static_cast<std::size_t>(answered_count_)};
}

void WorkerFleet::shutdown() {
  Message msg;
  msg.type = MsgType::Shutdown;
  const std::string encoded = msg.encode();
  // A closed channel wakes a thread wedged in recv with NetworkError; the
  // Shutdown just sent stays readable until drained.
  std::vector<Channel*> channels = workers_;
  for (auto* backup : backups_) {
    if (backup != nullptr) channels.push_back(backup);
  }
  for (std::size_t i = 0; i < channels.size(); ++i) {
    if (i < slots_.size() && slots_[i].failed) continue;
    try {
      channels[i]->send(encoded);
    } catch (const Error& e) {
      LOG_WARN("channel " << i << " failed on shutdown: " << e.what());
    }
  }
  for (std::size_t i = 0; i < channels.size(); ++i) {
    try {
      channels[i]->close();
    } catch (const Error& e) {
      LOG_WARN("channel " << i << " failed on close: " << e.what());
    }
  }
}

}  // namespace teamnet::net
