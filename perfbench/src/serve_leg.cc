// The serve leg of bus_batch's traced run: an in-process MatchServer
// (2 workers) on loopback, driven through serve::ServeClient by one
// generator with at most nproc connections and threads, open loop at
// seeded Poisson arrivals over a four-tenant mix. It gives the serve
// and exec layers' per-layer metrics.
//
// Latency runs from the scheduled send time, so waiting for an idle
// connection counts. A phase whose generator ran later than
// kMaxGeneratorLateMs (p95) is invalid and fails the run.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <random>
#include <sstream>
#include <thread>
#include <tuple>

#include "instances.h"
#include "obs/trace.h"
#include "report.h"
#include "serve/client.h"
#include "serve/server.h"
#include "stats.h"
#include "traced.h"

namespace perfbench {

namespace {

using hematch::EventLog;
using hematch::Result;
using hematch::Status;
using Clock = std::chrono::steady_clock;

// Fixed rate, set once from the capacity measured on a 4-core x86-64
// virtual machine when the benchmark was defined: 100 to 200 requests/s
// depending on the seed and the machine's load. At this rate, below half
// the lowest capacity seen, requests still queue behind the 2 workers.
constexpr double kRate = 40.0;
constexpr double kMaxGeneratorLateMs = 10.0;
constexpr std::size_t kRequests = 200;

constexpr std::size_t kReadPairs = 16;
constexpr std::size_t kReadTraces = 3000;
constexpr std::size_t kReadDecoys = 8;
constexpr std::size_t kWritePairs = 16;
constexpr std::size_t kWriteTraces = 1000;
constexpr std::size_t kWorkers = 2;
// Warm-context capacity: every read pair plus a few write pairs, so the
// write rotation (longer than the free slots) always misses the cache.
constexpr std::size_t kMaxContexts = kReadPairs + 4;

enum class Tenant { kRead, kHeuristic, kParallel, kWrite };

const char* TenantName(Tenant t) {
  switch (t) {
    case Tenant::kRead:
      return "reads";
    case Tenant::kHeuristic:
      return "heuristic";
    case Tenant::kParallel:
      return "parallel";
    case Tenant::kWrite:
      return "writes";
  }
  return "?";
}

// One registered pair: its instance (answer key) plus the client-side
// parse used to check replies.
struct Pair {
  std::string name1;
  std::string name2;
  Instance inst;
  EventLog log1;
  EventLog log2;
};

struct Request {
  double offset_ms = 0.0;  ///< Scheduled send, from the phase start.
  Tenant tenant = Tenant::kRead;
  std::size_t pair = 0;
};

// What one request came back with.
struct Outcome {
  bool ok = false;
  bool rejected = false;
  bool wrong = false;  ///< Checked answer differs; fails the run.
  std::string error;
  Tenant tenant = Tenant::kRead;
  double latency_ms = 0.0;  ///< From the scheduled send.
  double send_to_reply_ms = 0.0;
  double late_ms = 0.0;  ///< Generator's own delay in sending.
  double register_ms = 0.0;
  double queue_ms = 0.0;
  double run_ms = 0.0;
  bool context_warm = false;
  bool shed = false;
  bool degraded = false;
};

struct Server {
  std::unique_ptr<hematch::serve::MatchServer> server;
  std::vector<Pair> reads;
  std::vector<Pair> writes;

  Server() = default;
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;
  Server(Server&&) = default;
  Server& operator=(Server&&) = default;
  ~Server() { Stop(); }

  void Stop() {
    if (server != nullptr) {
      server->RequestDrain();
      server->Wait();
      server.reset();
    }
  }
};

hematch::serve::ClientOptions ClientFor(const Server& s) {
  hematch::serve::ClientOptions options;
  options.port = s.server->port();
  options.read_timeout_ms = 60000.0;
  options.max_retries = 0;
  return options;
}

Result<Pair> MakePair(const BusSpec& spec, std::uint64_t seed,
                      const std::string& name) {
  Pair p;
  p.inst = MakeBusInstance(spec, seed);
  HEMATCH_RETURN_IF_ERROR(AddAnswerKey(p.inst));
  HEMATCH_ASSIGN_OR_RETURN(p.log1, ParseLog(p.inst.text1, p.inst.format1));
  HEMATCH_ASSIGN_OR_RETURN(p.log2, ParseLog(p.inst.text2, p.inst.format2));
  p.name1 = name + "_1";
  p.name2 = name + "_2";
  return p;
}

Status RegisterPair(hematch::serve::ServeClient& client, const Pair& p) {
  for (const auto& [name, format, text] :
       {std::tuple{&p.name1, p.inst.format1, &p.inst.text1},
        std::tuple{&p.name2, p.inst.format2, &p.inst.text2}}) {
    Result<hematch::serve::ServeResponse> r =
        client.RegisterLogText(*name, FormatName(format), *text);
    if (!r.ok()) return r.status();
    if (!r->ok) {
      return Status::Internal("register " + *name + ": " + r->error_code +
                              " " + r->error_message);
    }
  }
  return Status::OK();
}

hematch::serve::MatchRequestSpec SpecFor(Tenant tenant, const Pair& p) {
  hematch::serve::MatchRequestSpec spec;
  spec.log1 = p.name1;
  spec.log2 = p.name2;
  spec.patterns = p.inst.patterns;
  spec.tenant = TenantName(tenant);
  spec.deadline_ms = 10000.0;
  spec.method = tenant == Tenant::kHeuristic  ? "heuristic"
                : tenant == Tenant::kParallel ? "parallel"
                                              : "auto";
  spec.search_threads = tenant == Tenant::kParallel ? 2 : 0;
  return spec;
}

// Checks one match reply against the pair's answer key: a certified
// exact reply must hit the reference optimum, any other reply must not
// exceed it, and the mapping must be injective over the right names.
void CheckReply(const hematch::serve::ServeResponse& resp, const Pair& p,
                Outcome& out) {
  const hematch::obs::JsonValue& body = resp.body;
  auto number = [&](const char* key) {
    const hematch::obs::JsonValue* v = body.Find(key);
    return v == nullptr ? 0.0 : v->NumberOr(0.0);
  };
  auto flag = [&](const char* key) {
    const hematch::obs::JsonValue* v = body.Find(key);
    return v != nullptr && v->kind == hematch::obs::JsonValue::Kind::kBool &&
           v->boolean;
  };
  out.queue_ms = number("queue_ms");
  out.run_ms = number("elapsed_ms");
  out.context_warm = flag("context_warm");
  out.shed = number("shed_level") > 0.0;
  out.degraded = flag("degraded");
  const double objective = number("objective");
  const hematch::obs::JsonValue* term = body.Find("termination");
  const bool certified = flag("bounds_certified") && term != nullptr &&
                         term->TextOr("") == "completed";
  const double ref = p.inst.reference_objective;
  const double tol = 1e-9 * std::max(1.0, std::abs(ref));
  if (certified ? std::abs(objective - ref) > tol : objective > ref + tol) {
    out.wrong = true;
    out.error = std::string(certified ? "certified" : "uncertified") +
                " objective " + std::to_string(objective) +
                " vs reference " + std::to_string(ref);
    return;
  }
  std::vector<std::pair<std::string, std::string>> pairs;
  const hematch::obs::JsonValue* mapping = body.Find("mapping");
  if (mapping != nullptr) {
    for (const hematch::obs::JsonValue& item : mapping->items) {
      if (item.items.size() == 2) {
        pairs.emplace_back(item.items[0].TextOr(""), item.items[1].TextOr(""));
      }
    }
  }
  const bool swapped = p.log1.num_events() > p.log2.num_events();
  const EventLog& source = swapped ? p.log2 : p.log1;
  const EventLog& target = swapped ? p.log1 : p.log2;
  Result<hematch::Mapping> found =
      MappingFromNames(pairs, source, target, swapped);
  if (!found.ok() || found->size() != source.num_events()) {
    out.wrong = true;
    out.error = found.ok() ? "mapping is not total"
                           : "bad mapping: " + found.status().ToString();
    return;
  }
  out.ok = true;
}

// Sends one scheduled request on `client` and checks the answer.
void Execute(hematch::serve::ServeClient& client, const Server& s,
             const Request& req, Outcome& out) {
  out.tenant = req.tenant;
  const Pair& p =
      req.tenant == Tenant::kWrite ? s.writes[req.pair] : s.reads[req.pair];
  if (req.tenant == Tenant::kWrite) {
    const Clock::time_point start = Clock::now();
    const Status registered = RegisterPair(client, p);
    out.register_ms = MsSince(start);
    if (!registered.ok()) {
      out.error = registered.ToString();
      return;
    }
  }
  Result<hematch::serve::ServeResponse> resp =
      client.Match(SpecFor(req.tenant, p));
  if (!resp.ok()) {
    out.error = "transport: " + resp.status().ToString();
    return;
  }
  if (!resp->ok) {
    out.rejected = resp->error_code.rfind("REJECTED", 0) == 0;
    out.wrong = !out.rejected;  // An error reply is a program failure.
    out.error = resp->error_code + ": " + resp->error_message;
    return;
  }
  CheckReply(*resp, p, out);
}

// The tenant mix: 60% warm reads, 15% heuristic, 10% parallel, 15%
// writes (register a pair from a rotation larger than the server's
// free warm-context slots, then match it cold).
Request DrawRequest(std::mt19937_64& rng, std::size_t& next_write) {
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::uniform_int_distribution<std::size_t> read_pair(0, kReadPairs - 1);
  const double x = u(rng);
  Request r;
  if (x < 0.60) {
    r.tenant = Tenant::kRead;
  } else if (x < 0.75) {
    r.tenant = Tenant::kHeuristic;
  } else if (x < 0.85) {
    r.tenant = Tenant::kParallel;
  } else {
    r.tenant = Tenant::kWrite;
  }
  r.pair = r.tenant == Tenant::kWrite ? next_write++ % kWritePairs
                                      : read_pair(rng);
  return r;
}

std::vector<Request> Schedule(double rate_rps, std::size_t count,
                              std::mt19937_64& rng, std::size_t& next_write) {
  std::exponential_distribution<double> gap(rate_rps / 1000.0);
  std::vector<Request> out;
  double t = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    t += gap(rng);
    Request r = DrawRequest(rng, next_write);
    r.offset_ms = t;
    out.push_back(r);
  }
  return out;
}

struct PhaseResult {
  std::string name;
  double rate_rps = 0.0;
  std::vector<Outcome> outcomes;
  RequestTally tally;
  std::vector<double> late_ms;

  double p(double percentile) const {
    return Percentile(tally.latencies_ms, percentile, percentile == 50.0 ? 1 : 10)
        .value_or(kFailedLatency);
  }
};

// Runs `schedule` open loop over `connections` connections. Each
// connection takes the next scheduled request as soon as it is idle,
// waits for its send time, and sends it; a request that finds every
// connection busy waits, and that wait counts in its latency.
PhaseResult RunOpenLoop(const Server& s, const std::string& name,
                        double rate_rps, const std::vector<Request>& schedule,
                        std::size_t connections,
                        hematch::obs::TraceRecorder* rec) {
  PhaseResult phase;
  phase.name = name;
  phase.rate_rps = rate_rps;
  phase.outcomes.resize(schedule.size());
  std::atomic<std::size_t> next{0};
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
  auto worker = [&]() {
    hematch::serve::ServeClient client(ClientFor(s));
    for (std::size_t i = next.fetch_add(1); i < schedule.size();
         i = next.fetch_add(1)) {
      const Clock::time_point idle = Clock::now();
      const Clock::time_point due =
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double, std::milli>(
                       schedule[i].offset_ms));
      std::this_thread::sleep_until(due);
      const Clock::time_point send = Clock::now();
      Outcome& out = phase.outcomes[i];
      out.late_ms = std::chrono::duration<double, std::milli>(
                        send - std::max(due, idle))
                        .count();
      {
        hematch::obs::ScopedSpan span(rec, "serve.request", "serve");
        span.AddArg("instance", static_cast<double>(i));
        Execute(client, s, schedule[i], out);
        if (rec != nullptr) {
          // The reply's queue wait and run time as child intervals of
          // the client span, placed after the registration (if any).
          const double base = rec->NowUs() - MsSince(send) * 1000.0 +
                              out.register_ms * 1000.0;
          rec->RecordSpan("serve.queue", "serve", rec->NextSpanId(),
                          span.id(), base, out.queue_ms * 1000.0, {});
          rec->RecordSpan("serve.run", "serve", rec->NextSpanId(), span.id(),
                          base + out.queue_ms * 1000.0, out.run_ms * 1000.0,
                          {});
          if (out.register_ms > 0.0) {
            rec->RecordSpan("serve.register", "serve", rec->NextSpanId(),
                            span.id(), base - out.register_ms * 1000.0,
                            out.register_ms * 1000.0, {});
          }
        }
      }
      const Clock::time_point end = Clock::now();
      out.send_to_reply_ms =
          std::chrono::duration<double, std::milli>(end - send).count();
      out.latency_ms =
          std::chrono::duration<double, std::milli>(end - due).count();
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < connections; ++c) {
    threads.emplace_back(worker);
  }
  for (std::thread& t : threads) {
    t.join();
  }
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const Outcome& out = phase.outcomes[i];
    if (out.ok) {
      phase.tally.AddSuccess(out.latency_ms);
    } else {
      phase.tally.AddFailure();
    }
    phase.late_ms.push_back(out.late_ms);
  }
  return phase;
}

Result<Server> SetUp(std::uint64_t seed) {
  Server s;
  for (std::size_t k = 0; k < kReadPairs; ++k) {
    HEMATCH_ASSIGN_OR_RETURN(
        Pair p, MakePair({kReadTraces, kReadDecoys, false, LogFormat::kTr},
                         MixSeed(seed, 100 + k), std::string("r") += std::to_string(k)));
    s.reads.push_back(std::move(p));
  }
  for (std::size_t k = 0; k < kWritePairs; ++k) {
    HEMATCH_ASSIGN_OR_RETURN(
        Pair p, MakePair({kWriteTraces, 0, false, LogFormat::kCsv},
                         MixSeed(seed, 200 + k), std::string("w") += std::to_string(k)));
    s.writes.push_back(std::move(p));
  }
  hematch::serve::ServerOptions options;
  options.workers = static_cast<int>(kWorkers);
  options.max_contexts = kMaxContexts;
  options.max_logs = 2 * (kReadPairs + kWritePairs);
  s.server = std::make_unique<hematch::serve::MatchServer>(options);
  HEMATCH_RETURN_IF_ERROR(s.server->Start());
  hematch::serve::ServeClient client(ClientFor(s));
  // Register the read pairs and warm their contexts with one request
  // per read tenant.
  for (const Pair& p : s.reads) {
    HEMATCH_RETURN_IF_ERROR(RegisterPair(client, p));
    for (Tenant t : {Tenant::kRead, Tenant::kHeuristic, Tenant::kParallel}) {
      Result<hematch::serve::ServeResponse> r = client.Match(SpecFor(t, p));
      if (!r.ok()) return r.status();
      if (!r->ok) return Status::Internal("warm-up: " + r->error_message);
    }
  }
  return s;
}

Result<hematch::obs::JsonValue> StatsCounters(const Server& s) {
  hematch::serve::ServeClient client(ClientFor(s));
  HEMATCH_ASSIGN_OR_RETURN(hematch::serve::ServeResponse r, client.Stats());
  const hematch::obs::JsonValue* t = r.body.Find("telemetry");
  const hematch::obs::JsonValue* c = t == nullptr ? nullptr : t->Find("counters");
  if (c == nullptr) return Status::Internal("stats reply without counters");
  return *c;
}

double CounterDelta(const hematch::obs::JsonValue& before,
                    const hematch::obs::JsonValue& after, const char* key) {
  auto get = [&](const hematch::obs::JsonValue& v) {
    const hematch::obs::JsonValue* x = v.Find(key);
    return x == nullptr ? 0.0 : x->NumberOr(0.0);
  };
  return get(after) - get(before);
}

std::string Describe(const PhaseResult& phase) {
  std::ostringstream line;
  line << phase.name << " @ " << phase.rate_rps << " rps: sent "
       << phase.tally.attempted << ", succeeded "
       << phase.tally.attempted - phase.tally.failed << ", failed "
       << phase.tally.failed << "; p50 " << phase.p(50.0) << " ms, p95 "
       << phase.p(95.0) << " ms; generator late p95 "
       << Percentile(phase.late_ms, 95.0, 1).value_or(0.0) << " ms";
  return line.str();
}

// Server-side per-layer metrics from one traced open-loop phase: the
// replies' queue and run times, the client spans' self time, and the
// parallel matcher's counters as the difference of the stats op since
// `before`.
void ReportServeLayers(const Server& s, const PhaseResult& phase,
                       const hematch::obs::TraceRecorder& recorder,
                       const hematch::obs::JsonValue& before,
                       Report& report) {
  std::vector<double> queue, run, overhead, reg, cold, parallel_run;
  double warm = 0, shed = 0, degraded = 0, matched = 0, rejected = 0;
  for (const Outcome& out : phase.outcomes) {
    rejected += out.rejected ? 1 : 0;
    if (!out.ok) continue;
    ++matched;
    queue.push_back(out.queue_ms);
    run.push_back(out.run_ms);
    warm += out.context_warm ? 1 : 0;
    shed += out.shed ? 1 : 0;
    degraded += out.degraded ? 1 : 0;
    if (out.tenant == Tenant::kParallel) parallel_run.push_back(out.run_ms);
    if (out.tenant == Tenant::kWrite) {
      reg.push_back(out.register_ms);
      cold.push_back(out.send_to_reply_ms - out.register_ms);
    }
  }
  // Client-side overhead: self time of the serve.request spans
  // (protocol, session thread, context lookup) once the reply's queue
  // and run intervals and the registration are taken out.
  for (const SpanRecord& r : CollectSpans(recorder)) {
    if (r.name == "serve.request") overhead.push_back(r.self_ms);
  }
  auto p = [](const std::vector<double>& v, double q) {
    return Percentile(v, q, q == 50.0 ? 1 : 10).value_or(0.0);
  };
  report.Set("serve.queue_ms.p50", p(queue, 50.0));
  report.Set("serve.queue_ms.p95", p(queue, 95.0));
  report.Set("serve.run_ms.p50", p(run, 50.0));
  report.Set("serve.run_ms.p95", p(run, 95.0));
  report.Set("serve.overhead_ms.p50", p(overhead, 50.0));
  report.Set("serve.register_ms.p50", p(reg, 50.0));
  report.Set("serve.cold_match_ms.p50", p(cold, 50.0));
  report.Set("serve.parallel_run_ms.p50", p(parallel_run, 50.0));
  report.Set("serve.context_warm_ratio", matched > 0 ? warm / matched : 0.0);
  report.Set("serve.shed_share", matched > 0 ? shed / matched : 0.0);
  report.Set("serve.degraded_share", matched > 0 ? degraded / matched : 0.0);
  report.Set("serve.rejected_share",
             rejected / static_cast<double>(phase.outcomes.size()));
  report.Set("serve.generator_late_ms.p95", p(phase.late_ms, 95.0));
  Result<hematch::obs::JsonValue> after = StatsCounters(s);
  if (!after.ok()) {
    report.Fail("stats: " + after.status().ToString());
    return;
  }
  for (const char* key :
       {"pastar.handoffs", "pastar.steals", "pastar.mailbox_full"}) {
    report.Set(key, CounterDelta(before, *after, key));
  }
}

// Accounts one phase's requests in the report; wrong answers and an
// over-late generator fail the run.
void TallyPhase(const PhaseResult& phase, Report& report) {
  Report::Info(Describe(phase));
  const double late_p95 = Percentile(phase.late_ms, 95.0, 1).value_or(0.0);
  if (late_p95 > kMaxGeneratorLateMs) {
    report.Fail(phase.name + " invalid: generator ran " +
                std::to_string(late_p95) + " ms late (p95), over the " +
                std::to_string(kMaxGeneratorLateMs) + " ms bound");
  }
  for (const Outcome& out : phase.outcomes) {
    ++report.attempted;
    if (!out.ok) ++report.failed;
    if (out.wrong) report.Fail(phase.name + ": " + out.error);
  }
}

}  // namespace

void MeasureServeLayers(const RunArgs& args, Report& report) {
  Result<Server> built = SetUp(args.seed);
  if (!built.ok()) {
    report.Fail("serve set-up failed: " + built.status().ToString());
    return;
  }
  Server s = std::move(built).value();
  Result<hematch::obs::JsonValue> before = StatsCounters(s);
  if (!before.ok()) {
    report.Fail("stats: " + before.status().ToString());
    return;
  }
  hematch::obs::TraceRecorder recorder;
  std::mt19937_64 rng(MixSeed(args.seed, 0x5e7));
  std::size_t next_write = 0;
  const PhaseResult phase = RunOpenLoop(
      s, "serve leg", kRate, Schedule(kRate, kRequests, rng, next_write),
      std::max(1u, std::thread::hardware_concurrency()), &recorder);
  TallyPhase(phase, report);
  ReportServeLayers(s, phase, recorder, *before, report);
  s.Stop();
}

}  // namespace perfbench
