#include "serve/server.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "core/activity_engine.h"
#include "core/sim_farm.h"
#include "diag/diag.h"
#include "obs/metrics.h"
#include "sim/compile.h"
#include "sim/engine_factory.h"
#include "support/strutil.h"

namespace essent::serve {

namespace {

using Clock = std::chrono::steady_clock;

uint64_t elapsedNs(Clock::time_point t0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count());
}

// SplitMix64 step: the per-connection chaos schedule. Deterministic for a
// given (seed, connection id), so a pinned-seed campaign replays exactly.
uint64_t nextRand(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double unitRand(uint64_t& state) {
  return static_cast<double>(nextRand(state) >> 11) * 0x1.0p-53;
}

// Compile failure carrying the front end's structured diagnostics, thrown
// out of the cache's compile function and rendered as E0605.
struct DesignRejected : std::runtime_error {
  explicit DesignRejected(obs::Json d)
      : std::runtime_error("design rejected with diagnostics"), diagnostics(std::move(d)) {}
  obs::Json diagnostics;
};

// A request carried both design text and a design_hash that is not the
// content address of that text — a broken client or a cache-poisoning
// attempt. Rendered as E0604 by the handlers.
struct HashMismatch : std::runtime_error {
  HashMismatch(std::string supplied_, std::string computed_)
      : std::runtime_error("design_hash does not match the supplied design"),
        supplied(std::move(supplied_)),
        computed(std::move(computed_)) {}
  std::string supplied;
  std::string computed;
};

}  // namespace

obs::Json ServerStats::toJson() const {
  obs::Json doc = obs::Json::object();
  doc["connections_accepted"] = connectionsAccepted;
  doc["connections_shed"] = connectionsSheded;
  doc["connections_drained"] = connectionsDrained;
  doc["requests_served"] = requestsServed;
  doc["requests_failed"] = requestsFailed;
  doc["framing_errors"] = framingErrors;
  doc["chaos_injected"] = chaosInjected;
  doc["queue_depth_peak"] = queueDepthPeak;
  doc["cache"] = cache.toJson();
  return doc;
}

Server::Server(ServerOptions opts)
    : opts_(std::move(opts)), cache_(opts_.cacheCapacity) {}

Server::~Server() {
  if (started_.load(std::memory_order_acquire)) {
    requestDrain();
    waitDrained();
  }
  if (drainPipe_[0] >= 0) ::close(drainPipe_[0]);
  if (drainPipe_[1] >= 0) ::close(drainPipe_[1]);
}

void Server::start() {
  if (opts_.unixPath.empty() && opts_.tcpPort < 0)
    throw std::runtime_error("essentd: no listener configured (need a unix path or TCP port)");
  if (!opts_.unixPath.empty()) unixListener_ = support::listenUnix(opts_.unixPath);
  if (opts_.tcpPort >= 0) {
    tcpListener_ = support::listenTcp(static_cast<uint16_t>(opts_.tcpPort));
    tcpPort_ = support::boundPort(tcpListener_);
  }
  if (::pipe(drainPipe_) != 0)
    throw std::runtime_error("essentd: cannot create drain pipe");
  opts_.workers = std::max(1u, opts_.workers);
  opts_.queueCapacity = std::max<size_t>(1, opts_.queueCapacity);
  started_.store(true, std::memory_order_release);
  acceptor_ = std::thread([this] { acceptLoop(); });
  for (unsigned w = 0; w < opts_.workers; w++)
    workers_.emplace_back([this, w] { workerLoop(w); });
}

void Server::requestDrain() {
  draining_.store(true, std::memory_order_release);
  // Async-signal-safe wake-up for the acceptor; the byte's value is
  // irrelevant and a full pipe (EAGAIN) still leaves draining_ set.
  if (drainPipe_[1] >= 0) {
    char b = 1;
    [[maybe_unused]] ssize_t r = ::write(drainPipe_[1], &b, 1);
  }
}

void Server::waitDrained() {
  if (acceptor_.joinable()) acceptor_.join();
  {
    std::lock_guard<std::mutex> lock(queueMu_);
    queueClosed_ = true;
  }
  queueCv_.notify_all();
  for (std::thread& t : workers_)
    if (t.joinable()) t.join();
}

ServerStats Server::stats() const {
  std::lock_guard<std::mutex> lock(statsMu_);
  ServerStats s = stats_;
  s.cache = cache_.stats();
  return s;
}

void Server::bumpStat(uint64_t ServerStats::* field, uint64_t n) {
  std::lock_guard<std::mutex> lock(statsMu_);
  stats_.*field += n;
}

void Server::acceptLoop() {
  obs::MetricCounter& rejects =
      obs::MetricsRegistry::global().counter("serve.admission_rejects");
  obs::MetricGauge& depth = obs::MetricsRegistry::global().gauge("serve.queue_depth");
  std::vector<pollfd> fds;
  if (unixListener_.valid()) fds.push_back({unixListener_.fd(), POLLIN, 0});
  if (tcpListener_.valid()) fds.push_back({tcpListener_.fd(), POLLIN, 0});
  fds.push_back({drainPipe_[0], POLLIN, 0});

  while (!draining()) {
    for (pollfd& p : fds) p.revents = 0;
    int pr = ::poll(fds.data(), fds.size(), 500);
    if (pr < 0) continue;  // EINTR and friends: re-check draining
    for (const pollfd& p : fds) {
      if (!(p.revents & POLLIN) || p.fd == drainPipe_[0]) continue;
      support::Socket conn =
          support::acceptOn(p.fd == unixListener_.fd() ? unixListener_ : tcpListener_);
      if (!conn.valid()) continue;
      // Door writes (shed/drain frames) are best-effort: a ~50ms send
      // budget so a peer with a stuffed receive window cannot head-of-line
      // block the single acceptor — exactly the overload condition that
      // triggers shedding. Workers raise the budget before serving.
      timeval doorTv{0, 50'000};
      ::setsockopt(conn.fd(), SOL_SOCKET, SO_SNDTIMEO, &doorTv, sizeof(doorTv));
      bumpStat(&ServerStats::connectionsAccepted);
      if (draining()) {
        support::writeFrame(
            conn.fd(),
            errorResponse(kErrDraining, "server is draining; connection refused",
                          opts_.retryAfterMs)
                .dump(0));
        bumpStat(&ServerStats::connectionsDrained);
        continue;
      }
      bool admitted = false;
      size_t depthNow = 0;
      {
        std::lock_guard<std::mutex> lock(queueMu_);
        if (queue_.size() < opts_.queueCapacity && !queueClosed_) {
          queue_.push_back(conn.release());
          depthNow = queue_.size();
          admitted = true;
        }
      }
      if (admitted) {
        depth.set(static_cast<double>(depthNow));
        {
          std::lock_guard<std::mutex> lock(statsMu_);
          stats_.queueDepthPeak = std::max<uint64_t>(stats_.queueDepthPeak, depthNow);
        }
        queueCv_.notify_one();
      } else {
        // Bounded-queue backpressure: shed the connection with a structured
        // retry hint instead of queueing without limit.
        rejects.add(1);
        bumpStat(&ServerStats::connectionsSheded);
        support::writeFrame(
            conn.fd(),
            errorResponse(kErrOverloaded, "server overloaded; retry after backoff",
                          opts_.retryAfterMs)
                .dump(0));
      }
    }
  }
}

void Server::workerLoop(unsigned) {
  obs::MetricGauge& depth = obs::MetricsRegistry::global().gauge("serve.queue_depth");
  for (;;) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(queueMu_);
      queueCv_.wait(lock, [&] { return !queue_.empty() || queueClosed_; });
      if (queue_.empty()) return;  // closed and drained
      fd = queue_.front();
      queue_.pop_front();
      depth.set(static_cast<double>(queue_.size()));
    }
    support::Socket conn(fd);
    // A stuck peer must not wedge this worker in send(): bound every
    // response write (the acceptor left only the tiny door budget).
    timeval tv{5, 0};
    ::setsockopt(conn.fd(), SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    if (draining()) {
      // Admitted before the drain began but never served: answer with the
      // structured drain error rather than a silent close.
      support::writeFrame(conn.fd(),
                          errorResponse(kErrDraining, "server is draining", opts_.retryAfterMs)
                              .dump(0));
      bumpStat(&ServerStats::connectionsDrained);
      continue;
    }
    serveConnection(std::move(conn), connSeq_.fetch_add(1, std::memory_order_relaxed));
  }
}

void Server::serveConnection(support::Socket conn, uint64_t connId) {
  uint64_t chaosState = opts_.chaos.seed ^ (connId * 0x9e3779b97f4a7c15ULL);
  while (conn.valid()) {
    if (draining()) {
      // Between requests at drain time: the current request (if any) already
      // finished; refuse further ones and close.
      support::writeFrame(conn.fd(),
                          errorResponse(kErrDraining, "server is draining", opts_.retryAfterMs)
                              .dump(0));
      bumpStat(&ServerStats::connectionsDrained);
      return;
    }
    if (!serveOneFrame(conn, chaosState)) return;
  }
}

Server::ChaosPlan Server::chaosDecide(uint64_t& state) {
  ChaosPlan plan;
  if (!opts_.chaos.enabled) return plan;
  plan.slowRead = unitRand(state) < opts_.chaos.slowReadProb;
  plan.drop = unitRand(state) < opts_.chaos.dropProb;
  plan.disconnect = unitRand(state) < opts_.chaos.disconnectProb;
  plan.fail = unitRand(state) < opts_.chaos.failProb;
  if (plan.slowRead || plan.drop || plan.disconnect || plan.fail) {
    bumpStat(&ServerStats::chaosInjected);
    obs::MetricsRegistry::global().counter("serve.chaos_injected").add(1);
  }
  return plan;
}

bool Server::writeResponse(support::Socket& conn, const obs::Json& doc,
                           const ChaosPlan& plan) {
  std::string payload = doc.dump(0);
  if (plan.disconnect) {
    // Chaos: leave the peer with a torn response — header plus half the
    // payload — then close. Clients must treat this as a transport error.
    uint32_t len = static_cast<uint32_t>(payload.size());
    unsigned char hdr[4] = {static_cast<unsigned char>(len >> 24),
                            static_cast<unsigned char>(len >> 16),
                            static_cast<unsigned char>(len >> 8),
                            static_cast<unsigned char>(len)};
    support::sendAll(conn.fd(), hdr, sizeof(hdr));
    support::sendAll(conn.fd(), payload.data(), payload.size() / 2);
    return false;
  }
  return support::writeFrame(conn.fd(), payload);
}

bool Server::serveOneFrame(support::Socket& conn, uint64_t& chaosState) {
  ChaosPlan plan = chaosDecide(chaosState);
  if (plan.slowRead && opts_.chaos.slowMs > 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(opts_.chaos.slowMs));

  std::string payload;
  uint64_t declared = 0;
  support::FrameStatus st = support::readFrame(conn.fd(), payload, opts_.maxFrameBytes,
                                               opts_.idleReadTimeoutMs, &declared);
  switch (st) {
    case support::FrameStatus::Ok:
      break;
    case support::FrameStatus::Eof:
      return false;  // clean close between frames
    case support::FrameStatus::Truncated:
    case support::FrameStatus::TimedOut:
      bumpStat(&ServerStats::framingErrors);
      writeResponse(conn,
                    errorResponse(kErrMalformedFrame,
                                  std::string("malformed frame (") + frameStatusName(st) +
                                      "); framing lost, closing connection"),
                    plan);
      return false;  // the stream is unsynchronized; nothing more to parse
    case support::FrameStatus::Oversized:
      bumpStat(&ServerStats::framingErrors);
      writeResponse(conn,
                    errorResponse(kErrFrameTooLarge,
                                  strfmt("frame of %llu bytes exceeds the %llu byte ceiling",
                                         static_cast<unsigned long long>(declared),
                                         static_cast<unsigned long long>(opts_.maxFrameBytes))),
                    plan);
      return false;  // payload was never drained: stream unusable
    case support::FrameStatus::IoError:
      return false;
  }

  if (plan.drop) return false;  // chaos: request swallowed, no response

  Clock::time_point t0 = Clock::now();
  obs::Json response;
  if (plan.fail) {
    response = errorResponse(kErrInjectedFault, "chaos-injected failure");
  } else {
    try {
      obs::Json doc = obs::Json::parse(payload);
      std::string code, message;
      std::optional<Request> req = parseRequest(doc, code, message);
      if (!req) {
        bumpStat(&ServerStats::framingErrors);
        response = errorResponse(code, message);
      } else {
        response = handleRequest(*req);
        if (req->op == RequestOp::Shutdown && opts_.allowRemoteShutdown) {
          writeResponse(conn, response, plan);
          bumpStat(&ServerStats::requestsServed);
          requestDrain();
          return false;
        }
      }
    } catch (const obs::JsonError& e) {
      bumpStat(&ServerStats::framingErrors);
      response = errorResponse(kErrBadJson, e.what());
    } catch (const DesignRejected& e) {
      response = errorResponse(kErrDesignRejected, "design rejected by the front end");
      response["error"]["diagnostics"] = e.diagnostics;
    } catch (const support::ResourceExhausted& e) {
      bool deadline = e.code() == "E0504";
      response = errorResponse(deadline ? kErrDeadline : kErrResourceLimit,
                               e.code() + std::string(": ") + e.what());
    } catch (const std::exception& e) {
      // The per-request exception wall: anything an engine, cache, or
      // handler throws becomes a structured wire error, never a dead worker.
      response = errorResponse(kErrSimFailed, e.what());
    }
  }

  obs::MetricsRegistry::global().histogram("serve.request_ns").record(elapsedNs(t0));
  obs::MetricsRegistry::global().counter("serve.requests").add(1);
  bumpStat(&ServerStats::requestsServed);
  if (const obs::Json* ok = response.find("ok"); ok && !ok->asBool()) {
    bumpStat(&ServerStats::requestsFailed);
    obs::MetricsRegistry::global().counter("serve.errors").add(1);
  }
  return writeResponse(conn, response, plan);
}

obs::Json Server::handleRequest(const Request& req) {
  switch (req.op) {
    case RequestOp::Ping: {
      if (req.sleepMs > 0 && opts_.enableTestHooks) {
        // Test hook for occupancy/backpressure tests: hold this worker, but
        // stay responsive to drain and bounded by the request deadline.
        int64_t budget = static_cast<int64_t>(req.sleepMs);
        if (opts_.requestDeadlineMs > 0) budget = std::min(budget, opts_.requestDeadlineMs);
        Clock::time_point until = Clock::now() + std::chrono::milliseconds(budget);
        while (Clock::now() < until && !draining())
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      return okResponse(RequestOp::Ping);
    }
    case RequestOp::Compile:
      return handleCompile(req);
    case RequestOp::Run:
      return handleRun(req);
    case RequestOp::Status:
      return handleStatus(req);
    case RequestOp::Evict: {
      obs::Json doc = okResponse(RequestOp::Evict);
      doc["evicted"] = cache_.evict(req.designHash);
      return doc;
    }
    case RequestOp::Shutdown: {
      if (!opts_.allowRemoteShutdown)
        return errorResponse(kErrBadRequest, "remote shutdown is disabled on this server");
      obs::Json doc = okResponse(RequestOp::Shutdown);
      doc["draining"] = true;
      return doc;  // caller triggers the drain after writing this
    }
  }
  return errorResponse(kErrBadRequest, "unhandled op");
}

// Shared by compile and run: resolve (text, options) -> CompiledDesign via
// the content-addressed cache, enforcing the per-request elaboration
// ceilings. Throws DesignRejected / ResourceExhausted on failure.
static DesignCache::Result resolveDesign(DesignCache& cache, const ServerOptions& sopts,
                                         const Request& req) {
  if (req.designText.empty()) {
    std::shared_ptr<const sim::CompiledDesign> d = cache.lookup(req.designHash);
    if (!d)
      throw std::invalid_argument("");  // mapped to E0611 by the caller
    return {std::move(d), req.designHash, true};
  }
  // The cache key is ALWAYS the server-computed content address of the
  // supplied text. A client hash is only ever verified, never trusted —
  // trusting it would let one client cache arbitrary FIRRTL under a key
  // other clients' designs legitimately hash to (cache poisoning).
  std::string hash = designHash(req.designText, req.options);
  if (!req.designHash.empty() && req.designHash != hash)
    throw HashMismatch(req.designHash, hash);
  Clock::time_point t0 = Clock::now();
  DesignCache::Result res = cache.getOrCompile(
      hash, req.designText,
      [&](const std::string& text) -> std::shared_ptr<const sim::CompiledDesign> {
        diag::DiagEngine de;
        de.setSource("<request>", text);
        sim::CompileOptions copts;
        if (req.options.baseline)
          copts.build.constProp = copts.build.cse = copts.build.dce = false;
        copts.limits = sopts.limits;
        auto design = sim::compileDesign(text, copts, de);
        if (!design) throw DesignRejected(de.toJson());
        return design;
      });
  if (!res.cached)
    obs::MetricsRegistry::global().histogram("serve.compile_ns").record(elapsedNs(t0));
  obs::MetricsRegistry::global()
      .counter(res.cached ? "serve.cache_hits" : "serve.cache_misses")
      .add(1);
  return res;
}

obs::Json Server::handleCompile(const Request& req) {
  try {
    DesignCache::Result res = resolveDesign(cache_, opts_, req);
    obs::Json doc = okResponse(RequestOp::Compile);
    doc["design_hash"] = res.hash;
    doc["cached"] = res.cached;
    doc["design"] = obs::Json::object();
    doc["design"]["name"] = res.design->ir.name;
    doc["design"]["ir_ops"] = static_cast<uint64_t>(res.design->ir.ops.size());
    doc["design"]["registers"] = static_cast<uint64_t>(res.design->ir.regs.size());
    doc["design"]["memories"] = static_cast<uint64_t>(res.design->ir.mems.size());
    return doc;
  } catch (const HashMismatch& e) {
    return errorResponse(kErrBadRequest, "design_hash '" + e.supplied +
                                             "' is not the content address of the supplied "
                                             "design (computed '" + e.computed + "')");
  } catch (const std::invalid_argument&) {
    return errorResponse(kErrUnknownDesign, "design_hash not present in the cache");
  }
}

obs::Json Server::handleRun(const Request& req) {
  DesignCache::Result res;
  try {
    res = resolveDesign(cache_, opts_, req);
  } catch (const HashMismatch& e) {
    return errorResponse(kErrBadRequest, "design_hash '" + e.supplied +
                                             "' is not the content address of the supplied "
                                             "design (computed '" + e.computed + "')");
  } catch (const std::invalid_argument&) {
    return errorResponse(kErrUnknownDesign,
                         "design_hash not present in the cache; resend with 'design' text");
  }

  // Cycle admission: the whole request (batch included) pays against one
  // server-side ceiling, so a single request cannot monopolize a worker.
  uint64_t totalCycles = req.cycles;
  uint32_t instances = std::max(1u, req.batch);
  if (req.cycles != 0 && instances > UINT64_MAX / req.cycles) totalCycles = UINT64_MAX;
  else totalCycles = req.cycles * instances;
  if (opts_.maxCyclesPerRequest && totalCycles > opts_.maxCyclesPerRequest)
    return errorResponse(
        kErrResourceLimit,
        strfmt("E0503: request asks for %llu cycles (server ceiling %llu)",
               static_cast<unsigned long long>(totalCycles),
               static_cast<unsigned long long>(opts_.maxCyclesPerRequest)));

  // The per-request survival envelope: wall-clock deadline + state ceilings,
  // checked inside the simulation loop (and inside every farm instance).
  support::ResourceLimits lim = opts_.limits;
  lim.wallDeadlineMs = opts_.requestDeadlineMs;
  support::ResourceGuard guard(lim);
  // Admit against PEAK engine-state residency, not one instance: a batch
  // keeps one live engine per farm worker (instances beyond that run
  // sequentially on freed slots), so the ceiling scales with the smaller
  // of the batch size and the worker count.
  uint64_t stateBytes = sim::estimateStateBytes(res.design->ir);
  uint64_t liveEngines =
      req.batch == 0 ? 1
                     : std::min<uint64_t>(req.batch, std::max(1u, opts_.farmWorkers));
  guard.checkSimMem(stateBytes > UINT64_MAX / liveEngines ? UINT64_MAX
                                                          : stateBytes * liveEngines);

  sim::EngineOptions eo;
  eo.threads = req.options.threads;
  eo.partitionSmallThreshold = req.options.cp;
  if (req.options.lanes > 0) eo.lanes = req.options.lanes;
  std::vector<std::string> warnings;
  eo.warnings = &warnings;
  sim::EngineKind kind = req.options.kind;
  if (kind == sim::EngineKind::Ccss && req.options.threads > 1) kind = sim::EngineKind::CcssPar;

  Clock::time_point t0 = Clock::now();
  obs::Json doc = okResponse(RequestOp::Run);
  doc["design_hash"] = res.hash;
  doc["cached"] = res.cached;

  if (req.batch == 0) {
    std::unique_ptr<sim::Engine> eng = sim::makeEngine(kind, res.design, eo);
    try {
      for (const auto& [name, value] : req.pokes) eng->poke(name, value);
    } catch (const std::out_of_range&) {
      return errorResponse(kErrBadRequest, "pokes name an unknown input signal");
    }
    uint64_t c = 0;
    for (; c < req.cycles && !eng->stopped(); c++) {
      eng->tick();
      if ((c & 255) == 255) guard.checkDeadline();
    }
    doc["cycles"] = c;
    doc["stopped"] = eng->stopped();
    doc["exit_code"] = eng->exitCode();
    obs::Json outputs = obs::Json::object();
    for (int32_t o : res.design->ir.outputs)
      outputs[res.design->ir.signals[static_cast<size_t>(o)].name] =
          eng->peekSigBV(o).toHexString();
    doc["outputs"] = std::move(outputs);
    if (!eng->printOutput().empty()) doc["print_output"] = eng->printOutput();
    if (auto* act = dynamic_cast<const core::ActivityEngine*>(eng.get()))
      doc["effective_activity"] = act->effectiveActivity();
  } else {
    core::FarmOptions fo;
    fo.kind = kind;
    fo.engine = eo;
    fo.engine.warnings = nullptr;
    fo.workers = opts_.farmWorkers;
    fo.guard = &guard;  // shared wall budget across every instance
    std::vector<core::FarmJob> jobs(req.batch);
    for (uint32_t i = 0; i < req.batch; i++) {
      jobs[i].maxCycles = req.cycles;
      jobs[i].init = [&req](sim::Engine& eng) {
        for (const auto& [name, value] : req.pokes) eng.poke(name, value);
      };
    }
    core::SimFarm farm(res.design, fo);
    core::FarmReport report = farm.run(jobs);
    guard.checkDeadline();
    for (const std::string& w : report.warnings) warnings.push_back(w);
    obs::Json farmDoc = obs::Json::object();
    farmDoc["instances"] = static_cast<uint64_t>(report.instances.size());
    farmDoc["workers"] = report.workers;
    farmDoc["total_cycles"] = report.totalCycles;
    farmDoc["wall_seconds"] = report.wallSeconds;
    farmDoc["aggregate_cycles_per_sec"] = report.aggregateCyclesPerSec;
    // Whole nanoseconds: the quantiles interpolate inside a histogram bucket.
    farmDoc["p50_ns"] = static_cast<uint64_t>(std::llround(report.instanceLatency.p50Ns));
    farmDoc["p99_ns"] = static_cast<uint64_t>(std::llround(report.instanceLatency.p99Ns));
    uint64_t failures = 0;
    obs::Json errors = obs::Json::array();
    for (const core::FarmInstanceResult& r : report.instances)
      if (!r.error.empty()) {
        failures++;
        if (errors.size() < 8) errors.push(r.name + ": " + r.error);
      }
    farmDoc["failures"] = failures;
    if (failures) farmDoc["errors"] = std::move(errors);
    doc["farm"] = std::move(farmDoc);
    doc["cycles"] = report.totalCycles;
  }

  doc["elapsed_ms"] =
      static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::milliseconds>(
                                Clock::now() - t0)
                                .count());
  if (!warnings.empty()) {
    obs::Json w = obs::Json::array();
    for (const std::string& s : warnings) w.push(s);
    doc["warnings"] = std::move(w);
  }
  return doc;
}

obs::Json Server::handleStatus(const Request&) {
  obs::Json doc = okResponse(RequestOp::Status);
  doc["draining"] = draining();
  doc["workers"] = opts_.workers;
  doc["queue_capacity"] = static_cast<uint64_t>(opts_.queueCapacity);
  {
    std::lock_guard<std::mutex> lock(queueMu_);
    doc["queue_depth"] = static_cast<uint64_t>(queue_.size());
  }
  doc["stats"] = stats().toJson();
  doc["chaos"] = opts_.chaos.enabled;
  return doc;
}

}  // namespace essent::serve
