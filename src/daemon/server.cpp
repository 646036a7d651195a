#include "daemon/server.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <utility>

#include "daemon/rpc.hpp"
#include "obs/histogram.hpp"
#include "obs/provenance.hpp"
#include "obs/stats.hpp"
#include "rgn/region_row.hpp"
#include "support/faultinject.hpp"
#include "support/string_utils.hpp"

namespace ara::daemon {

namespace fs = std::filesystem;

ARA_STATISTIC(stat_requests, "daemon.requests", "RPC requests handled");
ARA_STATISTIC(stat_request_errors, "daemon.request_errors", "RPC requests answered ok:false");
ARA_STATISTIC(stat_evictions, "daemon.project_evictions",
              "Warm project states evicted by the memory budget");
ARA_STATISTIC(stat_shed_requests, "daemon.overload.shed_requests",
              "Requests shed with overloaded/shutting_down instead of queuing");
ARA_STATISTIC(stat_shed_connections, "daemon.shed.connections",
              "Connections answered overloaded and closed at accept (queue full)");
ARA_STATISTIC(stat_too_large, "daemon.overload.too_large",
              "Request lines rejected for exceeding max_request_bytes");
ARA_STATISTIC(stat_deadline_expired, "daemon.deadline.expired",
              "Analyze units demoted to structured timeouts by a request deadline");
ARA_STATISTIC(stat_idle_closed, "daemon.overload.idle_closed",
              "Connections closed by the per-connection idle/read timeout");
ARA_STATISTIC(stat_accept_retries, "daemon.overload.accept_retries",
              "Transient accept() failures (EMFILE/ENFILE/...) absorbed by retry");
ARA_HISTOGRAM(hist_request, "daemon.request_ns", "RPC request latency (all methods)", "ns");
ARA_HISTOGRAM(hist_analyze, "daemon.analyze_ns", "analyze request latency", "ns");
ARA_HISTOGRAM(hist_query, "daemon.query_ns", "query request latency", "ns");
ARA_HISTOGRAM(hist_explain, "daemon.explain_ns", "explain request latency", "ns");
ARA_HISTOGRAM(hist_queue_depth, "daemon.queue_depth",
              "Accepted-but-unserved connections, sampled at each accept", "conns");

namespace {

/// Logical request failure (unknown project, bad params): caught by
/// handle_line and turned into an ok:false response.
struct RequestError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// False when the client went away or stopped draining (a send timeout set
/// by connection_timeouts() surfaces as EAGAIN): the caller severs.
bool write_all(int fd, std::string_view bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    // MSG_NOSIGNAL: a client that closed its end must cost us a false
    // return, not a process-wide SIGPIPE.
    const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Arms SO_RCVTIMEO/SO_SNDTIMEO on an accepted connection so a stalled
/// client (never completing a request, never draining a response) unblocks
/// the worker instead of pinning it. Best-effort: a failed setsockopt
/// leaves the fd blocking, which only costs the timeout guarantee.
void connection_timeouts(int fd, std::uint64_t timeout_ms) {
  if (timeout_ms == 0) return;
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout_ms / 1000);
  tv.tv_usec = static_cast<suseconds_t>((timeout_ms % 1000) * 1000);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

/// True when a live daemon is already answering on `path`.
bool socket_alive(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  const bool alive =
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0;
  ::close(fd);
  return alive;
}

}  // namespace

DaemonServer::DaemonServer(DaemonOptions opts)
    : opts_(std::move(opts)),
      // At least two request workers: with one, submit() runs inline on the
      // accept thread and a single slow client would block all accepts.
      pool_(std::max<std::size_t>(
          2, opts_.jobs != 0 ? opts_.jobs
                             : std::max<std::size_t>(1, std::thread::hardware_concurrency()))) {
  max_inflight_ = opts_.max_inflight != 0 ? opts_.max_inflight : pool_.size();
}

DaemonServer::~DaemonServer() { stop(); }

bool DaemonServer::start(std::string* error) {
  auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    if (const int lfd = listen_fd_.exchange(-1); lfd >= 0) ::close(lfd);
    return false;
  };

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (opts_.socket_path.size() >= sizeof(addr.sun_path)) {
    return fail("socket path too long: " + opts_.socket_path);
  }
  std::strncpy(addr.sun_path, opts_.socket_path.c_str(), sizeof(addr.sun_path) - 1);

  // A leftover socket file from a dead daemon would make bind() fail with
  // EADDRINUSE forever; a live daemon must win. Probe with a connect: only
  // an unanswered path is reclaimed.
  if (fs::exists(opts_.socket_path)) {
    if (socket_alive(opts_.socket_path)) {
      return fail("a daemon is already listening on " + opts_.socket_path);
    }
    std::error_code ec;
    fs::remove(opts_.socket_path, ec);
  }

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return fail("cannot create socket");
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    return fail("cannot bind " + opts_.socket_path + ": " + std::strerror(errno));
  }
  owns_socket_file_ = true;
  if (::listen(listen_fd_, 16) != 0) {
    return fail("cannot listen on " + opts_.socket_path + ": " + std::strerror(errno));
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
  return true;
}

void DaemonServer::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // Descriptor exhaustion is an overload symptom, not a death sentence:
      // connections in flight will close and free fds. Back off briefly and
      // keep accepting instead of abandoning the listener.
      if ((errno == EMFILE || errno == ENFILE || errno == ENOBUFS || errno == ENOMEM) &&
          !stopping_.load()) {
        stat_accept_retries.bump();
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        continue;
      }
      return;  // listener closed (stop()) or fatal: either way we are done
    }
    if (stopping_.load()) {
      ::close(fd);
      return;
    }
    connection_timeouts(fd, opts_.idle_timeout_ms);
    if (ARA_FAILPOINT("daemon.accept").action == fi::Action::IoError) {
      ::close(fd);  // injected accept-path failure: the connection is lost
      continue;
    }
    if (draining_.load()) {
      write_all(fd, error_response(0, kCodeShuttingDown, "daemon is draining",
                                   static_cast<std::int64_t>(opts_.retry_after_ms)));
      ::close(fd);
      continue;
    }
    // The admission gate for the connection backlog: the queue at its
    // budget means this connection would wait behind work that may never
    // drain (connections pin workers for their lifetime). The bound is
    // hard — no secondary "are the workers really busy" condition, which
    // would let a backlog creep past the budget through idle moments. Shed
    // now, from the (free) accept thread, so the client hears `overloaded`
    // in milliseconds instead of queuing behind heavy work.
    const std::size_t depth = queued_.load();
    hist_queue_depth.record(depth);
    if (opts_.max_queue != 0 && depth >= opts_.max_queue) {
      shed_connections_.fetch_add(1);
      stat_shed_connections.bump();
      write_all(fd, error_response(0, kCodeOverloaded, "connection queue is full",
                                   static_cast<std::int64_t>(opts_.retry_after_ms)));
      ::close(fd);
      continue;
    }
    {
      const std::lock_guard<std::mutex> lock(conn_mu_);
      conn_fds_.insert(fd);
    }
    queued_.fetch_add(1);
    pool_.submit([this, fd] { serve_connection(fd); });
  }
}

void DaemonServer::serve_connection(int fd) {
  queued_.fetch_sub(1);
  using clock = std::chrono::steady_clock;
  const auto line_budget = std::chrono::milliseconds(opts_.idle_timeout_ms);
  std::string buffer;
  clock::time_point line_start{};  // first byte of the pending partial line
  char chunk[4096];
  bool severed = false;
  while (!stopping_.load() && !severed) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // SO_RCVTIMEO expired: an idle keep-alive just goes away; a stalled
      // partial request is a wedged (or hostile) client either way.
      stat_idle_closed.bump();
      break;
    }
    if (n <= 0) break;  // EOF or error: client is done
    if (ARA_FAILPOINT("daemon.read").action == fi::Action::IoError) break;
    if (buffer.empty()) line_start = clock::now();
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (std::size_t nl = buffer.find('\n', start); nl != std::string::npos;
         nl = buffer.find('\n', start)) {
      const std::string line = buffer.substr(start, nl - start);
      start = nl + 1;
      if (line.empty()) continue;
      if (line.size() > opts_.max_request_bytes) {
        too_large_.fetch_add(1);
        stat_too_large.bump();
        write_all(fd, error_response(0, kCodeTooLarge,
                                     "request line exceeds " +
                                         std::to_string(opts_.max_request_bytes) + " bytes",
                                     -1));
        severed = true;
        break;
      }
      // One in-flight request, from parse through the response write: what
      // the admission budget counts and the graceful drain waits on.
      // busy_ covers exactly the handling: it must drop before the response
      // leaves, or a client that sees its reply and immediately sends the
      // next request races the decrement and gets spuriously shed. The
      // write is tracked separately (writing_) so the graceful drain still
      // waits for responses to finish going out.
      busy_.fetch_add(1);
      std::string response = handle_line(line);
      busy_.fetch_sub(1);
      if (ARA_FAILPOINT("daemon.respond").action == fi::Action::IoError) {
        severed = true;  // injected respond fault: client sees a dead socket
        break;
      }
      writing_.fetch_add(1);
      const bool wrote = write_all(fd, response);
      writing_.fetch_sub(1);
      if (!wrote) {
        severed = true;
        break;
      }
    }
    if (severed) break;
    buffer.erase(0, start);
    // An incomplete request keeps growing or trickling: cap both its size
    // (framing DoS) and its age (slow-loris holding a worker hostage).
    if (!buffer.empty()) {
      if (buffer.size() > opts_.max_request_bytes) {
        too_large_.fetch_add(1);
        stat_too_large.bump();
        write_all(fd, error_response(0, kCodeTooLarge,
                                     "request line exceeds " +
                                         std::to_string(opts_.max_request_bytes) + " bytes",
                                     -1));
        break;
      }
      if (opts_.idle_timeout_ms != 0 && clock::now() - line_start > line_budget) {
        stat_idle_closed.bump();
        break;
      }
    }
  }
  {
    const std::lock_guard<std::mutex> lock(conn_mu_);
    conn_fds_.erase(fd);
  }
  ::close(fd);
}

std::string DaemonServer::handle_line(const std::string& line) {
  requests_.fetch_add(1);
  stat_requests.bump();
  const obs::ScopedLatency lat(hist_request);

  std::uint64_t id = 0;
  std::string parse_error;
  const std::optional<RpcRequest> req = parse_request(line, &parse_error, &id);
  if (!req.has_value()) {
    request_errors_.fetch_add(1);
    stat_request_errors.bump();
    return error_response(id, parse_error);
  }

  if (std::optional<std::string> shed = admit(*req)) {
    shed_requests_.fetch_add(1);
    stat_shed_requests.bump();
    return *std::move(shed);
  }

  // The per-request error barrier: no request — malformed, hostile, or
  // tripping an internal bug — takes the daemon down. The failure becomes
  // this request's ok:false response and the serve loop continues.
  try {
    if (const fi::Fired f = ARA_FAILPOINT("daemon.handle", req->method);
        f.action == fi::Action::IoError) {
      throw fi::IoFault("injected daemon.handle fault");
    }
    if (req->method == "analyze") {
      const obs::ScopedLatency mlat(hist_analyze);
      return ok_response(req->id, handle_analyze(req->params));
    }
    if (req->method == "query") {
      const obs::ScopedLatency mlat(hist_query);
      return ok_response(req->id, handle_query(req->params));
    }
    if (req->method == "explain") {
      const obs::ScopedLatency mlat(hist_explain);
      return ok_response(req->id, handle_explain(req->params));
    }
    if (req->method == "status") return ok_response(req->id, handle_status());
    if (req->method == "shutdown") {
      const bool drain = param_bool(req->params, "drain", false);
      request_shutdown(drain);
      return ok_response(req->id, drain ? "{\"stopping\":true,\"drain\":true}"
                                        : "{\"stopping\":true}");
    }
    throw RequestError("unknown method '" + req->method + "'");
  } catch (const std::exception& e) {
    request_errors_.fetch_add(1);
    stat_request_errors.bump();
    return error_response(req->id, e.what());
  } catch (...) {
    request_errors_.fetch_add(1);
    stat_request_errors.bump();
    return error_response(req->id, "internal error (non-standard exception)");
  }
}

std::optional<std::string> DaemonServer::admit(const RpcRequest& req) {
  // status stays answerable under any load (it is how overload is observed)
  // and shutdown must always get through; everything else is shed work.
  if (req.method == "status" || req.method == "shutdown") return std::nullopt;
  if (draining_.load()) {
    return error_response(req.id, kCodeShuttingDown, "daemon is draining",
                          static_cast<std::int64_t>(opts_.retry_after_ms));
  }
  // busy_ counts this request too when it arrived over a socket (the
  // connection's BusyScope), so strictly-greater is "more than the budget
  // running concurrently". Direct handle_line callers (tests) see busy_ ==
  // 0 and are always admitted.
  if (busy_.load() > max_inflight_) {
    return error_response(req.id, kCodeOverloaded,
                          "in-flight budget exhausted (" +
                              std::to_string(max_inflight_) + " requests)",
                          static_cast<std::int64_t>(opts_.retry_after_ms));
  }
  return std::nullopt;
}

std::shared_ptr<serve::ProjectState> DaemonServer::project(const std::string& name,
                                                           bool create) {
  const std::lock_guard<std::mutex> lock(projects_mu_);
  const auto it = projects_.find(name);
  if (it != projects_.end()) {
    it->second->touch();
    return it->second;
  }
  if (!create) {
    throw RequestError("unknown project '" + name +
                       "' (run analyze first, or it was evicted by the memory budget)");
  }
  auto state = std::make_shared<serve::ProjectState>(name);
  projects_.emplace(name, state);
  return state;
}

void DaemonServer::enforce_budget(const std::string& keep) {
  if (opts_.max_resident_mb == 0) return;
  const std::size_t budget = opts_.max_resident_mb * 1024 * 1024;
  const std::lock_guard<std::mutex> lock(projects_mu_);
  for (;;) {
    std::size_t total = 0;
    std::map<std::string, std::shared_ptr<serve::ProjectState>>::iterator lru =
        projects_.end();
    for (auto it = projects_.begin(); it != projects_.end(); ++it) {
      total += it->second->resident_bytes();
      if (it->first == keep) continue;
      if (lru == projects_.end() || it->second->last_used() < lru->second->last_used()) {
        lru = it;
      }
    }
    if (total <= budget || lru == projects_.end()) return;
    // Dropping the map entry is the whole eviction: in-flight requests
    // holding the shared_ptr finish on the old state, the disk summary
    // cache keeps the next analyze warm.
    projects_.erase(lru);
    evictions_.fetch_add(1);
    stat_evictions.bump();
  }
}

std::string DaemonServer::handle_analyze(const json::Value& params) {
  const std::string name = param_string(params, "project", "default");

  std::vector<serve::SourceBuffer> sources;
  if (const json::Value* list = params.find("sources"); list != nullptr && list->is_array()) {
    for (const json::Value& s : list->array) {
      if (!s.is_object()) throw RequestError("'sources' entries must be objects");
      serve::SourceBuffer buf;
      buf.name = param_string(s, "name");
      buf.text = param_string(s, "text");
      const std::string lang = param_string(s, "lang", "fortran");
      buf.lang = (lang == "c" || lang == "C") ? Language::C : Language::Fortran;
      if (buf.name.empty()) throw RequestError("'sources' entries need a 'name'");
      sources.push_back(std::move(buf));
    }
  } else if (const json::Value* paths = params.find("paths");
             paths != nullptr && paths->is_array()) {
    for (const json::Value& p : paths->array) {
      if (!p.is_string()) throw RequestError("'paths' entries must be strings");
      std::optional<serve::SourceBuffer> buf = serve::read_source(p.string, nullptr);
      if (!buf.has_value()) throw RequestError("cannot read " + p.string);
      sources.push_back(std::move(*buf));
    }
  }
  if (sources.empty()) throw RequestError("analyze needs 'sources' or 'paths'");

  serve::BatchOptions bopts;
  bopts.jobs = static_cast<std::size_t>(
      param_u64(params, "jobs", static_cast<std::uint64_t>(opts_.analyze_jobs)));
  bopts.cache_dir = param_string(params, "cache_dir");
  if (!param_bool(params, "use_cache", true)) bopts.cache_dir.clear();
  bopts.interprocedural = param_bool(params, "ipa", true);

  // Deadline: the request's own deadline_ms, else the daemon default.
  // Enforced through the per-unit wall-clock watchdog (support/limits), so
  // an over-deadline unit demotes to a structured Timeout failure inside
  // the engine's barrier — never an unbounded analyze.
  const std::uint64_t deadline_ms =
      param_u64(params, "deadline_ms", opts_.default_deadline_ms);
  if (deadline_ms > 0) {
    const auto deadline = std::chrono::milliseconds(deadline_ms);
    if (bopts.limits.unit_timeout.count() == 0 || deadline < bopts.limits.unit_timeout) {
      bopts.limits.unit_timeout = deadline;
    }
  }

  const std::shared_ptr<serve::ProjectState> state = project(name, /*create=*/true);
  const std::shared_ptr<const serve::ProjectSnapshot> snap = state->analyze(sources, bopts);
  if (ARA_FAILPOINT("daemon.publish", name).action == fi::Action::IoError) {
    throw fi::IoFault("injected daemon.publish fault");
  }
  enforce_budget(name);

  std::uint64_t timeout_units = 0;
  for (const serve::UnitReport& unit : snap->units) {
    if (unit.failure.has_value() && unit.failure->kind == serve::FailureKind::Timeout) {
      ++timeout_units;
    }
  }
  if (timeout_units > 0 && deadline_ms > 0) {
    deadline_expired_.fetch_add(timeout_units);
    stat_deadline_expired.bump(timeout_units);
  }

  std::string diagnostics;
  for (const serve::UnitReport& unit : snap->units) diagnostics += unit.diagnostics;
  diagnostics += snap->link_diagnostics;

  std::ostringstream os;
  os << "{\"project\":\"" << json::escape(name) << "\",\"generation\":" << snap->generation
     << ",\"ok\":" << (snap->ok ? "true" : "false")
     << ",\"partial\":" << (snap->partial ? "true" : "false")
     << ",\"units\":" << snap->units.size() << ",\"failed_units\":" << snap->failed_units
     << ",\"timeout_units\":" << timeout_units
     << ",\"cache_hits\":" << snap->cache_hits << ",\"cache_misses\":" << snap->cache_misses
     << ",\"resident_hits\":" << snap->resident_hits
     << ",\"invalidated_units\":" << snap->invalidated_units
     << ",\"rows\":" << snap->rows.size() << ",\"diagnostics\":\""
     << json::escape(diagnostics) << "\"}";
  return os.str();
}

std::string DaemonServer::handle_query(const json::Value& params) {
  const std::string name = param_string(params, "project", "default");
  const std::string artifact = param_string(params, "artifact", "table");
  const std::string array = to_lower(param_string(params, "array"));

  const std::shared_ptr<serve::ProjectState> state = project(name, /*create=*/false);
  const std::shared_ptr<const serve::ProjectSnapshot> snap = state->snapshot();
  if (snap == nullptr) throw RequestError("project '" + name + "' has no completed analysis");

  std::string text;
  if (artifact == "table") {
    if (array.empty()) {
      text = rgn::render_table(snap->rows);
    } else {
      std::vector<rgn::RegionRow> rows;
      for (const rgn::RegionRow& r : snap->rows) {
        if (to_lower(r.array) == array) rows.push_back(r);
      }
      text = rgn::render_table(rows);
    }
  } else if (artifact == "rgn") {
    text = snap->rgn_text;
  } else if (artifact == "dgn") {
    text = snap->dgn_text;
  } else if (artifact == "cfg") {
    text = snap->cfg_text;
  } else if (artifact == "provenance") {
    text = snap->provenance_jsonl;
  } else {
    throw RequestError("unknown artifact '" + artifact +
                       "' (want table, rgn, dgn, cfg or provenance)");
  }

  std::ostringstream os;
  os << "{\"project\":\"" << json::escape(name) << "\",\"generation\":" << snap->generation
     << ",\"ok\":" << (snap->ok ? "true" : "false")
     << ",\"partial\":" << (snap->partial ? "true" : "false") << ",\"text\":\""
     << json::escape(text) << "\"}";
  return os.str();
}

std::string DaemonServer::handle_explain(const json::Value& params) {
  const std::string name = param_string(params, "project", "default");
  const std::string target = param_string(params, "target");
  const bool loops = param_bool(params, "loops", false);

  const std::shared_ptr<serve::ProjectState> state = project(name, /*create=*/false);
  const std::shared_ptr<const serve::ProjectSnapshot> snap = state->snapshot();
  if (snap == nullptr) throw RequestError("project '" + name + "' has no completed analysis");

  const std::string text = obs::render_explain(snap->provenance, target, loops);
  std::ostringstream os;
  os << "{\"project\":\"" << json::escape(name) << "\",\"generation\":" << snap->generation
     << ",\"text\":\"" << json::escape(text) << "\"}";
  return os.str();
}

std::string DaemonServer::handle_status() {
  std::ostringstream os;
  os << "{\"schema\":\"" << kRpcSchema << "\",\"requests\":" << requests_.load()
     << ",\"request_errors\":" << request_errors_.load()
     << ",\"evictions\":" << evictions_.load()
     << ",\"max_resident_mb\":" << opts_.max_resident_mb << ",\"overload\":{"
     << "\"draining\":" << (draining_.load() ? "true" : "false")
     << ",\"inflight\":" << busy_.load() << ",\"max_inflight\":" << max_inflight_
     << ",\"queued\":" << queued_.load() << ",\"max_queue\":" << opts_.max_queue
     << ",\"shed_requests\":" << shed_requests_.load()
     << ",\"shed_connections\":" << shed_connections_.load()
     << ",\"too_large\":" << too_large_.load()
     << ",\"deadline_expired\":" << deadline_expired_.load() << "},\"projects\":[";
  {
    const std::lock_guard<std::mutex> lock(projects_mu_);
    bool first = true;
    for (const auto& [name, state] : projects_) {
      if (!first) os << ',';
      first = false;
      const std::shared_ptr<const serve::ProjectSnapshot> snap = state->snapshot();
      os << "{\"name\":\"" << json::escape(name)
         << "\",\"generation\":" << (snap != nullptr ? snap->generation : 0)
         << ",\"resident_bytes\":" << state->resident_bytes() << "}";
    }
  }
  os << "],\"latency\":{";
  bool first = true;
  for (const obs::HistogramSnapshot& h :
       obs::HistogramRegistry::instance().snapshot(/*nonempty_only=*/true)) {
    if (h.name.rfind("daemon.", 0) != 0) continue;
    if (!first) os << ',';
    first = false;
    os << '"' << json::escape(h.name) << "\":{\"count\":" << h.count
       << ",\"p50\":" << h.percentile(0.50) << ",\"p99\":" << h.percentile(0.99) << "}";
  }
  os << "}}";
  return os.str();
}

void DaemonServer::wait() {
  std::unique_lock<std::mutex> lock(done_mu_);
  done_cv_.wait(lock, [this] { return done_; });
}

void DaemonServer::request_shutdown(bool drain) {
  if (drain) draining_.store(true);
  {
    const std::lock_guard<std::mutex> lock(done_mu_);
    done_ = true;
  }
  done_cv_.notify_all();
}

void DaemonServer::stop() {
  if (stopping_.exchange(true)) {
    if (accept_thread_.joinable()) accept_thread_.join();
    return;
  }
  if (const int lfd = listen_fd_.exchange(-1); lfd >= 0) {
    ::shutdown(lfd, SHUT_RDWR);
    ::close(lfd);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (draining_.load() && opts_.drain_ms > 0) {
    // Graceful drain: give in-flight requests (busy_ spans handling through
    // the response write) up to the drain budget to finish before severing.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(opts_.drain_ms);
    while ((busy_.load() > 0 || writing_.load() > 0) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  {
    // Sever open connections so handlers blocked in read() unblock; the
    // handlers themselves close the fds on their way out.
    const std::lock_guard<std::mutex> lock(conn_mu_);
    for (const int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  {
    const std::lock_guard<std::mutex> lock(done_mu_);
    done_ = true;
  }
  done_cv_.notify_all();
  // Only unlink a socket file this server bound: a DaemonServer whose
  // start() was refused because a live daemon owns the path must not
  // delete that daemon's socket on its way out.
  if (owns_socket_file_) {
    std::error_code ec;
    fs::remove(opts_.socket_path, ec);
  }
}

}  // namespace ara::daemon
