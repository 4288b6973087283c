// lamb::net::Server — a dependency-free Linux epoll HTTP/1.1 front-end,
// sharded over N independent event loops.
//
// The Server is a thin coordinator: it binds the listeners, builds N
// Reactors (net/reactor.hpp — epoll loop + eventfd completion hub +
// per-connection state machine), runs one per thread, and merges their
// per-loop statistics at scrape time. Each connection is owned by exactly
// one reactor for its whole life: parsing, dispatch, response ordering and
// the write path all happen on the owning loop's thread, so the request
// hot path takes no cross-loop locks (and, warm, no allocations — see the
// inline completion path in net/reactor.cpp).
//
// Listener sharding: with loops > 1 every reactor gets its own
// SO_REUSEPORT listener on the same port and the kernel load-balances new
// connections by 4-tuple hash. Where SO_REUSEPORT is unavailable (or
// ServerConfig::listen forces it) reactor 0 accepts alone and hands the
// accepted fds round-robin to the other loops through their eventfd
// channels.
//
// Handlers never block a loop: a Router handler receives the parsed
// request plus a Responder ticket it may complete from any thread. A
// handler that answers synchronously on the owning loop thread takes the
// inline path — the response serializes straight into the connection's
// output buffer; completions from other threads post to the owning
// reactor's hub, which wakes that loop through its eventfd and splices
// responses in request order, so pipelined clients always read answers in
// the order they asked. A Responder dropped without send() answers 500, so
// a lost ticket can never wedge a connection.
//
// Shutdown is graceful by default: stop() (async-signal-safe — an atomic
// store plus one eventfd write per loop, so a SIGTERM handler may call it;
// idempotent under concurrent callers) closes every listener, lets
// in-flight requests finish and flush on their owning loops, then run()
// joins the loop threads in order and returns.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "net/http.hpp"
#include "support/histogram.hpp"

namespace lamb::net {

struct ServerConfig {
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 picks an ephemeral port (see Server::port())
  int backlog = 128;
  std::size_t max_request_bytes = 1u << 20;  ///< header block + body, framed
  /// Global connection bound, split evenly across loops (each reactor
  /// enforces ceil(max_connections / loops) locally, so the hot path never
  /// consults another loop's count).
  std::size_t max_connections = 1024;
  /// Pipelined requests in flight per connection before the server stops
  /// reading from it (resumes as responses flush).
  std::size_t max_pipeline = 128;
  /// Completed-but-unwritten response bytes per connection (output buffer
  /// plus parked out-of-order completions) before the connection is deemed
  /// abusive (pipelining heavily, never reading) and closed.
  std::size_t max_buffered_response_bytes = 32u << 20;
  /// When > 0, shrink each connection's kernel send buffer (SO_SNDBUF) —
  /// tests use this to force the partial-write path deterministically.
  int so_sndbuf = 0;
  /// Event loops (reactors). 0 means "default": one loop, unless a test
  /// harness overrides it (tests that depend on single-loop semantics pin
  /// loops = 1 explicitly). Capped at 64.
  std::size_t loops = 0;
  /// How new connections reach the loops when loops > 1. kAuto tries
  /// per-loop SO_REUSEPORT listeners and falls back to the acceptor
  /// handoff; the explicit values force one path (kReusePort throws when
  /// the kernel refuses; kAcceptor is deterministic round-robin, which the
  /// connection-ownership tests rely on).
  enum class Listen : std::uint8_t { kAuto, kReusePort, kAcceptor };
  Listen listen = Listen::kAuto;
  /// Admission control: when > 0 and a loop sees new request bytes arrive
  /// while it already has ceil(max_in_flight / loops) requests in flight
  /// (split per loop like max_connections, so the check stays loop-local),
  /// it answers a prebuilt 503 with Retry-After and closes — before
  /// parsing, without allocating, without dispatching. 0 disables the
  /// watermark.
  std::size_t max_in_flight = 0;
  /// Seconds advertised in the 503's Retry-After header.
  int retry_after_s = 1;
  /// Extra admission signal, sampled per arriving request batch (e.g. the
  /// selection service's build-queue depth crossing a watermark). Returning
  /// true sheds exactly like the in-flight watermark. Must be fast and
  /// thread-safe; null disables it.
  std::function<bool()> shed_hook;
  /// Close connections idle (no read, no pending response) longer than
  /// this; each reactor sweeps its own connections on a coarse 50 ms tick.
  /// 0 disables the reaper.
  double idle_timeout_s = 0.0;
};

/// The front-end counts as one field list, instantiated for the live
/// per-reactor atomics (HttpStats) and for their plain scrape-time sum
/// (HttpStatsSnapshot).
template <typename Count>
struct HttpCounts {
  Count connections_accepted{};
  Count connections_rejected{};  ///< over the cap
  Count requests_total{};
  Count responses_2xx{};
  Count responses_4xx{};
  Count responses_5xx{};
  Count responses_other{};
  Count parse_errors{};
  Count requests_shed{};  ///< 503s from admission control
  Count idle_reaped{};    ///< connections closed idle
  Count accept_faults{};  ///< net.accept injections
  Count write_faults{};   ///< net.write injections
  Count bytes_read{};
  Count bytes_written{};
  // Live gauges, not monotonic: open connections, and requests dispatched
  // to a handler whose completion has not reached the owning loop yet.
  Count connections_active{};
  Count requests_in_flight{};

  /// One row per count, in /metrics order: the lamb_http_* family it
  /// feeds, that family's help text, the series' labels, and whether the
  /// family is a gauge. A row without a name is one more series of the
  /// family above it.
  struct Field {
    Count HttpCounts::*count;
    const char* name;
    const char* help;
    const char* labels = "";
    bool gauge = false;
  };
  static constexpr Field kFields[] = {
      {&HttpCounts::connections_accepted,
       "lamb_http_connections_accepted_total", "Connections accepted."},
      {&HttpCounts::connections_rejected,
       "lamb_http_connections_rejected_total",
       "Connections refused (over max_connections or fd exhaustion)."},
      {&HttpCounts::requests_total, "lamb_http_requests_total",
       "HTTP requests dispatched."},
      {&HttpCounts::responses_2xx, "lamb_http_responses_total",
       "HTTP responses by status class.", "{class=\"2xx\"}"},
      {&HttpCounts::responses_4xx, nullptr, nullptr, "{class=\"4xx\"}"},
      {&HttpCounts::responses_5xx, nullptr, nullptr, "{class=\"5xx\"}"},
      {&HttpCounts::responses_other, nullptr, nullptr, "{class=\"other\"}"},
      {&HttpCounts::parse_errors, "lamb_http_parse_errors_total",
       "Malformed requests answered 4xx."},
      {&HttpCounts::requests_shed, "lamb_http_requests_shed_total",
       "Requests answered the prebuilt admission 503 before parse."},
      {&HttpCounts::idle_reaped, "lamb_http_idle_reaped_total",
       "Connections closed by the idle reaper."},
      {&HttpCounts::accept_faults, "lamb_http_accept_faults_total",
       "Accepted connections dropped by net.accept fault injection."},
      {&HttpCounts::write_faults, "lamb_http_write_faults_total",
       "Connections torn down by net.write fault injection."},
      {&HttpCounts::bytes_read, "lamb_http_bytes_read_total",
       "Bytes read from clients."},
      {&HttpCounts::bytes_written, "lamb_http_bytes_written_total",
       "Bytes written to clients."},
      {&HttpCounts::connections_active, "lamb_http_connections_active",
       "Currently open client connections.", "", true},
      {&HttpCounts::requests_in_flight, "lamb_http_requests_in_flight",
       "Requests dispatched to a handler, response not yet queued.", "",
       true},
  };
};

/// Front-end counters for ONE reactor, all updated with relaxed atomics by
/// the owning loop; read them live from any thread. The /metrics route
/// renders the per-loop series from these and the aggregate from
/// Server::stats().
struct HttpStats : HttpCounts<std::atomic<std::uint64_t>> {
  /// epoll_wait returns; exported per loop only.
  std::atomic<std::uint64_t> epoll_wakeups{0};
  /// Dispatch-to-response-queued seconds per request.
  support::LatencyHistogram request_latency;
};

/// Plain-value aggregate of one or more HttpStats, merged at scrape time.
/// Server::stats() returns the whole-server sum.
struct HttpStatsSnapshot : HttpCounts<std::uint64_t> {
  std::uint64_t epoll_wakeups = 0;
  support::LatencyHistogram::Snapshot request_latency;

  /// Accumulate one reactor's live counters into this snapshot.
  void merge(const HttpStats& stats);
};

class Server;
class Reactor;

namespace detail {
struct ResponderTicket;  // defined in net/reactor.hpp
}

/// Completion ticket for one request. Copyable (handlers live in
/// std::function); the first send() wins, and if every copy is destroyed
/// unsent the server answers 500 on the request's behalf. send() is safe
/// from any thread and harmless after the server has stopped. Tickets are
/// pooled per reactor and intrusively refcounted, so the warm request path
/// allocates nothing.
class Responder {
 public:
  Responder() = default;
  Responder(const Responder& other);
  Responder& operator=(const Responder& other);
  Responder(Responder&& other) noexcept;
  Responder& operator=(Responder&& other) noexcept;
  ~Responder();

  void send(Response response) const;
  /// Zero-copy variant: called on the owning loop thread with responses in
  /// order, the parts serialize straight into the connection's output
  /// buffer — no Response, no string copies. Falls back to an ordinary
  /// posted completion otherwise. The views need only survive the call.
  void send(int status, std::string_view content_type,
            std::string_view body) const;

 private:
  friend class Server;
  friend class Reactor;
  /// Adopts one reference (the caller's).
  explicit Responder(detail::ResponderTicket* ticket) : ticket_(ticket) {}
  void release();
  detail::ResponderTicket* ticket_ = nullptr;
};

/// Exact-path router. The Request& passed to a handler is valid only for
/// the duration of the dispatch call — a handler that defers (completes the
/// Responder later, from another thread) must copy what it needs first.
/// With loops > 1 every reactor dispatches through the same Router
/// concurrently, so handlers must be thread-safe.
class Router {
 public:
  using Handler = std::function<void(const Request&, Responder)>;
  using SyncHandler = std::function<Response(const Request&)>;

  void handle(std::string method, std::string path, Handler handler);
  /// Sync conveniences: the handler's Response is sent immediately.
  void get(std::string path, SyncHandler handler);
  void post(std::string path, SyncHandler handler);

  /// Route and invoke; unknown path answers 404, known path with the wrong
  /// method 405. Never throws — a throwing handler answers 500.
  void dispatch(const Request& request, Responder responder) const;

 private:
  struct Route {
    std::string method;
    std::string path;
    Handler handler;
  };
  std::vector<Route> routes_;
};

class Server {
 public:
  /// Binds and listens (throws NetError on failure); run() starts serving.
  explicit Server(Router router, ServerConfig config = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound port (the ephemeral one when config.port was 0); every loop
  /// serves this same port.
  std::uint16_t port() const { return port_; }
  const ServerConfig& config() const { return config_; }

  /// Number of reactors actually running (config.loops resolved).
  std::size_t loops() const { return reactors_.size(); }
  /// True when every loop owns its own SO_REUSEPORT listener; false when
  /// reactor 0 accepts alone and hands fds off round-robin.
  bool sharded_listeners() const { return sharded_listeners_; }

  /// Whole-server counters: every reactor's stats merged into one plain
  /// snapshot (histograms merge exactly — see LatencyHistogram::merge).
  HttpStatsSnapshot stats() const;
  /// One loop's live counters (the /metrics lamb_net_loop_* series).
  const HttpStats& loop_stats(std::size_t loop) const;

  /// Serve until stop(): runs reactor 0 on the calling thread and loops
  /// 1..N-1 on internal threads, then joins them in loop order. One caller
  /// at a time. A reactor failure stops the others and rethrows here.
  void run();

  /// Request a graceful drain: stop accepting, finish and flush in-flight
  /// requests on every loop, close idle connections, return from run().
  /// Thread- and async-signal-safe; idempotent — a signal handler and the
  /// CLI may race calls harmlessly.
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Execute `fn` on a loop's event-loop thread (between events). Tests use
  /// this to observe loop-thread-local state — e.g. the allocation counter
  /// behind the allocation-free-request-path audit. Best effort: dropped if
  /// the server is torn down before the loop drains its hub again.
  void run_on_loop(std::size_t loop, std::function<void()> fn);

 private:
  Router router_;
  ServerConfig config_;
  std::uint16_t port_ = 0;
  bool sharded_listeners_ = false;
  std::atomic<bool> stop_{false};
  std::atomic<bool> running_{false};
  /// Built once in the constructor, never resized: stop() iterates this
  /// from signal handlers.
  std::vector<std::unique_ptr<Reactor>> reactors_;
};

}  // namespace lamb::net
