#include "rpc/remote_ham.h"

#include <algorithm>
#include <array>

#include "common/backoff.h"
#include "common/clock.h"
#include "common/coding.h"
#include "common/trace.h"

namespace neptune {
namespace rpc {

namespace {

using ham::Context;

constexpr char kTruncatedReply[] = "truncated reply";

void PutContext(std::string* out, Context ctx) {
  PutVarint64(out, ctx.session);
}

void PutBool(std::string* out, bool v) { out->push_back(v ? 1 : 0); }

// Failures of the pipe itself, as opposed to answers from the server.
bool IsTransportError(const Status& status) {
  return status.IsNetworkError() || status.IsUnavailable() ||
         status.IsDeadlineExceeded();
}

// Per-method client span names ("rpc.client.openNode"), pre-interned
// for all 256 method bytes (same idiom as the server's MethodCounter).
uint32_t ClientSpanNameId(Method method) {
  static std::array<uint32_t, 256>* names = [] {
    auto* table = new std::array<uint32_t, 256>();
    for (int i = 0; i < 256; ++i) {
      (*table)[i] = Tracer::Instance().InternName(
          std::string("rpc.client.") + MethodName(static_cast<Method>(i)));
    }
    return table;
  }();
  return (*names)[static_cast<uint8_t>(method)];
}

// A pre-tracing server answers a trace-flagged method byte with this
// Corruption message (see Server::HandleRequest's default case); the
// request was never executed, so the client may downgrade and re-send.
bool IsUnknownMethodReply(const Status& status) {
  return status.IsCorruption() &&
         status.message().rfind("malformed request: unknown method", 0) == 0;
}

}  // namespace

RemoteHam::RemoteHam(std::string host, uint16_t port, const Options& options)
    : host_(std::move(host)),
      port_(port),
      options_(options),
      time_(options.time_source != nullptr ? options.time_source
                                           : RealTimeSource()),
      rng_(options.retry_seed != 0
               ? options.retry_seed
               : static_cast<uint64_t>(reinterpret_cast<uintptr_t>(this))) {}

Result<std::unique_ptr<RemoteHam>> RemoteHam::Connect(const std::string& host,
                                                      uint16_t port) {
  return Connect(host, port, Options());
}

Result<std::unique_ptr<RemoteHam>> RemoteHam::Connect(const std::string& host,
                                                      uint16_t port,
                                                      const Options& options) {
  auto client =
      std::unique_ptr<RemoteHam>(new RemoteHam(host, port, options));
  // The ping both verifies liveness and performs the initial connect
  // (with the same retry/backoff policy every later call gets).
  NEPTUNE_RETURN_IF_ERROR(client->Ping());
  if (!options.follower_host.empty()) {
    // The follower connection is best-effort: every routed read falls
    // back to the primary, so a dead follower only costs the routing.
    Options follower_options = options;
    follower_options.follower_host.clear();
    follower_options.follower_port = 0;
    Result<std::unique_ptr<RemoteHam>> follower = Connect(
        options.follower_host, options.follower_port, follower_options);
    if (follower.ok()) {
      client->follower_ = std::move(*follower);
    } else {
      NEPTUNE_METRIC_COUNT("repl.client.follower_connect_failed", 1);
    }
  }
  return client;
}

Result<std::unique_ptr<FrameStream>> RemoteHam::Dial() {
  if (options_.stream_factory) {
    return options_.stream_factory(host_, port_, options_.connect_timeout_ms);
  }
  return FrameStream::Connect(host_, port_, options_.connect_timeout_ms);
}

Status RemoteHam::ReconnectLocked() {
  NEPTUNE_ASSIGN_OR_RETURN(std::unique_ptr<FrameStream> stream, Dial());
  NEPTUNE_RETURN_IF_ERROR(
      stream->SetTimeouts(options_.send_timeout_ms, options_.recv_timeout_ms));
  stream_ = std::move(stream);
  NEPTUNE_METRIC_COUNT("rpc.client.reconnects", 1);
  return Status::OK();
}

Result<std::string> RemoteHam::Call(Method method, std::string_view args) {
  if (options_.pipeline &&
      pipeline_wire_ok_.load(std::memory_order_relaxed)) {
    return CallPipelined(method, args);
  }
  return CallSync(method, args);
}

Result<std::string> RemoteHam::CallSync(Method method, std::string_view args) {
  // The client half of the request's trace: the server parents its
  // spans under this one via the propagated context, so the gap
  // between this span and the server's is wire + queueing time.
  ScopedSpan span(ClientSpanNameId(method));

  std::string request;
  request.reserve(1 + args.size());
  request.push_back(static_cast<char>(method));
  request.append(args);

  std::lock_guard<std::mutex> lock(mu_);
  Backoff backoff(options_.backoff_initial_ms, options_.backoff_max_ms, &rng_);
  // Prepend the trace-context extension when this call is being
  // traced and the server is not known to predate the extension.
  bool flagged = false;
  if (span.active() && trace_wire_ok_.load(std::memory_order_relaxed)) {
    const TraceContext ctx = ScopedSpan::CurrentContext();
    if (ctx.valid()) {
      std::string ext;
      ext.reserve(1 + 17 + args.size());
      ext.push_back(static_cast<char>(static_cast<uint8_t>(method) |
                                      kTraceContextFlag));
      EncodeTraceContextTo(ctx, &ext);
      ext.append(args);
      request = std::move(ext);
      flagged = true;
    }
  }

  Status last;
  for (uint32_t attempt = 0;; ++attempt) {
    // `sent` distinguishes "the pipe broke before the request left"
    // (always safe to retry) from "the request may have executed"
    // (safe only for idempotent methods).
    bool sent = false;
    if (stream_ == nullptr) {
      last = ReconnectLocked();
    } else {
      last = Status::OK();
    }
    if (last.ok()) {
      sent = true;
      last = stream_->SendFrame(request);
      if (last.ok()) {
        Result<std::string> reply = stream_->RecvFrame();
        if (reply.ok()) {
          std::string_view in = *reply;
          Status status;
          if (!DecodeStatusFrom(&in, &status)) {
            return Status::Corruption("malformed reply status");
          }
          // An Unavailable reply carrying a varint body is the
          // server's load-shed refusal with a retry-after-ms hint. The
          // request was rejected *before* execution, so re-sending is
          // safe even for mutations — the stream stays up and the
          // retry waits at least the hinted backoff.
          uint32_t retry_after_ms = 0;
          if (status.IsUnavailable() && !in.empty() &&
              GetVarint32(&in, &retry_after_ms)) {
            if (attempt >= options_.max_retries) return status;
            NEPTUNE_METRIC_COUNT("rpc.client.shed_retries", 1);
            span.Annotate("shed_retry=1");
            uint64_t delay = std::max<uint64_t>(retry_after_ms, 1);
            // Full jitter in [delay/2, delay] spreads the herd of shed
            // clients back out.
            delay = delay / 2 + rng_.Uniform(delay / 2 + 1);
            time_->SleepMicros(delay * 1000);
            continue;
          }
          if (flagged && IsUnknownMethodReply(status)) {
            // A pre-tracing server balked at the flagged method byte;
            // the request never executed, so re-sending plain is safe
            // (even for mutations). Remember the downgrade so every
            // later call on this client skips the extension.
            trace_wire_ok_.store(false, std::memory_order_relaxed);
            NEPTUNE_METRIC_COUNT("rpc.client.trace_downgrades", 1);
            span.Annotate("trace_wire=downgraded");
            request.clear();
            request.push_back(static_cast<char>(method));
            request.append(args);
            flagged = false;
            continue;
          }
          NEPTUNE_RETURN_IF_ERROR(status);
          return std::string(in);
        }
        last = reply.status();
      }
      // The connection is no longer in a known state (a partial frame
      // may be stranded in either direction): drop it.
      stream_.reset();
    }
    if (last.IsDeadlineExceeded()) {
      NEPTUNE_METRIC_COUNT("rpc.client.deadline_exceeded", 1);
    }
    if (!IsTransportError(last)) return last;
    if (sent && !IsIdempotent(method)) return last;
    if (attempt >= options_.max_retries) return last;
    NEPTUNE_METRIC_COUNT("rpc.client.retries", 1);
    span.Annotate("retry=" + std::to_string(attempt + 1));
    // Shared jittered-exponential policy (common/backoff.h) keeps
    // reconnect storms spread out.
    time_->SleepMicros(backoff.DelayForAttemptMs(static_cast<int>(attempt)) *
                       1000);
  }
}

// ---------------------------------------------------------- pipeline

struct RemoteHam::PendingCall::State {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  Status status;      // transport/decode failure, or OK
  std::string reply;  // the reply payload (id stripped) when OK

  void Fulfill(Status s, std::string r) {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (done) return;
      done = true;
      status = std::move(s);
      reply = std::move(r);
    }
    cv.notify_all();
  }

  // Blocks for the reply frame; returns it with the status header
  // still in place.
  Result<std::string> WaitRaw() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return done; });
    if (!status.ok()) return status;
    return std::move(reply);
  }
};

Result<std::string> RemoteHam::PendingCall::Wait() {
  if (state_ == nullptr) {
    return Status::InvalidArgument("PendingCall already waited on");
  }
  auto state = std::move(state_);
  NEPTUNE_ASSIGN_OR_RETURN(std::string raw, state->WaitRaw());
  std::string_view in = raw;
  Status status;
  if (!DecodeStatusFrom(&in, &status)) {
    return Status::Corruption("malformed reply status");
  }
  NEPTUNE_RETURN_IF_ERROR(status);
  return std::string(in);
}

// One connection generation. Writers serialize on `mu` (SendFrame is
// not otherwise thread-safe); the receiver thread takes `mu` only
// briefly to match a reply to its id. A transport failure marks the
// generation broken; the next call builds a fresh one.
struct RemoteHam::PipelineConn {
  std::mutex mu;
  std::condition_variable cv;  // slot free / probe settled / broken
  std::unique_ptr<FrameStream> stream;
  bool confirmed = false;  // a tagged reply has been parsed
  bool broken = false;
  Status error;
  uint64_t next_id = 1;
  std::unordered_map<uint64_t, std::shared_ptr<PendingCall::State>> inflight;
  // Framed requests waiting for the sender thread. Appending here
  // under mu (same hold as the id registration) keeps the wire order
  // equal to the registration order.
  std::string outbuf;
  std::condition_variable send_cv;
  bool sender_stop = false;

  // Caller holds mu. Fails everything in flight, wakes everyone.
  void BreakLocked(const Status& status) {
    if (!broken) {
      broken = true;
      error = status;
      if (stream != nullptr) stream->Close();
    }
    auto failed = std::move(inflight);
    inflight.clear();
    cv.notify_all();
    send_cv.notify_all();
    mu.unlock();  // Fulfill takes per-pending locks; drop ours first
    for (auto& [id, pending] : failed) {
      pending->Fulfill(status, "");
    }
    mu.lock();
  }
};

RemoteHam::~RemoteHam() {
  {
    std::lock_guard<std::mutex> lock(pmu_);
    if (pconn_ != nullptr) {
      std::lock_guard<std::mutex> clock(pconn_->mu);
      pconn_->sender_stop = true;
      pconn_->send_cv.notify_all();
      if (pconn_->stream != nullptr) pconn_->stream->Close();
    }
  }
  if (receiver_.joinable()) receiver_.join();
  if (sender_.joinable()) sender_.join();
}

void RemoteHam::SenderMain(std::shared_ptr<PipelineConn> conn) {
  std::string out;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(conn->mu);
      conn->send_cv.wait(lock, [&] {
        return conn->sender_stop || conn->broken || !conn->outbuf.empty();
      });
      if (conn->sender_stop || conn->broken) return;
      out.clear();
      out.swap(conn->outbuf);
    }
    Status sent = conn->stream->SendBytes(out);
    if (!sent.ok()) {
      std::unique_lock<std::mutex> lock(conn->mu);
      if (!conn->broken) conn->BreakLocked(sent);
      return;
    }
  }
}

void RemoteHam::ReceiverMain(std::shared_ptr<PipelineConn> conn) {
  for (;;) {
    Result<std::string> frame = conn->stream->RecvFrame();
    std::unique_lock<std::mutex> lock(conn->mu);
    if (!frame.ok()) {
      conn->BreakLocked(frame.status());
      return;
    }
    std::string_view in = *frame;
    if (!conn->confirmed) {
      // Probe phase: an old server answers the tagged probe with an
      // UNtagged "unknown method" error. Only that exact shape
      // triggers the downgrade; anything else must be a tagged reply.
      std::string_view untagged = *frame;
      Status status;
      if (DecodeStatusFrom(&untagged, &status) &&
          IsUnknownMethodReply(status)) {
        pipeline_wire_ok_.store(false, std::memory_order_relaxed);
        NEPTUNE_METRIC_COUNT("rpc.client.pipeline_downgrades", 1);
        conn->BreakLocked(status);
        return;
      }
    }
    uint64_t id = 0;
    if (!GetVarint64(&in, &id)) {
      conn->BreakLocked(Status::Corruption("malformed reply id"));
      return;
    }
    conn->confirmed = true;
    std::shared_ptr<PendingCall::State> pending;
    auto it = conn->inflight.find(id);
    if (it != conn->inflight.end()) {
      pending = std::move(it->second);
      conn->inflight.erase(it);
    }
    conn->cv.notify_all();  // a slot freed; the probe may have settled
    lock.unlock();
    // A reply for an unknown id (already failed locally) is dropped.
    if (pending != nullptr) pending->Fulfill(Status::OK(), std::string(in));
  }
}

Result<std::shared_ptr<RemoteHam::PendingCall::State>>
RemoteHam::EnqueueTagged(Method method, std::string_view args, bool* sent) {
  *sent = false;
  std::shared_ptr<PipelineConn> conn;
  {
    std::lock_guard<std::mutex> lock(pmu_);
    bool need_fresh = pconn_ == nullptr;
    if (!need_fresh) {
      std::lock_guard<std::mutex> clock(pconn_->mu);
      need_fresh = pconn_->broken;
    }
    if (need_fresh) {
      // The previous generation's receiver and sender exit as soon as
      // its stream breaks (BreakLocked wakes both); neither touches
      // pmu_, so joining under it is safe.
      if (receiver_.joinable()) receiver_.join();
      if (sender_.joinable()) sender_.join();
      auto fresh = std::make_shared<PipelineConn>();
      NEPTUNE_ASSIGN_OR_RETURN(fresh->stream, Dial());
      NEPTUNE_RETURN_IF_ERROR(fresh->stream->SetTimeouts(
          options_.send_timeout_ms, options_.recv_timeout_ms));
      if (pconn_ != nullptr) NEPTUNE_METRIC_COUNT("rpc.client.reconnects", 1);
      pconn_ = fresh;
      receiver_ = std::thread([this, fresh] { ReceiverMain(fresh); });
      sender_ = std::thread([this, fresh] { SenderMain(fresh); });
    }
    conn = pconn_;
  }

  const uint32_t max_inflight = std::max<uint32_t>(options_.max_inflight, 1);
  std::unique_lock<std::mutex> lock(conn->mu);
  // Until the probe's reply proves the server understands request ids,
  // exactly one request rides the connection.
  conn->cv.wait(lock, [&] {
    if (conn->broken) return true;
    if (!conn->confirmed) return conn->inflight.empty();
    return conn->inflight.size() < max_inflight;
  });
  if (conn->broken) return conn->error;

  uint64_t id;
  const uint64_t override_id =
      next_id_override_.exchange(0, std::memory_order_relaxed);
  if (override_id != 0) conn->next_id = override_id;
  do {
    id = conn->next_id++;
    if (conn->next_id == 0) conn->next_id = 1;  // ids wrap, skipping 0
  } while (id == 0 || conn->inflight.count(id) != 0);

  std::string request;
  uint8_t flags = static_cast<uint8_t>(method) | kRequestIdFlag;
  TraceContext trace_ctx = ScopedSpan::CurrentContext();
  const bool traced =
      trace_ctx.valid() && trace_wire_ok_.load(std::memory_order_relaxed);
  if (traced) flags |= kTraceContextFlag;
  request.reserve(1 + 17 + 10 + args.size());
  request.push_back(static_cast<char>(flags));
  if (traced) EncodeTraceContextTo(trace_ctx, &request);
  PutVarint64(&request, id);
  request.append(args);

  if (request.size() > conn->stream->max_frame_bytes()) {
    return Status::InvalidArgument(
        "frame payload of " + std::to_string(request.size()) +
        " bytes exceeds limit of " +
        std::to_string(conn->stream->max_frame_bytes()));
  }
  auto pending = std::make_shared<PendingCall::State>();
  conn->inflight.emplace(id, pending);
  *sent = true;
  // Hand the framed request to the sender thread: a burst of calls
  // coalesces into one send() syscall, and a send failure surfaces as
  // BreakLocked failing every pending call (this one included).
  AppendFrame("", request, &conn->outbuf);
  conn->send_cv.notify_one();
  return pending;
}

Result<std::string> RemoteHam::CallPipelined(Method method,
                                             std::string_view args) {
  ScopedSpan span(ClientSpanNameId(method));
  Status last;
  for (uint32_t attempt = 0;; ++attempt) {
    bool sent = false;
    auto pending = EnqueueTagged(method, args, &sent);
    Result<std::string> raw =
        pending.ok() ? (*pending)->WaitRaw() : pending.status();
    if (raw.ok()) {
      std::string_view in = *raw;
      Status status;
      if (!DecodeStatusFrom(&in, &status)) {
        return Status::Corruption("malformed reply status");
      }
      // Load-shed refusal: rejected before execution, so re-send after
      // the hinted backoff (same as the sync path).
      uint32_t retry_after_ms = 0;
      if (status.IsUnavailable() && !in.empty() &&
          GetVarint32(&in, &retry_after_ms)) {
        if (attempt >= options_.max_retries) return status;
        NEPTUNE_METRIC_COUNT("rpc.client.shed_retries", 1);
        span.Annotate("shed_retry=1");
        uint64_t delay = std::max<uint64_t>(retry_after_ms, 1);
        {
          std::lock_guard<std::mutex> lock(mu_);
          delay = delay / 2 + rng_.Uniform(delay / 2 + 1);
        }
        time_->SleepMicros(delay * 1000);
        continue;
      }
      NEPTUNE_RETURN_IF_ERROR(status);
      return std::string(in);
    }
    last = raw.status();
    if (IsUnknownMethodReply(last) &&
        !pipeline_wire_ok_.load(std::memory_order_relaxed)) {
      // The probe met a pre-pipelining server; the request never
      // executed, so re-sending one-in-flight is safe for any method.
      span.Annotate("pipeline=downgraded");
      return CallSync(method, args);
    }
    if (last.IsDeadlineExceeded()) {
      NEPTUNE_METRIC_COUNT("rpc.client.deadline_exceeded", 1);
    }
    if (!IsTransportError(last)) return last;
    if (sent && !IsIdempotent(method)) return last;
    if (attempt >= options_.max_retries) return last;
    NEPTUNE_METRIC_COUNT("rpc.client.retries", 1);
    span.Annotate("retry=" + std::to_string(attempt + 1));
    uint64_t delay_ms;
    {
      // rng_ is guarded by mu_; the shared policy only computes the
      // delay, so the sleep happens outside the lock.
      std::lock_guard<std::mutex> lock(mu_);
      Backoff backoff(options_.backoff_initial_ms, options_.backoff_max_ms,
                      &rng_);
      delay_ms = backoff.DelayForAttemptMs(static_cast<int>(attempt));
    }
    time_->SleepMicros(delay_ms * 1000);
  }
}

RemoteHam::PendingCall RemoteHam::CallAsync(Method method,
                                            std::string_view args) {
  PendingCall call;
  call.state_ = std::make_shared<PendingCall::State>();
  if (options_.pipeline &&
      pipeline_wire_ok_.load(std::memory_order_relaxed)) {
    bool sent = false;
    auto pending = EnqueueTagged(method, args, &sent);
    if (pending.ok()) {
      call.state_ = *pending;
      return call;
    }
    call.state_->Fulfill(pending.status(), "");
    return call;
  }
  // No pipeline: execute synchronously and hand back the answer,
  // re-framing it the way a tagged reply would look (status + body) so
  // Wait() decodes both shapes identically.
  Result<std::string> reply = CallSync(method, args);
  if (!reply.ok()) {
    call.state_->Fulfill(reply.status(), "");
  } else {
    std::string framed;
    EncodeStatusTo(Status::OK(), &framed);
    framed.append(*reply);
    call.state_->Fulfill(Status::OK(), std::move(framed));
  }
  return call;
}

Status RemoteHam::Ping() {
  Result<std::string> reply = Call(Method::kPing, "neptune");
  if (!reply.ok()) return reply.status();
  if (*reply != "neptune") {
    return Status::NetworkError("ping echo mismatch");
  }
  return Status::OK();
}

Result<MetricsSnapshot> RemoteHam::GetServerStatistics() {
  NEPTUNE_ASSIGN_OR_RETURN(std::string reply,
                           Call(Method::kGetServerStatistics, ""));
  std::string_view in = reply;
  MetricsSnapshot out;
  if (!MetricsSnapshot::DecodeFrom(&in, &out)) {
    return Status::Corruption(kTruncatedReply);
  }
  return out;
}

Result<RemoteHam::StatisticsDelta> RemoteHam::GetServerStatisticsDelta(
    uint32_t window_seconds) {
  std::string args;
  PutVarint64(&args, window_seconds);
  NEPTUNE_ASSIGN_OR_RETURN(std::string reply,
                           Call(Method::kGetServerStatisticsDelta, args));
  std::string_view in = reply;
  StatisticsDelta out;
  if (!GetVarint64(&in, &out.elapsed_us) ||
      !MetricsSnapshot::DecodeFrom(&in, &out.snapshot)) {
    return Status::Corruption(kTruncatedReply);
  }
  return out;
}

Result<std::vector<Trace>> RemoteHam::GetRecentTraces() {
  NEPTUNE_ASSIGN_OR_RETURN(std::string reply,
                           Call(Method::kGetRecentTraces, ""));
  std::string_view in = reply;
  std::vector<Trace> out;
  if (!DecodeTracesFrom(&in, &out)) {
    return Status::Corruption(kTruncatedReply);
  }
  return out;
}

Result<std::vector<Span>> RemoteHam::GetSlowOps() {
  NEPTUNE_ASSIGN_OR_RETURN(std::string reply, Call(Method::kGetSlowOps, ""));
  std::string_view in = reply;
  std::vector<Span> out;
  if (!DecodeSpansFrom(&in, &out)) {
    return Status::Corruption(kTruncatedReply);
  }
  return out;
}

Result<std::vector<RemoteHam::OpenNodeItem>> RemoteHam::OpenNodes(
    Context ctx, const std::vector<ham::NodeIndex>& nodes, ham::Time time,
    const std::vector<ham::AttributeIndex>& attrs) {
  std::string args;
  PutContext(&args, ctx);
  PutVarint64(&args, time);
  EncodeIndexVecTo(attrs, &args);
  EncodeIndexVecTo(nodes, &args);
  NEPTUNE_ASSIGN_OR_RETURN(std::string reply, Call(Method::kOpenNodes, args));
  std::string_view in = reply;
  uint64_t count = 0;
  if (!GetVarint64(&in, &count) || count != nodes.size()) {
    return Status::Corruption(kTruncatedReply);
  }
  std::vector<OpenNodeItem> out(count);
  for (uint64_t i = 0; i < count; ++i) {
    if (!DecodeStatusFrom(&in, &out[i].status)) {
      return Status::Corruption(kTruncatedReply);
    }
    if (out[i].status.ok() &&
        !DecodeOpenNodeResultFrom(&in, &out[i].result)) {
      return Status::Corruption(kTruncatedReply);
    }
  }
  return out;
}

Result<std::vector<RemoteHam::AttributeFetchItem>>
RemoteHam::GetAttributeValuesBatch(Context ctx, ham::Time time,
                                   const std::vector<AttributeFetch>& fetches) {
  std::string args;
  PutContext(&args, ctx);
  PutVarint64(&args, time);
  PutVarint64(&args, fetches.size());
  for (const AttributeFetch& f : fetches) {
    PutBool(&args, f.is_link);
    PutVarint64(&args, f.entity);
    PutVarint64(&args, f.attr);
  }
  NEPTUNE_ASSIGN_OR_RETURN(std::string reply,
                           Call(Method::kGetAttributeValuesBatch, args));
  std::string_view in = reply;
  uint64_t count = 0;
  if (!GetVarint64(&in, &count) || count != fetches.size()) {
    return Status::Corruption(kTruncatedReply);
  }
  std::vector<AttributeFetchItem> out(count);
  for (uint64_t i = 0; i < count; ++i) {
    if (!DecodeStatusFrom(&in, &out[i].status)) {
      return Status::Corruption(kTruncatedReply);
    }
    if (out[i].status.ok()) {
      std::string_view value;
      if (!GetLengthPrefixed(&in, &value)) {
        return Status::Corruption(kTruncatedReply);
      }
      out[i].value.assign(value);
    }
  }
  return out;
}

Result<RemoteHam::LinearizeAndFetchResult> RemoteHam::LinearizeAndFetch(
    Context ctx, ham::NodeIndex start, ham::Time time,
    const std::string& node_pred, const std::string& link_pred,
    const std::vector<ham::AttributeIndex>& node_attrs,
    const std::vector<ham::AttributeIndex>& link_attrs) {
  std::string args;
  PutContext(&args, ctx);
  PutVarint64(&args, start);
  PutVarint64(&args, time);
  PutLengthPrefixed(&args, node_pred);
  PutLengthPrefixed(&args, link_pred);
  EncodeIndexVecTo(node_attrs, &args);
  EncodeIndexVecTo(link_attrs, &args);
  NEPTUNE_ASSIGN_OR_RETURN(std::string reply,
                           Call(Method::kLinearizeAndFetch, args));
  std::string_view in = reply;
  LinearizeAndFetchResult out;
  uint64_t count = 0;
  if (!DecodeSubGraphFrom(&in, &out.graph) || !GetVarint64(&in, &count) ||
      count != out.graph.nodes.size()) {
    return Status::Corruption(kTruncatedReply);
  }
  out.contents.resize(count);
  for (uint64_t i = 0; i < count; ++i) {
    NodeContentsItem& item = out.contents[i];
    if (!DecodeStatusFrom(&in, &item.status)) {
      return Status::Corruption(kTruncatedReply);
    }
    if (item.status.ok()) {
      std::string_view contents;
      if (!GetLengthPrefixed(&in, &contents) ||
          !GetVarint64(&in, &item.version_time)) {
        return Status::Corruption(kTruncatedReply);
      }
      item.contents.assign(contents);
    }
  }
  return out;
}

Result<ham::CreateGraphResult> RemoteHam::CreateGraph(
    const std::string& directory, uint32_t protections) {
  std::string args;
  PutLengthPrefixed(&args, directory);
  PutVarint32(&args, protections);
  NEPTUNE_ASSIGN_OR_RETURN(std::string reply,
                           Call(Method::kCreateGraph, args));
  std::string_view in = reply;
  ham::CreateGraphResult out;
  if (!GetVarint64(&in, &out.project) ||
      !GetVarint64(&in, &out.creation_time)) {
    return Status::Corruption(kTruncatedReply);
  }
  return out;
}

Status RemoteHam::DestroyGraph(ham::ProjectId project,
                               const std::string& directory) {
  std::string args;
  PutVarint64(&args, project);
  PutLengthPrefixed(&args, directory);
  return Call(Method::kDestroyGraph, args).status();
}

Result<Context> RemoteHam::OpenGraph(ham::ProjectId project,
                                     const std::string& machine,
                                     const std::string& directory) {
  std::string args;
  PutVarint64(&args, project);
  PutLengthPrefixed(&args, machine);
  PutLengthPrefixed(&args, directory);
  NEPTUNE_ASSIGN_OR_RETURN(std::string reply, Call(Method::kOpenGraph, args));
  std::string_view in = reply;
  Context ctx;
  if (!GetVarint64(&in, &ctx.session)) {
    return Status::Corruption(kTruncatedReply);
  }
  if (follower_ != nullptr) {
    // Shadow session for routed reads. Failure (follower down, graph
    // not yet synced there) just disables routing for this session.
    const std::string fdir = FollowerPath(directory);
    Result<Context> fctx = follower_->OpenGraph(project, machine, fdir);
    if (fctx.ok()) {
      std::lock_guard<std::mutex> lock(fmu_);
      follower_sessions_[ctx.session] =
          FollowerSession{fctx->session, fdir, false};
    } else {
      NEPTUNE_METRIC_COUNT("repl.client.follower_open_failed", 1);
    }
  }
  return ctx;
}

Status RemoteHam::CloseGraph(Context ctx) {
  uint64_t shadow = 0;
  {
    std::lock_guard<std::mutex> lock(fmu_);
    auto it = follower_sessions_.find(ctx.session);
    if (it != follower_sessions_.end()) {
      shadow = it->second.follower_session;
      follower_sessions_.erase(it);
    }
  }
  if (shadow != 0 && follower_ != nullptr) {
    (void)follower_->CloseGraph(Context{shadow});  // best-effort
  }
  std::string args;
  PutContext(&args, ctx);
  return Call(Method::kCloseGraph, args).status();
}

Status RemoteHam::BeginTransaction(Context ctx) {
  std::string args;
  PutContext(&args, ctx);
  Status status = Call(Method::kBeginTransaction, args).status();
  if (status.ok()) {
    std::lock_guard<std::mutex> lock(fmu_);
    auto it = follower_sessions_.find(ctx.session);
    if (it != follower_sessions_.end()) it->second.in_txn = true;
  }
  return status;
}

Status RemoteHam::CommitTransaction(Context ctx) {
  std::string args;
  PutContext(&args, ctx);
  Status status = Call(Method::kCommitTransaction, args).status();
  {
    std::lock_guard<std::mutex> lock(fmu_);
    auto it = follower_sessions_.find(ctx.session);
    if (it != follower_sessions_.end()) it->second.in_txn = false;
  }
  return status;
}

Status RemoteHam::AbortTransaction(Context ctx) {
  std::string args;
  PutContext(&args, ctx);
  Status status = Call(Method::kAbortTransaction, args).status();
  {
    std::lock_guard<std::mutex> lock(fmu_);
    auto it = follower_sessions_.find(ctx.session);
    if (it != follower_sessions_.end()) it->second.in_txn = false;
  }
  return status;
}

// ------------------------------------------------- follower routing

bool RemoteHam::FollowerReadContext(Context ctx, Context* fctx) {
  if (follower_ == nullptr) return false;
  std::string directory;
  {
    std::lock_guard<std::mutex> lock(fmu_);
    auto it = follower_sessions_.find(ctx.session);
    if (it == follower_sessions_.end() || it->second.in_txn) return false;
    fctx->session = it->second.follower_session;
    directory = it->second.directory;
  }
  return FollowerFresh(directory);
}

std::string RemoteHam::FollowerPath(const std::string& directory) const {
  const std::string& from = options_.follower_remap_from;
  if (from.empty()) return directory;
  if (directory == from) return options_.follower_remap_to;
  if (directory.size() > from.size() &&
      directory.compare(0, from.size(), from) == 0 &&
      directory[from.size()] == '/') {
    return options_.follower_remap_to + directory.substr(from.size());
  }
  return directory;
}

bool RemoteHam::FollowerFresh(const std::string& directory) {
  const uint64_t now = time_->NowMicros();
  {
    std::lock_guard<std::mutex> lock(fmu_);
    auto it = follower_freshness_.find(directory);
    if (it != follower_freshness_.end() &&
        now - it->second.status_us < options_.follower_status_ttl_ms * 1000) {
      return it->second.fresh;
    }
  }
  Result<ham::ReplNodeStatus> status = follower_->ReplStatus(directory);
  const bool fresh =
      status.ok() && status->follower &&
      status->lag_bytes <= options_.follower_max_lag_bytes &&
      status->behind_ms <= options_.follower_max_behind_ms;
  if (!fresh) NEPTUNE_METRIC_COUNT("repl.client.stale_follower", 1);
  std::lock_guard<std::mutex> lock(fmu_);
  follower_freshness_[directory] = FollowerFreshness{now, fresh};
  return fresh;
}

Result<ham::AddNodeResult> RemoteHam::AddNode(Context ctx, bool keep_history) {
  std::string args;
  PutContext(&args, ctx);
  PutBool(&args, keep_history);
  NEPTUNE_ASSIGN_OR_RETURN(std::string reply, Call(Method::kAddNode, args));
  std::string_view in = reply;
  ham::AddNodeResult out;
  if (!GetVarint64(&in, &out.node) || !GetVarint64(&in, &out.creation_time)) {
    return Status::Corruption(kTruncatedReply);
  }
  return out;
}

Status RemoteHam::DeleteNode(Context ctx, ham::NodeIndex node) {
  std::string args;
  PutContext(&args, ctx);
  PutVarint64(&args, node);
  return Call(Method::kDeleteNode, args).status();
}

Result<ham::AddLinkResult> RemoteHam::AddLink(Context ctx,
                                              const ham::LinkPt& from,
                                              const ham::LinkPt& to) {
  std::string args;
  PutContext(&args, ctx);
  EncodeLinkPtTo(from, &args);
  EncodeLinkPtTo(to, &args);
  NEPTUNE_ASSIGN_OR_RETURN(std::string reply, Call(Method::kAddLink, args));
  std::string_view in = reply;
  ham::AddLinkResult out;
  if (!GetVarint64(&in, &out.link) || !GetVarint64(&in, &out.creation_time)) {
    return Status::Corruption(kTruncatedReply);
  }
  return out;
}

Result<ham::AddLinkResult> RemoteHam::CopyLink(Context ctx,
                                               ham::LinkIndex link,
                                               ham::Time time,
                                               bool copy_source,
                                               const ham::LinkPt& other) {
  std::string args;
  PutContext(&args, ctx);
  PutVarint64(&args, link);
  PutVarint64(&args, time);
  PutBool(&args, copy_source);
  EncodeLinkPtTo(other, &args);
  NEPTUNE_ASSIGN_OR_RETURN(std::string reply, Call(Method::kCopyLink, args));
  std::string_view in = reply;
  ham::AddLinkResult out;
  if (!GetVarint64(&in, &out.link) || !GetVarint64(&in, &out.creation_time)) {
    return Status::Corruption(kTruncatedReply);
  }
  return out;
}

Status RemoteHam::DeleteLink(Context ctx, ham::LinkIndex link) {
  std::string args;
  PutContext(&args, ctx);
  PutVarint64(&args, link);
  return Call(Method::kDeleteLink, args).status();
}

Result<ham::SubGraph> RemoteHam::LinearizeGraph(
    Context ctx, ham::NodeIndex start, ham::Time time,
    const std::string& node_pred, const std::string& link_pred,
    const std::vector<ham::AttributeIndex>& node_attrs,
    const std::vector<ham::AttributeIndex>& link_attrs) {
  if (auto routed = TryFollower(ctx, [&](auto& target, Context c) {
        return target.LinearizeGraph(c, start, time, node_pred, link_pred,
                                     node_attrs, link_attrs);
      })) {
    return std::move(*routed);
  }
  std::string args;
  PutContext(&args, ctx);
  PutVarint64(&args, start);
  PutVarint64(&args, time);
  PutLengthPrefixed(&args, node_pred);
  PutLengthPrefixed(&args, link_pred);
  EncodeIndexVecTo(node_attrs, &args);
  EncodeIndexVecTo(link_attrs, &args);
  NEPTUNE_ASSIGN_OR_RETURN(std::string reply,
                           Call(Method::kLinearizeGraph, args));
  std::string_view in = reply;
  ham::SubGraph out;
  if (!DecodeSubGraphFrom(&in, &out)) return Status::Corruption(kTruncatedReply);
  return out;
}

Result<ham::SubGraph> RemoteHam::GetGraphQuery(
    Context ctx, ham::Time time, const std::string& node_pred,
    const std::string& link_pred,
    const std::vector<ham::AttributeIndex>& node_attrs,
    const std::vector<ham::AttributeIndex>& link_attrs) {
  if (auto routed = TryFollower(ctx, [&](auto& target, Context c) {
        return target.GetGraphQuery(c, time, node_pred, link_pred, node_attrs,
                                    link_attrs);
      })) {
    return std::move(*routed);
  }
  std::string args;
  PutContext(&args, ctx);
  PutVarint64(&args, time);
  PutLengthPrefixed(&args, node_pred);
  PutLengthPrefixed(&args, link_pred);
  EncodeIndexVecTo(node_attrs, &args);
  EncodeIndexVecTo(link_attrs, &args);
  NEPTUNE_ASSIGN_OR_RETURN(std::string reply,
                           Call(Method::kGetGraphQuery, args));
  std::string_view in = reply;
  ham::SubGraph out;
  if (!DecodeSubGraphFrom(&in, &out)) return Status::Corruption(kTruncatedReply);
  return out;
}

Result<ham::QueryExplain> RemoteHam::GetGraphQueryExplained(
    Context ctx, ham::Time time, const std::string& node_pred,
    const std::string& link_pred,
    const std::vector<ham::AttributeIndex>& node_attrs,
    const std::vector<ham::AttributeIndex>& link_attrs,
    const ham::QueryOptions& options) {
  std::string args;
  PutContext(&args, ctx);
  PutVarint64(&args, time);
  PutLengthPrefixed(&args, node_pred);
  PutLengthPrefixed(&args, link_pred);
  EncodeIndexVecTo(node_attrs, &args);
  EncodeIndexVecTo(link_attrs, &args);
  uint8_t flags = 0;
  if (options.force_scan) flags |= 1;
  if (options.verify) flags |= 2;
  args.push_back(static_cast<char>(flags));
  NEPTUNE_ASSIGN_OR_RETURN(std::string reply,
                           Call(Method::kGetGraphQueryExplained, args));
  std::string_view in = reply;
  ham::QueryExplain out;
  if (!DecodeQueryExplainFrom(&in, &out)) {
    return Status::Corruption(kTruncatedReply);
  }
  return out;
}

Result<ham::OpenNodeResult> RemoteHam::OpenNode(
    Context ctx, ham::NodeIndex node, ham::Time time,
    const std::vector<ham::AttributeIndex>& attrs) {
  if (auto routed = TryFollower(ctx, [&](auto& target, Context c) {
        return target.OpenNode(c, node, time, attrs);
      })) {
    return std::move(*routed);
  }
  std::string args;
  PutContext(&args, ctx);
  PutVarint64(&args, node);
  PutVarint64(&args, time);
  EncodeIndexVecTo(attrs, &args);
  NEPTUNE_ASSIGN_OR_RETURN(std::string reply, Call(Method::kOpenNode, args));
  std::string_view in = reply;
  ham::OpenNodeResult out;
  if (!DecodeOpenNodeResultFrom(&in, &out)) {
    return Status::Corruption(kTruncatedReply);
  }
  return out;
}

Status RemoteHam::ModifyNode(
    Context ctx, ham::NodeIndex node, ham::Time expected_time,
    const std::string& contents,
    const std::vector<ham::AttachmentUpdate>& attachments,
    const std::string& explanation) {
  std::string args;
  PutContext(&args, ctx);
  PutVarint64(&args, node);
  PutVarint64(&args, expected_time);
  PutLengthPrefixed(&args, contents);
  EncodeAttachmentUpdatesTo(attachments, &args);
  PutLengthPrefixed(&args, explanation);
  return Call(Method::kModifyNode, args).status();
}

Result<ham::Time> RemoteHam::GetNodeTimeStamp(Context ctx,
                                              ham::NodeIndex node) {
  std::string args;
  PutContext(&args, ctx);
  PutVarint64(&args, node);
  NEPTUNE_ASSIGN_OR_RETURN(std::string reply,
                           Call(Method::kGetNodeTimeStamp, args));
  std::string_view in = reply;
  ham::Time time = 0;
  if (!GetVarint64(&in, &time)) return Status::Corruption(kTruncatedReply);
  return time;
}

Status RemoteHam::ChangeNodeProtection(Context ctx, ham::NodeIndex node,
                                       uint32_t protections) {
  std::string args;
  PutContext(&args, ctx);
  PutVarint64(&args, node);
  PutVarint32(&args, protections);
  return Call(Method::kChangeNodeProtection, args).status();
}

Result<ham::NodeVersions> RemoteHam::GetNodeVersions(Context ctx,
                                                     ham::NodeIndex node) {
  if (auto routed = TryFollower(ctx, [&](auto& target, Context c) {
        return target.GetNodeVersions(c, node);
      })) {
    return std::move(*routed);
  }
  std::string args;
  PutContext(&args, ctx);
  PutVarint64(&args, node);
  NEPTUNE_ASSIGN_OR_RETURN(std::string reply,
                           Call(Method::kGetNodeVersions, args));
  std::string_view in = reply;
  ham::NodeVersions out;
  if (!DecodeNodeVersionsFrom(&in, &out)) {
    return Status::Corruption(kTruncatedReply);
  }
  return out;
}

Result<std::vector<delta::Difference>> RemoteHam::GetNodeDifferences(
    Context ctx, ham::NodeIndex node, ham::Time t1, ham::Time t2) {
  std::string args;
  PutContext(&args, ctx);
  PutVarint64(&args, node);
  PutVarint64(&args, t1);
  PutVarint64(&args, t2);
  NEPTUNE_ASSIGN_OR_RETURN(std::string reply,
                           Call(Method::kGetNodeDifferences, args));
  std::string_view in = reply;
  std::vector<delta::Difference> out;
  if (!DecodeDifferencesFrom(&in, &out)) {
    return Status::Corruption(kTruncatedReply);
  }
  return out;
}

Result<ham::LinkEndResult> RemoteHam::GetToNode(Context ctx,
                                                ham::LinkIndex link,
                                                ham::Time time) {
  if (auto routed = TryFollower(ctx, [&](auto& target, Context c) {
        return target.GetToNode(c, link, time);
      })) {
    return std::move(*routed);
  }
  std::string args;
  PutContext(&args, ctx);
  PutVarint64(&args, link);
  PutVarint64(&args, time);
  NEPTUNE_ASSIGN_OR_RETURN(std::string reply, Call(Method::kGetToNode, args));
  std::string_view in = reply;
  ham::LinkEndResult out;
  if (!GetVarint64(&in, &out.node) || !GetVarint64(&in, &out.version_time)) {
    return Status::Corruption(kTruncatedReply);
  }
  return out;
}

Result<ham::LinkEndResult> RemoteHam::GetFromNode(Context ctx,
                                                  ham::LinkIndex link,
                                                  ham::Time time) {
  if (auto routed = TryFollower(ctx, [&](auto& target, Context c) {
        return target.GetFromNode(c, link, time);
      })) {
    return std::move(*routed);
  }
  std::string args;
  PutContext(&args, ctx);
  PutVarint64(&args, link);
  PutVarint64(&args, time);
  NEPTUNE_ASSIGN_OR_RETURN(std::string reply,
                           Call(Method::kGetFromNode, args));
  std::string_view in = reply;
  ham::LinkEndResult out;
  if (!GetVarint64(&in, &out.node) || !GetVarint64(&in, &out.version_time)) {
    return Status::Corruption(kTruncatedReply);
  }
  return out;
}

Result<std::vector<ham::AttributeEntry>> RemoteHam::GetAttributes(
    Context ctx, ham::Time time) {
  if (auto routed = TryFollower(ctx, [&](auto& target, Context c) {
        return target.GetAttributes(c, time);
      })) {
    return std::move(*routed);
  }
  std::string args;
  PutContext(&args, ctx);
  PutVarint64(&args, time);
  NEPTUNE_ASSIGN_OR_RETURN(std::string reply,
                           Call(Method::kGetAttributes, args));
  std::string_view in = reply;
  std::vector<ham::AttributeEntry> out;
  if (!DecodeAttributeEntriesFrom(&in, &out)) {
    return Status::Corruption(kTruncatedReply);
  }
  return out;
}

Result<std::vector<std::string>> RemoteHam::GetAttributeValues(
    Context ctx, ham::AttributeIndex attr, ham::Time time) {
  std::string args;
  PutContext(&args, ctx);
  PutVarint64(&args, attr);
  PutVarint64(&args, time);
  NEPTUNE_ASSIGN_OR_RETURN(std::string reply,
                           Call(Method::kGetAttributeValues, args));
  std::string_view in = reply;
  std::vector<std::string> out;
  if (!DecodeStringVecFrom(&in, &out)) {
    return Status::Corruption(kTruncatedReply);
  }
  return out;
}

Result<ham::AttributeIndex> RemoteHam::GetAttributeIndex(
    Context ctx, const std::string& name) {
  std::string args;
  PutContext(&args, ctx);
  PutLengthPrefixed(&args, name);
  NEPTUNE_ASSIGN_OR_RETURN(std::string reply,
                           Call(Method::kGetAttributeIndex, args));
  std::string_view in = reply;
  ham::AttributeIndex attr = 0;
  if (!GetVarint64(&in, &attr)) return Status::Corruption(kTruncatedReply);
  return attr;
}

Status RemoteHam::SetNodeAttributeValue(Context ctx, ham::NodeIndex node,
                                        ham::AttributeIndex attr,
                                        const std::string& value) {
  std::string args;
  PutContext(&args, ctx);
  PutVarint64(&args, node);
  PutVarint64(&args, attr);
  PutLengthPrefixed(&args, value);
  return Call(Method::kSetNodeAttributeValue, args).status();
}

Status RemoteHam::DeleteNodeAttribute(Context ctx, ham::NodeIndex node,
                                      ham::AttributeIndex attr) {
  std::string args;
  PutContext(&args, ctx);
  PutVarint64(&args, node);
  PutVarint64(&args, attr);
  return Call(Method::kDeleteNodeAttribute, args).status();
}

Result<std::string> RemoteHam::GetNodeAttributeValue(Context ctx,
                                                     ham::NodeIndex node,
                                                     ham::AttributeIndex attr,
                                                     ham::Time time) {
  if (auto routed = TryFollower(ctx, [&](auto& target, Context c) {
        return target.GetNodeAttributeValue(c, node, attr, time);
      })) {
    return std::move(*routed);
  }
  std::string args;
  PutContext(&args, ctx);
  PutVarint64(&args, node);
  PutVarint64(&args, attr);
  PutVarint64(&args, time);
  NEPTUNE_ASSIGN_OR_RETURN(std::string reply,
                           Call(Method::kGetNodeAttributeValue, args));
  std::string_view in = reply;
  std::string_view value;
  if (!GetLengthPrefixed(&in, &value)) {
    return Status::Corruption(kTruncatedReply);
  }
  return std::string(value);
}

Result<std::vector<ham::AttributeValueEntry>> RemoteHam::GetNodeAttributes(
    Context ctx, ham::NodeIndex node, ham::Time time) {
  if (auto routed = TryFollower(ctx, [&](auto& target, Context c) {
        return target.GetNodeAttributes(c, node, time);
      })) {
    return std::move(*routed);
  }
  std::string args;
  PutContext(&args, ctx);
  PutVarint64(&args, node);
  PutVarint64(&args, time);
  NEPTUNE_ASSIGN_OR_RETURN(std::string reply,
                           Call(Method::kGetNodeAttributes, args));
  std::string_view in = reply;
  std::vector<ham::AttributeValueEntry> out;
  if (!DecodeAttributeValueEntriesFrom(&in, &out)) {
    return Status::Corruption(kTruncatedReply);
  }
  return out;
}

Status RemoteHam::SetLinkAttributeValue(Context ctx, ham::LinkIndex link,
                                        ham::AttributeIndex attr,
                                        const std::string& value) {
  std::string args;
  PutContext(&args, ctx);
  PutVarint64(&args, link);
  PutVarint64(&args, attr);
  PutLengthPrefixed(&args, value);
  return Call(Method::kSetLinkAttributeValue, args).status();
}

Status RemoteHam::DeleteLinkAttribute(Context ctx, ham::LinkIndex link,
                                      ham::AttributeIndex attr) {
  std::string args;
  PutContext(&args, ctx);
  PutVarint64(&args, link);
  PutVarint64(&args, attr);
  return Call(Method::kDeleteLinkAttribute, args).status();
}

Result<std::string> RemoteHam::GetLinkAttributeValue(Context ctx,
                                                     ham::LinkIndex link,
                                                     ham::AttributeIndex attr,
                                                     ham::Time time) {
  std::string args;
  PutContext(&args, ctx);
  PutVarint64(&args, link);
  PutVarint64(&args, attr);
  PutVarint64(&args, time);
  NEPTUNE_ASSIGN_OR_RETURN(std::string reply,
                           Call(Method::kGetLinkAttributeValue, args));
  std::string_view in = reply;
  std::string_view value;
  if (!GetLengthPrefixed(&in, &value)) {
    return Status::Corruption(kTruncatedReply);
  }
  return std::string(value);
}

Result<std::vector<ham::AttributeValueEntry>> RemoteHam::GetLinkAttributes(
    Context ctx, ham::LinkIndex link, ham::Time time) {
  std::string args;
  PutContext(&args, ctx);
  PutVarint64(&args, link);
  PutVarint64(&args, time);
  NEPTUNE_ASSIGN_OR_RETURN(std::string reply,
                           Call(Method::kGetLinkAttributes, args));
  std::string_view in = reply;
  std::vector<ham::AttributeValueEntry> out;
  if (!DecodeAttributeValueEntriesFrom(&in, &out)) {
    return Status::Corruption(kTruncatedReply);
  }
  return out;
}

Status RemoteHam::SetGraphDemonValue(Context ctx, ham::Event event,
                                     const std::string& demon) {
  std::string args;
  PutContext(&args, ctx);
  args.push_back(static_cast<char>(event));
  PutLengthPrefixed(&args, demon);
  return Call(Method::kSetGraphDemonValue, args).status();
}

Result<std::vector<ham::DemonEntry>> RemoteHam::GetGraphDemons(
    Context ctx, ham::Time time) {
  std::string args;
  PutContext(&args, ctx);
  PutVarint64(&args, time);
  NEPTUNE_ASSIGN_OR_RETURN(std::string reply,
                           Call(Method::kGetGraphDemons, args));
  std::string_view in = reply;
  std::vector<ham::DemonEntry> out;
  if (!DecodeDemonEntriesFrom(&in, &out)) {
    return Status::Corruption(kTruncatedReply);
  }
  return out;
}

Status RemoteHam::SetNodeDemon(Context ctx, ham::NodeIndex node,
                               ham::Event event, const std::string& demon) {
  std::string args;
  PutContext(&args, ctx);
  PutVarint64(&args, node);
  args.push_back(static_cast<char>(event));
  PutLengthPrefixed(&args, demon);
  return Call(Method::kSetNodeDemon, args).status();
}

Result<std::vector<ham::DemonEntry>> RemoteHam::GetNodeDemons(
    Context ctx, ham::NodeIndex node, ham::Time time) {
  std::string args;
  PutContext(&args, ctx);
  PutVarint64(&args, node);
  PutVarint64(&args, time);
  NEPTUNE_ASSIGN_OR_RETURN(std::string reply,
                           Call(Method::kGetNodeDemons, args));
  std::string_view in = reply;
  std::vector<ham::DemonEntry> out;
  if (!DecodeDemonEntriesFrom(&in, &out)) {
    return Status::Corruption(kTruncatedReply);
  }
  return out;
}

Result<ham::ContextInfo> RemoteHam::CreateContext(Context ctx,
                                                  const std::string& name) {
  std::string args;
  PutContext(&args, ctx);
  PutLengthPrefixed(&args, name);
  NEPTUNE_ASSIGN_OR_RETURN(std::string reply,
                           Call(Method::kCreateContext, args));
  std::string_view in = reply;
  ham::ContextInfo out;
  std::string_view out_name;
  if (!GetVarint64(&in, &out.thread) || !GetLengthPrefixed(&in, &out_name) ||
      !GetVarint64(&in, &out.branched_at)) {
    return Status::Corruption(kTruncatedReply);
  }
  out.name.assign(out_name);
  return out;
}

Result<Context> RemoteHam::OpenContext(Context ctx, ham::ThreadId thread) {
  std::string args;
  PutContext(&args, ctx);
  PutVarint64(&args, thread);
  NEPTUNE_ASSIGN_OR_RETURN(std::string reply,
                           Call(Method::kOpenContext, args));
  std::string_view in = reply;
  Context out;
  if (!GetVarint64(&in, &out.session)) {
    return Status::Corruption(kTruncatedReply);
  }
  return out;
}

Status RemoteHam::MergeContext(Context ctx, ham::ThreadId source, bool force) {
  std::string args;
  PutContext(&args, ctx);
  PutVarint64(&args, source);
  PutBool(&args, force);
  return Call(Method::kMergeContext, args).status();
}

Result<std::vector<ham::ContextInfo>> RemoteHam::ListContexts(Context ctx) {
  std::string args;
  PutContext(&args, ctx);
  NEPTUNE_ASSIGN_OR_RETURN(std::string reply,
                           Call(Method::kListContexts, args));
  std::string_view in = reply;
  std::vector<ham::ContextInfo> out;
  if (!DecodeContextInfosFrom(&in, &out)) {
    return Status::Corruption(kTruncatedReply);
  }
  return out;
}

Status RemoteHam::Checkpoint(Context ctx) {
  std::string args;
  PutContext(&args, ctx);
  return Call(Method::kCheckpoint, args).status();
}

Result<ham::GraphStats> RemoteHam::GetStats(Context ctx) {
  std::string args;
  PutContext(&args, ctx);
  NEPTUNE_ASSIGN_OR_RETURN(std::string reply, Call(Method::kGetStats, args));
  std::string_view in = reply;
  ham::GraphStats out;
  if (!DecodeStatsFrom(&in, &out)) return Status::Corruption(kTruncatedReply);
  return out;
}

Result<ham::ThreadId> RemoteHam::ContextThread(Context ctx) {
  std::string args;
  PutContext(&args, ctx);
  NEPTUNE_ASSIGN_OR_RETURN(std::string reply,
                           Call(Method::kContextThread, args));
  std::string_view in = reply;
  ham::ThreadId thread = 0;
  if (!GetVarint64(&in, &thread)) return Status::Corruption(kTruncatedReply);
  return thread;
}

Result<ham::ReplFetchResult> RemoteHam::ReplFetch(
    const ham::ReplFetchRequest& request) {
  std::string args;
  EncodeReplFetchRequestTo(request, &args);
  NEPTUNE_ASSIGN_OR_RETURN(std::string reply, Call(Method::kReplFetch, args));
  std::string_view in = reply;
  ham::ReplFetchResult out;
  if (!DecodeReplFetchResultFrom(&in, &out)) {
    return Status::Corruption(kTruncatedReply);
  }
  return out;
}

Result<ham::ReplNodeStatus> RemoteHam::ReplStatus(
    const std::string& directory) {
  std::string args;
  PutLengthPrefixed(&args, directory);
  NEPTUNE_ASSIGN_OR_RETURN(std::string reply, Call(Method::kReplStatus, args));
  std::string_view in = reply;
  ham::ReplNodeStatus out;
  if (!DecodeReplNodeStatusFrom(&in, &out)) {
    return Status::Corruption(kTruncatedReply);
  }
  return out;
}

Result<std::vector<std::string>> RemoteHam::ReplListGraphs(
    const std::string& root) {
  std::string args;
  PutLengthPrefixed(&args, root);
  NEPTUNE_ASSIGN_OR_RETURN(std::string reply,
                           Call(Method::kReplListGraphs, args));
  std::string_view in = reply;
  std::vector<std::string> out;
  if (!DecodeStringVecFrom(&in, &out)) {
    return Status::Corruption(kTruncatedReply);
  }
  return out;
}

Result<uint64_t> RemoteHam::Promote() {
  NEPTUNE_ASSIGN_OR_RETURN(std::string reply, Call(Method::kReplPromote, ""));
  std::string_view in = reply;
  uint64_t term = 0;
  if (!GetVarint64(&in, &term)) return Status::Corruption(kTruncatedReply);
  return term;
}

}  // namespace rpc
}  // namespace neptune
