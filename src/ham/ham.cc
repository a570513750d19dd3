#include "ham/ham.h"

#include <algorithm>
#include <chrono>
#include <shared_mutex>

#include "common/clock.h"
#include "common/coding.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/trace.h"
#include "delta/recon_cache.h"

namespace neptune {
namespace ham {

namespace {

constexpr char kMetaMagic[] = "NEPMETA1";  // 8 bytes

// Session::aborted_by reasons.
constexpr char kLeaseExpiry[] = "lease expiry";
constexpr char kDroppedParent[] =
    "a failed fsync of the pending commit it read from";

// First whitespace-delimited word of a demon value — the registry key.
std::string DemonCallbackName(const std::string& demon) {
  size_t end = demon.find(' ');
  return end == std::string::npos ? demon : demon.substr(0, end);
}

Event EventForOp(const Op& op) {
  switch (op.kind) {
    case OpKind::kAddNode:
      return Event::kAddNode;
    case OpKind::kDeleteNode:
      return Event::kDeleteNode;
    case OpKind::kAddLink:
      return Event::kAddLink;
    case OpKind::kDeleteLink:
      return Event::kDeleteLink;
    case OpKind::kModifyNode:
      return Event::kModifyNode;
    case OpKind::kSetNodeAttribute:
    case OpKind::kSetLinkAttribute:
      return Event::kSetAttribute;
    case OpKind::kDeleteNodeAttribute:
    case OpKind::kDeleteLinkAttribute:
      return Event::kDeleteAttribute;
    case OpKind::kChangeNodeProtection:
      return Event::kChangeProtection;
    default:
      return Event::kCommitTransaction;  // no per-op demon event
  }
}

bool OpHasDemonEvent(const Op& op) {
  switch (op.kind) {
    case OpKind::kInternAttribute:
    case OpKind::kSetGraphDemon:
    case OpKind::kSetNodeDemon:
    case OpKind::kCreateContext:
    case OpKind::kMergeContext:
      return false;
    default:
      return true;
  }
}

}  // namespace

// -------------------------------------------------------- DemonRegistry

void DemonRegistry::Register(const std::string& name, DemonCallback callback) {
  std::lock_guard<std::mutex> lock(mu_);
  callbacks_[name] = std::move(callback);
}

void DemonRegistry::Unregister(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  callbacks_.erase(name);
}

bool DemonRegistry::Fire(const DemonInvocation& invocation) const {
  DemonCallback callback;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = callbacks_.find(DemonCallbackName(invocation.demon));
    if (it == callbacks_.end()) return false;
    callback = it->second;
  }
  NEPTUNE_METRIC_COUNT("ham.demons.fired", 1);
  callback(invocation);
  return true;
}

// ------------------------------------------------------------- lifecycle

Ham::Ham(Env* env, HamOptions options)
    : env_(env),
      options_(std::move(options)),
      time_(options_.time_source != nullptr ? options_.time_source
                                            : RealTimeSource()),
      project_rng_(options_.project_id_seed != 0 ? options_.project_id_seed
                                                 : (NowMicros() | 1)) {
  // The reconstruction cache is process-wide; the most recently
  // constructed engine's option wins (they normally agree).
  delta::ReconstructionCache::Instance().set_capacity_bytes(
      options_.recon_cache_bytes);
  // The tracer is process-wide too; same most-recent-engine-wins rule.
  Tracer::Instance().Configure(options_.trace_sample_n,
                               options_.trace_slow_us);
  // Pre-register the self-protection metrics so operator tooling
  // (neptune_ctl stats) shows the rows even before they first fire.
  MetricsRegistry::Instance().GetGauge("server.sessions.active");
  MetricsRegistry::Instance().GetCounter("ham.txn.aborted_by_lease");
  MetricsRegistry::Instance().GetCounter("ham.limits.rejected");
  MetricsRegistry::Instance().GetCounter("trace.spans.recorded");
  MetricsRegistry::Instance().GetCounter("trace.spans.dropped");
  MetricsRegistry::Instance().GetCounter("trace.slow_ops");
  // Query-planner and index-maintenance metrics (see graph_state.h's
  // planner notes): registered at zero so `neptune_ctl stats` shows
  // the taxonomy before the first query runs.
  MetricsRegistry::Instance().GetCounter("query.plan.index");
  MetricsRegistry::Instance().GetCounter("query.plan.intersect");
  MetricsRegistry::Instance().GetCounter("query.plan.scan");
  MetricsRegistry::Instance().GetCounter("query.index.applied_deltas");
  MetricsRegistry::Instance().GetCounter("query.index.rebuilds");
  MetricsRegistry::Instance().GetCounter("ham.demons.dispatch.indexed");
  // Replication metrics (ROADMAP item 3): pre-registered so both roles
  // expose the full repl.* taxonomy from the first stats scrape.
  follower_mode_.store(options_.follower_mode, std::memory_order_release);
  // Role/term gauges feed /statusz and `neptune_ctl top`: role is
  // 0 = primary, 1 = follower; term is the highest fencing term this
  // process has seen (updated on promote and by the replicator tail).
  MetricsRegistry::Instance().GetGauge("repl.role")->Set(
      options_.follower_mode ? 1 : 0);
  MetricsRegistry::Instance().GetGauge("repl.term");
  MetricsRegistry::Instance().GetGauge("repl.apply_lag_us");
  MetricsRegistry::Instance().GetGauge("repl.lag_bytes");
  MetricsRegistry::Instance().GetGauge("repl.follower.lag_bytes");
  MetricsRegistry::Instance().GetCounter("repl.primary.fetches");
  MetricsRegistry::Instance().GetCounter("repl.primary.bytes_shipped");
  MetricsRegistry::Instance().GetCounter("repl.primary.snapshots_shipped");
  MetricsRegistry::Instance().GetCounter("repl.primary.stale_term_rejects");
  MetricsRegistry::Instance().GetCounter("repl.follower.bytes_applied");
  MetricsRegistry::Instance().GetCounter("repl.follower.records_applied");
  MetricsRegistry::Instance().GetCounter("repl.follower.corrupt_chunks");
  MetricsRegistry::Instance().GetCounter("repl.follower.snapshots_installed");
  MetricsRegistry::Instance().GetCounter("repl.follower.rolls");
  MetricsRegistry::Instance().GetCounter("repl.promotions");
  if (options_.txn_lease_ms > 0 && !options_.manual_lease_sweep) {
    lease_watchdog_ = std::thread([this] { LeaseWatchdogLoop(); });
  }
}

Ham::~Ham() {
  if (lease_watchdog_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(watchdog_mu_);
      watchdog_stop_ = true;
    }
    watchdog_cv_.notify_all();
    lease_watchdog_.join();
  }
}

// ------------------------------------------------------- lease watchdog

Ham::LockedSession::LockedSession(std::shared_ptr<Session> session)
    : session_(std::move(session)), lock_(session_->op_mu) {
  session_->last_touch_us.store(session_->time->NowMicros(),
                                std::memory_order_relaxed);
}

Ham::LockedSession::~LockedSession() {
  // Renew on exit too: a long-running op must not leave the lease
  // looking stale the moment it finishes.
  if (session_ != nullptr) {
    session_->last_touch_us.store(session_->time->NowMicros(),
                                  std::memory_order_relaxed);
  }
}

void Ham::LeaseWatchdogLoop() {
  const uint64_t lease_us = options_.txn_lease_ms * 1000;
  const auto period = std::chrono::milliseconds(
      std::max<uint64_t>(options_.txn_lease_ms / 4, 5));
  std::unique_lock<std::mutex> lock(watchdog_mu_);
  while (!watchdog_stop_) {
    watchdog_cv_.wait_for(lock, period);
    if (watchdog_stop_) break;
    lock.unlock();
    SweepExpiredLeases(lease_us);
    lock.lock();
  }
}

void Ham::SweepLeasesNow() {
  if (options_.txn_lease_ms > 0) {
    SweepExpiredLeases(options_.txn_lease_ms * 1000);
  }
}

void Ham::SweepExpiredLeases(uint64_t lease_us) {
  // Collect candidates under the registry lock, then abort each under
  // its own op_mu with the registry lock released — the reverse order
  // (waiting for op_mu while holding registry_mu_) could deadlock with
  // openContext, which registers a session while inside an op.
  std::vector<std::shared_ptr<Session>> candidates;
  {
    const uint64_t now = time_->NowMicros();
    std::lock_guard<std::mutex> lock(registry_mu_);
    for (const auto& [id, session] : sessions_) {
      if (session->in_txn.load(std::memory_order_relaxed) &&
          now - session->last_touch_us.load(std::memory_order_relaxed) >
              lease_us) {
        candidates.push_back(session);
      }
    }
  }
  for (const std::shared_ptr<Session>& session : candidates) {
    // try_lock: if the session's thread is mid-op it is plainly not
    // abandoned, and the op renews the lease on exit anyway.
    std::unique_lock<std::recursive_mutex> op_lock(session->op_mu,
                                                   std::try_to_lock);
    if (!op_lock.owns_lock()) continue;
    if (!session->in_txn.load(std::memory_order_relaxed)) continue;
    if (time_->NowMicros() -
            session->last_touch_us.load(std::memory_order_relaxed) <=
        lease_us) {
      continue;  // renewed while we were collecting
    }
    NEPTUNE_TRACE_SPAN(span, "ham.txn.leaseAbort");
    if (span.active()) {
      span.Annotate("session=" + std::to_string(session->id) + " lease_ms=" +
                    std::to_string(options_.txn_lease_ms));
    }
    session->ops.clear();
    session->in_txn.store(false, std::memory_order_relaxed);
    session->aborted_by = kLeaseExpiry;
    ReleaseWriter(session->graph.get(), session.get());
    NEPTUNE_METRIC_COUNT("ham.txn.aborted_by_lease", 1);
    NEPTUNE_METRIC_COUNT("ham.txn.aborted", 1);
    NEPTUNE_LOG(Warn) << "event=lease_expired session=" << session->id
                      << " lease_ms=" << options_.txn_lease_ms
                      << " action=abort_and_release_writer";
  }
}

std::string Ham::EncodeMeta(ProjectId project, uint32_t protections) {
  std::string out(kMetaMagic, 8);
  PutFixed64(&out, project);
  PutVarint32(&out, protections);
  return out;
}

Status Ham::DecodeMeta(std::string_view meta, ProjectId* project,
                       uint32_t* protections) {
  if (meta.size() < 8 || meta.substr(0, 8) != std::string_view(kMetaMagic, 8)) {
    return Status::Corruption("bad PROJECT metadata magic");
  }
  meta.remove_prefix(8);
  if (!GetFixed64(&meta, project) || !GetVarint32(&meta, protections)) {
    return Status::Corruption("truncated PROJECT metadata");
  }
  return Status::OK();
}

Result<ProjectId> Ham::ReadProjectId(Env* env, const std::string& dir) {
  NEPTUNE_ASSIGN_OR_RETURN(std::string meta, DurableStore::ReadMeta(env, dir));
  ProjectId project = 0;
  uint32_t protections = 0;
  NEPTUNE_RETURN_IF_ERROR(DecodeMeta(meta, &project, &protections));
  return project;
}

Result<CreateGraphResult> Ham::CreateGraph(const std::string& directory,
                                           uint32_t protections) {
  NEPTUNE_TRACE_SPAN(op_span, "ham.createGraph");
  NEPTUNE_METRIC_TIMED(timer, "ham.op.graph");
  NEPTUNE_RETURN_IF_ERROR(RejectIfFollower());
  // A fresh graph: logical time 1 is its creation instant.
  GraphState state;
  const Time creation = state.clock().Tick();

  // Unique-enough project id (the Appendix only requires uniqueness).
  // The generator is per-engine and seedable (project_id_seed) so the
  // simulation harness reproduces identical ids run-to-run.
  ProjectId project = 0;
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    do {
      project = project_rng_.Next();
    } while (project == 0);
  }

  std::string snapshot;
  state.EncodeTo(&snapshot);
  NEPTUNE_ASSIGN_OR_RETURN(
      std::unique_ptr<DurableStore> store,
      DurableStore::Create(env_, directory, EncodeMeta(project, protections),
                           snapshot, protections));
  (void)store;  // closed immediately; openGraph re-opens
  return CreateGraphResult{project, creation};
}

Status Ham::DestroyGraph(ProjectId project, const std::string& directory) {
  NEPTUNE_TRACE_SPAN(op_span, "ham.destroyGraph");
  NEPTUNE_METRIC_TIMED(timer, "ham.op.graph");
  NEPTUNE_RETURN_IF_ERROR(RejectIfFollower());
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    auto it = graphs_.find(directory);
    if ((it != graphs_.end() && !it->second.expired()) ||
        loading_.count(directory) > 0) {
      return Status::FailedPrecondition(
          "graph in " + directory + " has open sessions; close them first");
    }
  }
  NEPTUNE_ASSIGN_OR_RETURN(std::string meta,
                           DurableStore::ReadMeta(env_, directory));
  ProjectId stored = 0;
  uint32_t protections = 0;
  NEPTUNE_RETURN_IF_ERROR(DecodeMeta(meta, &stored, &protections));
  if (stored != project) {
    return Status::PermissionDenied(
        "ProjectId does not match the graph in " + directory);
  }
  return DurableStore::Destroy(env_, directory);
}

Result<std::shared_ptr<Ham::GraphHandle>> Ham::LoadGraph(
    const std::string& directory) {
  std::promise<Result<std::shared_ptr<GraphHandle>>> loaded;
  {
    std::unique_lock<std::mutex> lock(registry_mu_);
    auto it = graphs_.find(directory);
    if (it != graphs_.end()) {
      if (std::shared_ptr<GraphHandle> handle = it->second.lock()) {
        return handle;
      }
      graphs_.erase(it);
    }
    // Another opener is recovering this store: a second DurableStore
    // would recover it again and open a second WAL writer on the live
    // file, so wait for the first one's result instead.
    auto loading = loading_.find(directory);
    if (loading != loading_.end()) {
      std::shared_future<Result<std::shared_ptr<GraphHandle>>> pending =
          loading->second;
      lock.unlock();
      return pending.get();
    }
    loading_.emplace(directory, loaded.get_future().share());
  }

  Result<std::shared_ptr<GraphHandle>> handle = RecoverGraph(directory);
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    loading_.erase(directory);
    if (handle.ok()) {
      std::weak_ptr<GraphHandle>& slot = graphs_[directory];
      if (std::shared_ptr<GraphHandle> existing = slot.lock()) {
        handle = existing;  // a follower's snapshot install got there first
      } else {
        slot = *handle;
      }
    }
  }
  loaded.set_value(handle);
  return handle;
}

Result<std::shared_ptr<Ham::GraphHandle>> Ham::RecoverGraph(
    const std::string& directory) {
  RecoveredState recovered;
  NEPTUNE_ASSIGN_OR_RETURN(
      std::unique_ptr<DurableStore> store,
      DurableStore::Open(env_, directory, &recovered,
                         options_.repl_keep_wal_generations));
  auto handle = std::make_shared<GraphHandle>();
  handle->directory = directory;
  handle->store = std::move(store);
  NEPTUNE_RETURN_IF_ERROR(
      DecodeMeta(recovered.meta, &handle->project, &handle->protections));
  NEPTUNE_ASSIGN_OR_RETURN(handle->state,
                           GraphState::DecodeFrom(recovered.snapshot));
  handle->state.set_attribute_index_enabled(options_.use_attribute_index);
  handle->state.set_keyframe_interval(options_.keyframe_interval);
  // Redo every committed transaction.
  for (const std::string& record : recovered.wal_records) {
    NEPTUNE_ASSIGN_OR_RETURN(std::vector<Op> ops, DecodeTransaction(record));
    for (const Op& op : ops) {
      Status status = handle->state.Apply(op, /*txn=*/nullptr);
      if (!status.ok()) {
        return Status::Corruption("WAL replay failed for " +
                                  std::string(OpKindName(op.kind)) + ": " +
                                  status.ToString());
      }
    }
  }
  handle->demon_index.Rebuild(handle->state);
  if (!recovered.report.Clean()) {
    NEPTUNE_LOG(Warn) << "event=graph_recovered dir=" << directory << " "
                      << recovered.report.ToString();
  } else {
    NEPTUNE_LOG(Info) << "event=graph_recovered dir=" << directory << " "
                      << recovered.report.ToString();
  }
  return handle;
}

Result<Context> Ham::OpenGraph(ProjectId project, const std::string& machine,
                               const std::string& directory) {
  NEPTUNE_TRACE_SPAN(op_span, "ham.openGraph");
  NEPTUNE_METRIC_TIMED(timer, "ham.op.graph");
  (void)machine;  // addressing is the RPC layer's concern
  NEPTUNE_ASSIGN_OR_RETURN(std::shared_ptr<GraphHandle> graph,
                           LoadGraph(directory));
  if (graph->project != project) {
    return Status::PermissionDenied("ProjectId does not match the graph in " +
                                    directory);
  }
  auto session = std::make_shared<Session>();
  session->graph = graph;
  session->time = time_;
  session->last_touch_us.store(time_->NowMicros(), std::memory_order_relaxed);
  GraphHandle* handle = graph.get();
  uint64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    id = next_session_++;
    session->id = id;
    sessions_[id] = std::move(session);
    handle->open_sessions++;
  }
  MetricsRegistry::Instance().GetGauge("server.sessions.active")->Increment();
  // "This operation can trigger a demon."
  Time now = 0;
  {
    std::shared_lock<std::shared_mutex> lock(handle->mu);
    now = handle->state.clock().Last();
  }
  FireEventDemons(handle, kMainThread, Event::kOpenGraph, 0, 0, now);
  return Context{id};
}

Status Ham::CloseGraph(Context ctx) {
  NEPTUNE_TRACE_SPAN(op_span, "ham.closeGraph");
  NEPTUNE_METRIC_TIMED(timer, "ham.op.graph");
  std::shared_ptr<Session> session;
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    auto it = sessions_.find(ctx.session);
    if (it == sessions_.end()) {
      return Status::InvalidArgument("invalid context handle");
    }
    session = std::move(it->second);
    sessions_.erase(it);
    session->graph->open_sessions--;
  }
  MetricsRegistry::Instance().GetGauge("server.sessions.active")->Decrement();
  // Serialize with the lease watchdog: it may hold a candidate
  // reference to this session and must observe the abort below.
  std::lock_guard<std::recursive_mutex> op_lock(session->op_mu);
  if (session->in_txn) {
    // Abort: staged state evaporates; free the writer slot.
    session->ops.clear();
    session->in_txn = false;
    ReleaseWriter(session->graph.get(), session.get());
  }
  return Status::OK();
}

Result<Ham::LockedSession> Ham::FindSession(Context ctx) {
  std::shared_ptr<Session> session;
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    auto it = sessions_.find(ctx.session);
    if (it == sessions_.end()) {
      return Status::InvalidArgument("invalid context handle " +
                                     std::to_string(ctx.session));
    }
    session = it->second;
  }
  // op_mu is taken after registry_mu_ is released; see SweepExpiredLeases
  // for why the orders must never interleave.
  return LockedSession(std::move(session));
}

// ----------------------------------------------------------- writer slot

void Ham::AcquireWriter(GraphHandle* graph, Session* session) {
  std::unique_lock<std::shared_mutex> lock(graph->mu, std::defer_lock);
  {
    // The writer-slot wait is where a contended graph spends its time;
    // give it its own span so traces attribute it correctly.
    NEPTUNE_TRACE_SPAN(span, "ham.lock.writer_wait");
    lock.lock();
    graph->writer_cv.wait(lock, [&] { return graph->writer_session == 0; });
  }
  graph->writer_session = session->id;
  ResolvePendingLocked(graph);
  session->overlay = GraphState::TxnOverlay();
  session->overlay.parent = PendingParentLocked(graph, session->thread);
  graph->writer_overlay = &session->overlay;
}

void Ham::ReleaseWriter(GraphHandle* graph, Session* session) {
  {
    std::lock_guard<std::shared_mutex> lock(graph->mu);
    ReleaseWriterLocked(graph, session);
  }
  graph->writer_cv.notify_all();
}

void Ham::ReleaseWriterLocked(GraphHandle* graph, Session* session) {
  session->overlay = GraphState::TxnOverlay();
  if (graph->writer_session == session->id) {
    graph->writer_session = 0;
    graph->writer_overlay = nullptr;
  }
}

bool Ham::WriterSlotLostLocked(GraphHandle* graph, Session* session) {
  if (!session->in_txn || graph->writer_session == session->id) return false;
  session->overlay = GraphState::TxnOverlay();
  session->ops.clear();
  session->in_txn = false;
  session->aborted_by = kDroppedParent;
  NEPTUNE_METRIC_COUNT("ham.txn.aborted", 1);
  return true;
}

// ------------------------------------------------------------ group commit

const GraphState::TxnOverlay* Ham::PendingParentLocked(GraphHandle* graph,
                                                       ThreadId thread) {
  if (!graph->pending.empty() && graph->pending.back()->thread != thread) {
    // Another thread's commit would fold into the records this overlay
    // copies from; let it land first so the WAL order holds.
    DrainPendingLocked(graph);
  }
  return graph->pending.empty() ? nullptr : &graph->pending.back()->overlay;
}

void Ham::FoldLocked(GraphHandle* graph, PendingCommit* commit) {
  graph->state.CommitOverlay(commit->thread, std::move(commit->overlay));
  commit->overlay = GraphState::TxnOverlay();
  // Fold demon mutations into the dispatch index while we still hold
  // the exclusive lock, so dispatch after release sees them.
  for (const Op& op : commit->ops) {
    graph->demon_index.ApplyCommitted(op);
  }
  commit->resolved = true;
}

void Ham::ResolvePendingLocked(GraphHandle* graph) {
  if (graph->pending.empty()) return;
  // One reading: a durable offset from one fsync paired with another's
  // failure would drop durable commits.
  const DurableStore::SyncState sync = graph->store->sync_state();
  bool folded = false;
  while (!graph->pending.empty() &&
         graph->pending.front()->lsn <= sync.durable_lsn) {
    FoldLocked(graph, graph->pending.front().get());
    graph->pending.pop_front();
    // Whatever chained to the folded overlay now reads it from state.
    if (!graph->pending.empty()) {
      graph->pending.front()->overlay.parent = nullptr;
    } else if (graph->writer_overlay != nullptr) {
      graph->writer_overlay->parent = nullptr;
    }
    folded = true;
  }
  if (!graph->pending.empty() && !sync.failure.ok()) {
    // The fsync failed: every record past the durable offset is lost
    // and the store will truncate it away. Drop those commits unfolded,
    // exactly as a failed append aborts one, and abort the slot holder
    // if its overlay read from them. The store cannot have been repaired
    // since the failure: the repairing append would carry the newest
    // pending LSN, which is not durable, and be refused.
    for (const std::shared_ptr<PendingCommit>& commit : graph->pending) {
      commit->overlay = GraphState::TxnOverlay();
      commit->resolved = true;
      commit->status = sync.failure;
    }
    graph->pending.clear();
    if (graph->writer_overlay != nullptr &&
        graph->writer_overlay->parent != nullptr) {
      *graph->writer_overlay = GraphState::TxnOverlay();
      graph->writer_overlay = nullptr;
      graph->writer_session = 0;
      graph->writer_cv.notify_all();
    }
  }
  // Wake any follower long-polling in ReplFetch for these bytes.
  if (folded) NotifyReplWaiters(graph);
}

void Ham::DrainPendingLocked(GraphHandle* graph) {
  if (graph->pending.empty()) return;
  // The outcome is read from each commit, not from the sync status.
  (void)graph->store->SyncTo(graph->pending.back()->lsn);
  ResolvePendingLocked(graph);
}

void Ham::MaybeCheckpointLocked(GraphHandle* graph) {
  if (graph->store->wal_bytes() <= options_.checkpoint_wal_bytes) return;
  DrainPendingLocked(graph);
  std::string snapshot;
  graph->state.EncodeTo(&snapshot);
  Status checkpoint_status = graph->store->Checkpoint(snapshot);
  if (!checkpoint_status.ok()) {
    NEPTUNE_LOG(Warn) << "event=auto_checkpoint_failed code="
                      << StatusCodeToString(checkpoint_status.code())
                      << " detail=\"" << checkpoint_status.message() << "\"";
    return;
  }
  // The epoch changed; long-polling followers must re-read it.
  NotifyReplWaiters(graph);
}

Status Ham::AwaitDurable(GraphHandle* graph, PendingCommit* commit) {
  for (;;) {
    // The status is advisory: the commit's own resolution decides.
    (void)graph->store->SyncTo(commit->lsn);
    std::lock_guard<std::shared_mutex> lock(graph->mu);
    ResolvePendingLocked(graph);
    if (commit->resolved) {
      if (commit->status.ok()) MaybeCheckpointLocked(graph);
      return commit->status;
    }
  }
}

// ----------------------------------------------------------- transactions

Status Ham::BeginTransaction(Context ctx) {
  NEPTUNE_TRACE_SPAN(op_span, "ham.beginTransaction");
  NEPTUNE_METRIC_TIMED(timer, "ham.op.txn");
  NEPTUNE_RETURN_IF_ERROR(RejectIfFollower());
  NEPTUNE_ASSIGN_OR_RETURN(LockedSession session, FindSession(ctx));
  if (session->in_txn) {
    return Status::FailedPrecondition("a transaction is already open");
  }
  session->aborted_by = nullptr;  // a fresh transaction gets a fresh lease
  AcquireWriter(session->graph.get(), session.get());
  session->in_txn = true;
  session->ops.clear();
  NEPTUNE_METRIC_COUNT("ham.txn.begun", 1);
  return Status::OK();
}

Result<std::shared_ptr<Ham::PendingCommit>> Ham::CommitLocked(
    GraphHandle* graph, Session* session) {
  if (session->ops.empty()) {
    session->overlay = GraphState::TxnOverlay();
    return std::shared_ptr<PendingCommit>();
  }
  const std::string record = EncodeTransaction(session->ops);
  NEPTUNE_TRACE_SPAN(span, "ham.txn.commit");
  if (span.active()) {
    span.Annotate("ops=" + std::to_string(session->ops.size()) +
                  " bytes=" + std::to_string(record.size()));
  }
  // Without sync_commits a record is durable once appended. A merge
  // writes the base state directly, not through the overlay, so readers
  // see it at once: it runs behind a drained queue and is fsynced before
  // the lock is released. Either way its LSN stays 0 and it folds below.
  const bool deferred = options_.sync_commits &&
                        session->ops.front().kind != OpKind::kMergeContext;
  auto commit = std::make_shared<PendingCommit>();
  Status status;
  if (deferred) {
    // The overlay still reads from the newest pending commit, if any.
    const uint64_t after_lsn =
        session->overlay.parent != nullptr ? graph->pending.back()->lsn : 0;
    Result<uint64_t> lsn =
        graph->store->AppendRecordDeferred(record, after_lsn);
    status = lsn.status();
    if (lsn.ok()) commit->lsn = *lsn;
  } else {
    status = graph->store->AppendRecord(record, options_.sync_commits);
  }
  if (!status.ok()) {
    // The transaction did not become durable; treat as aborted. The
    // failure (or the one that got this append refused) also lost every
    // pending commit past the durable offset: drop them now.
    session->overlay = GraphState::TxnOverlay();
    session->ops.clear();
    ResolvePendingLocked(graph);
    return status;
  }
  commit->thread = session->thread;
  commit->overlay = std::move(session->overlay);
  commit->ops = std::move(session->ops);
  session->overlay = GraphState::TxnOverlay();
  session->ops.clear();
  graph->pending.push_back(commit);
  ResolvePendingLocked(graph);  // folds it now if it is already durable
  if (commit->resolved) {
    // Durable already, or lost to a group fsync that failed after the
    // append.
    NEPTUNE_RETURN_IF_ERROR(commit->status);
    MaybeCheckpointLocked(graph);
  }
  return commit;
}

Status Ham::CommitTransaction(Context ctx) {
  NEPTUNE_TRACE_SPAN(op_span, "ham.commitTransaction");
  NEPTUNE_METRIC_TIMED(timer, "ham.op.txn");
  NEPTUNE_ASSIGN_OR_RETURN(LockedSession session, FindSession(ctx));
  if (session->aborted_by != nullptr) {
    std::string reason = session->aborted_by;
    session->aborted_by = nullptr;
    return Status::Aborted("transaction was aborted by " + reason +
                           "; nothing was committed");
  }
  if (!session->in_txn) {
    return Status::FailedPrecondition("no transaction is open");
  }
  GraphHandle* graph = session->graph.get();
  // The commit this transaction is acked with: its own, or for a
  // read-only transaction the pending one it read from.
  std::shared_ptr<PendingCommit> commit;
  bool own_commit = true;
  bool slot_lost = false;
  bool pending = false;  // read under the lock: resolvers write it
  Status status;
  {
    std::unique_lock<std::shared_mutex> lock(graph->mu, std::defer_lock);
    {
      NEPTUNE_TRACE_SPAN(lock_span, "ham.lock.exclusive_wait");
      lock.lock();
    }
    // Drops commits lost to a failed fsync, and with them this
    // transaction if it read from one.
    ResolvePendingLocked(graph);
    slot_lost = WriterSlotLostLocked(graph, session.get());
    if (!slot_lost) {
      if (session->ops.empty() && session->overlay.parent != nullptr) {
        commit = graph->pending.back();
        own_commit = false;
      }
      Result<std::shared_ptr<PendingCommit>> appended =
          CommitLocked(graph, session.get());
      status = appended.status();
      if (appended.ok() && *appended != nullptr) commit = *appended;
      pending = commit != nullptr && !commit->resolved;
      session->in_txn = false;
      // Early release: the next writer runs while this commit's fsync
      // is in flight.
      ReleaseWriterLocked(graph, session.get());
    }
  }
  graph->writer_cv.notify_all();
  if (slot_lost) {
    session->aborted_by = nullptr;
    return Status::Aborted(std::string("transaction was aborted by ") +
                           kDroppedParent + "; nothing was committed");
  }
  if (status.ok() && pending) status = AwaitDurable(graph, commit.get());
  if (status.ok()) {
    NEPTUNE_METRIC_COUNT("ham.txn.committed", 1);
  } else {
    NEPTUNE_METRIC_COUNT("ham.txn.aborted", 1);
  }
  if (status.ok() && own_commit && commit != nullptr) {
    FireDemons(graph, session->thread, commit->ops);
  }
  return status;
}

Status Ham::AbortTransaction(Context ctx) {
  NEPTUNE_TRACE_SPAN(op_span, "ham.abortTransaction");
  NEPTUNE_METRIC_TIMED(timer, "ham.op.txn");
  NEPTUNE_ASSIGN_OR_RETURN(LockedSession session, FindSession(ctx));
  if (session->aborted_by != nullptr) {
    // Already aborted from outside; the client's abort succeeds.
    session->aborted_by = nullptr;
    return Status::OK();
  }
  if (!session->in_txn) {
    return Status::FailedPrecondition("no transaction is open");
  }
  session->ops.clear();
  session->in_txn = false;
  ReleaseWriter(session->graph.get(), session.get());
  NEPTUNE_METRIC_COUNT("ham.txn.aborted", 1);
  return Status::OK();
}

Status Ham::Execute(Session* session, uint64_t session_id, Op* op) {
  NEPTUNE_RETURN_IF_ERROR(RejectIfFollower());
  if (session->aborted_by != nullptr) {
    // Refuse to silently fold what the client believes is transaction
    // work into an implicit commit; it must abort (or commit, and get
    // told) before continuing.
    return Status::Aborted(std::string("transaction was aborted by ") +
                           session->aborted_by + "; call abortTransaction");
  }
  GraphHandle* graph = session->graph.get();
  op->thread = session->thread;
  if (session->in_txn) {
    std::unique_lock<std::shared_mutex> lock(graph->mu, std::defer_lock);
    {
      NEPTUNE_TRACE_SPAN(lock_span, "ham.lock.exclusive_wait");
      lock.lock();
    }
    if (WriterSlotLostLocked(graph, session)) {
      return Status::Aborted(std::string("transaction was aborted by ") +
                             session->aborted_by + "; call abortTransaction");
    }
    op->time = graph->state.clock().Tick();
    NEPTUNE_RETURN_IF_ERROR(graph->state.Apply(*op, &session->overlay));
    session->ops.push_back(*op);
    return Status::OK();
  }
  // Implicit single-op transaction: hold the lock across apply+append,
  // but only once the writer slot is free.
  std::shared_ptr<PendingCommit> commit;
  bool pending = false;
  {
    std::unique_lock<std::shared_mutex> lock(graph->mu, std::defer_lock);
    {
      NEPTUNE_TRACE_SPAN(lock_span, "ham.lock.exclusive_wait");
      lock.lock();
      graph->writer_cv.wait(lock, [&] { return graph->writer_session == 0; });
    }
    (void)session_id;
    ResolvePendingLocked(graph);
    // A merge writes the base state directly, not through the overlay,
    // so pending commits must land first (see CommitLocked).
    if (op->kind == OpKind::kMergeContext) DrainPendingLocked(graph);
    session->overlay = GraphState::TxnOverlay();
    session->overlay.parent = PendingParentLocked(graph, session->thread);
    op->time = graph->state.clock().Tick();
    Status apply_status = graph->state.Apply(*op, &session->overlay);
    if (!apply_status.ok()) {
      // Drop copy-on-write residue so a later implicit op can't fold
      // stale record copies over newer base state.
      session->overlay = GraphState::TxnOverlay();
      return apply_status;
    }
    session->ops.push_back(*op);
    NEPTUNE_ASSIGN_OR_RETURN(commit, CommitLocked(graph, session));
    pending = !commit->resolved;
  }
  if (pending) NEPTUNE_RETURN_IF_ERROR(AwaitDurable(graph, commit.get()));
  NEPTUNE_METRIC_COUNT("ham.txn.implicit", 1);
  NEPTUNE_METRIC_COUNT("ham.txn.committed", 1);
  FireDemons(graph, session->thread, commit->ops);
  return Status::OK();
}

// ----------------------------------------------------------------- demons

void Ham::FireEventDemons(GraphHandle* graph, ThreadId thread, Event event,
                          NodeIndex node, LinkIndex link, Time time) {
  // Fast path: main-thread dispatch answers from the demon index
  // without touching the graph lock. Non-main threads resolve node
  // demons through their overlay, so they keep the locked path.
  if (thread == kMainThread) {
    std::string graph_demon;
    std::string node_demon;
    bool served = graph->demon_index.Lookup(event, node, &graph_demon,
                                            &node_demon);
    if (!served) {
      // Index was invalidated (merge/prune); rebuild under the shared
      // lock and retry once.
      std::shared_lock<std::shared_mutex> lock(graph->mu);
      graph->demon_index.Rebuild(graph->state);
      served = graph->demon_index.Lookup(event, node, &graph_demon,
                                         &node_demon);
    }
    if (served) {
      NEPTUNE_METRIC_COUNT("ham.demons.dispatch.indexed", 1);
      if (!graph_demon.empty()) {
        demon_registry_.Fire(DemonInvocation{event, time, graph->project,
                                             thread, node, link,
                                             std::move(graph_demon)});
      }
      if (!node_demon.empty()) {
        demon_registry_.Fire(DemonInvocation{event, time, graph->project,
                                             thread, node, link,
                                             std::move(node_demon)});
      }
      return;
    }
  }
  std::vector<DemonInvocation> to_fire;
  {
    std::shared_lock<std::shared_mutex> lock(graph->mu);
    std::string graph_demon = graph->state.GraphDemons(nullptr).Get(event, 0);
    if (!graph_demon.empty()) {
      to_fire.push_back(DemonInvocation{event, time, graph->project, thread,
                                        node, link, std::move(graph_demon)});
    }
    if (node != 0) {
      const NodeRecord* record = graph->state.FindNode(thread, nullptr, node);
      if (record != nullptr) {
        std::string node_demon = record->demons.Get(event, 0);
        if (!node_demon.empty()) {
          to_fire.push_back(DemonInvocation{event, time, graph->project,
                                            thread, node, link,
                                            std::move(node_demon)});
        }
      }
    }
  }
  for (const DemonInvocation& invocation : to_fire) {
    demon_registry_.Fire(invocation);
  }
}

void Ham::FireDemons(GraphHandle* graph, ThreadId thread,
                     const std::vector<Op>& ops) {
  for (const Op& op : ops) {
    if (!OpHasDemonEvent(op)) continue;
    FireEventDemons(graph, thread, EventForOp(op), op.node, op.link, op.time);
  }
  if (!ops.empty()) {
    FireEventDemons(graph, thread, Event::kCommitTransaction, 0, 0,
                    ops.back().time);
  }
}

}  // namespace ham
}  // namespace neptune
