// The closed-loop client side of the benchmark: workload specs, the
// clients that drive rpc::RemoteHam against the server and check every
// reply, the timed window, and the in-process follower node.

#ifndef NEPTUNE_PERFBENCH_HARNESS_H_
#define NEPTUNE_PERFBENCH_HARNESS_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "corpus.h"
#include "measure.h"
#include "rpc/remote_ham.h"
#include "rpc/replicator.h"
#include "rpc/server.h"

namespace perfbench {

namespace rpc = neptune::rpc;

enum OpClass { kOpen = 0, kQuery, kTraverse, kDiff, kCommit, kNumClasses };
extern const char* const kClassNames[kNumClasses];

struct WorkloadSpec {
  std::string name;
  Shape shape;
  int readers = 0;
  int writers = 0;
  bool historical = false;  // reader opens read historical versions
  // Reader mix weights per op class (kCommit unused).
  int weight[kNumClasses] = {0, 0, 0, 0, 0};
  int writer_nodes = 0;     // nodes in each writer's partition
};

// Every version a writer ever checked in, per node, for the "reply is
// some committed version" check on nodes that change during the run.
class VersionTable {
 public:
  explicit VersionTable(const Corpus& corpus);
  void Add(int node, uint64_t digest);
  bool Contains(int node, uint64_t digest) const;
  // Whether any check-in touched `node`.
  bool Changed(int node) const;

 private:
  struct Entry {
    mutable std::mutex mu;
    std::vector<uint64_t> digests;
  };
  std::unique_ptr<Entry[]> entries_;
};

// The timed window, shared by all clients of a run. An operation is
// measured when it starts at or after start_ns and ends by end_ns.
struct Window {
  std::atomic<uint64_t> start_ns{UINT64_MAX};
  std::atomic<uint64_t> end_ns{UINT64_MAX};
  std::atomic<bool> stop{false};
  // Measured operations and check-ins completed so far, so rates can be
  // taken per interval of the window.
  std::atomic<uint64_t> completed{0};
  std::atomic<uint64_t> checkins{0};
};

// State shared by every client of one run.
struct Shared {
  const WorkloadSpec* spec = nullptr;
  Corpus* corpus = nullptr;
  AttrIds attrs;
  ham::ProjectId project = 0;
  std::string primary_dir;
  uint16_t port = 0;
  // Follower routing (the replication replay).
  uint16_t follower_port = 0;
  std::string follower_dir;
  // Expected answers: queries by Corpus query number, traversals
  // parallel to corpus->traverse_roots().
  std::vector<std::vector<ham::NodeIndex>> query_answers;
  std::vector<std::vector<ham::NodeIndex>> traverse_answers;
  // Writer partitions (disjoint) and, when non-empty, the nodes readers
  // pick from (the union of the partitions being written).
  std::vector<std::vector<int>> partitions;
  std::vector<int> changing_nodes;
  std::unique_ptr<VersionTable> versions;
  Tracer tracer;
  // Interleave a Ping every N-th operation (0 = never).
  int ping_every = 0;
};

struct ClientStats {
  Samples latency[kNumClasses];
  uint64_t attempted = 0; // operations issued, measured or not
  uint64_t ops = 0;       // measured operations
  uint64_t failed = 0;    // operations that failed, measured or not
  uint64_t cpu_ns = 0;    // this thread's CPU over the window
  uint64_t bytes_written = 0;  // check-in contents + attribute values
  std::vector<std::string> errors;  // first few failures, for the log
};

class Client {
 public:
  enum class Role { kReader, kWriter };

  Client(Shared* shared, int id, Role role, uint64_t seed);

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // Connects (through the follower when `routed`) and opens the graph.
  neptune::Status Connect(bool routed);
  // Drives the in-process engine instead of a server (local replays).
  neptune::Status ConnectLocal(ham::HamInterface* engine);
  // Restricts a reader to one op class (scaling replays).
  void set_only(OpClass op) { only_ = op; }
  // Closed loop until window->stop; records only measured operations.
  void Run(Window* window);
  // Runs `count` operations of one class back to back and records all
  // of them (the probes after the window).
  void Probe(OpClass op, int count);

  ClientStats& stats() { return stats_; }

  // One operation; returns whether the reply was OK and correct and
  // stores its latency (check-ins: BeginTransaction to the durable
  // CommitTransaction ack) in *us.
  bool Open(double* us);
  bool Query(double* us);
  bool Traverse(double* us);
  bool Diff(double* us);
  bool Checkin(double* us);

 private:
  void Ping();
  OpClass PickReaderOp();
  bool RunOp(OpClass op, double* us);
  void Fail(const std::string& what);
  std::string EditLines(const std::string& text);

  Shared* shared_;
  const int id_;
  const Role role_;
  neptune::Random rng_;
  std::unique_ptr<rpc::RemoteHam> remote_;
  ham::HamInterface* target_ = nullptr;  // remote_ or a local engine
  const char* layer_ = "rpc";            // span layer of target_ calls
  ham::Context ctx_;
  int only_ = -1;
  Tracer::Buffer* trace_ = nullptr;
  ClientStats stats_;
  uint64_t checkins_ = 0;
  bool last_failed_ = false;
};

// An in-process replication follower: a follower-mode engine, its own
// rpc::Server, and an rpc::Replicator tailing the primary.
class FollowerNode {
 public:
  FollowerNode() = default;
  ~FollowerNode() { Stop(); }
  FollowerNode(const FollowerNode&) = delete;
  FollowerNode& operator=(const FollowerNode&) = delete;

  // Starts everything and waits until the replicator has caught up.
  neptune::Status Start(uint16_t primary_port, const std::string& primary_dir,
                        const std::string& dir);
  void Stop();

  ham::Ham* engine() { return engine_.get(); }
  uint16_t port() const { return port_; }
  const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
  std::unique_ptr<ham::Ham> engine_;
  std::unique_ptr<rpc::Server> server_;
  std::unique_ptr<rpc::RemoteHam> upstream_;
  std::unique_ptr<rpc::Replicator> replicator_;
  uint16_t port_ = 0;
};

}  // namespace perfbench

#endif  // NEPTUNE_PERFBENCH_HARNESS_H_
