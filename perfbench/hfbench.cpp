// hfbench: closed-loop end-to-end benchmark of a healthy three-site
// HyperFile deployment (see README.md in this directory).
//
//   hfbench --workload <tree_inproc|chain_epoll|durable_mix|durable_race>
//           --seed N --seconds S --trace 0|1 [--scratch DIR]
//   hfbench --self-check --seed N --seconds S [--scratch DIR]
//
// Every answer is checked against an oracle computed on a one-site
// population of the same seed. The last line of stdout is one JSON object:
// {"correct", "attempted", "failed", "metrics"}; the line before it carries
// the run context (seed, hardware, build, workload, sample counts).
#include <sys/utsname.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "dist/client.hpp"
#include "dist/cluster.hpp"
#include "dist/site_server.hpp"
#include "engine/execution.hpp"
#include "net/faulty.hpp"
#include "net/transport.hpp"
#include "probe.hpp"
#include "query/parser.hpp"
#include "query/rewrite.hpp"
#include "workload/paper_workload.hpp"

#ifndef HFBENCH_BUILD_TYPE
#define HFBENCH_BUILD_TYPE "unknown"
#endif

namespace hfbench {
namespace {

using namespace hyperfile;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kSites = 3;
// Setup takes milliseconds, so it is repeated and setup_s is the median:
// in each set-up phase at least kMinSetups times, and on while the phase
// (tear-downs included) has used less than kSetupPhaseS.
constexpr int kMinSetups = 2;
constexpr int kMaxSetups = 41;
constexpr double kSetupPhaseS = 0.2;
constexpr double kWarmupS = 1.0;   // untimed, answers still checked
constexpr double kSegmentS = 5.0;  // untraced windows are cut into ~5 s segments
constexpr Duration kOpTimeout = Duration(10'000'000);
// durable_mix moves side copies of every kSideStride-th object.
constexpr std::size_t kSideStride = 10;

/// What the move client of a workload moves, in pairs (away, then home).
enum class Moves {
  kNone,
  // Side copies: same tuples (and bytes) as an object of the population,
  // under a new id that no pointer names, so no query ever reaches them.
  kSide,
  // The objects the queries traverse. A query racing such a move can lose
  // the object without flagging its answer partial (README.md, "Known
  // defect"), so this workload is not in BENCHMARK.json.
  kQueried,
};

struct Workload {
  const char* name;
  const char* why;
  bool epoll;
  bool durable;
  std::size_t objects;
  const char* pointer_key;
  const char* search_key;
  std::int64_t key_space;
  std::size_t query_clients;
  Moves moves;  // anything but kNone: one more client sends paired moves
};

const Workload kWorkloads[] = {
    {"tree_inproc",
     "tree closure over 2,700 objects in-proc: ~7 messages per query, the "
     "engine's drain is nearly all of the elapsed time",
     false, false, 2700, "Tree", "Rand100p", 100, 2, Moves::kNone},
    {"chain_epoll",
     "chain closure over 270 objects on epoll sockets: 270 sequential remote "
     "hops per query, net/wire/dist/term set the latency",
     true, false, 270, "Chain", "Rand1000p", 1000, 2, Moves::kNone},
    {"durable_mix",
     "tree_inproc's queries beside paired moves of side objects no query "
     "reaches, on WAL, checkpoint and replication sites: store, replication "
     "and naming work",
     false, true, 2700, "Tree", "Rand100p", 100, 2, Moves::kSide},
    {"durable_race",
     "durable_mix with the paired moves on the objects the queries traverse: "
     "reproduces lost objects in unflagged answers; not gated",
     false, true, 2700, "Tree", "Rand100p", 100, 2, Moves::kQueried},
};

const char* moves_name(Moves m) {
  switch (m) {
    case Moves::kNone: return "none";
    case Moves::kSide: return "side copies";
    case Moves::kQueried: return "queried objects";
  }
  return "?";
}

const char* const kFlushPolicy =
    "WAL fflush per record; checkpoint fsync file then directory";

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool self_check = false;
  std::string scratch = ".bench_build/scratch";
};

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Nearest-rank quantile of an ascending vector (0 when empty).
double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return quantile(v, 0.5);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

template <typename T>
std::size_t type_index() {
  return wire::Message(T{}).index();
}

// ---------------------------------------------------------------------------
// Deployment: three sites plus clients, in-proc (Cluster) or epoll sockets.

/// Wraps site endpoints: an optional seeded fault on site 0 (self-check),
/// then the timing decorator (traced runs only).
struct Decoration {
  LayerProbe* probe = nullptr;
  const FaultOptions* fault = nullptr;

  std::unique_ptr<MessageEndpoint> operator()(
      SiteId site, std::unique_ptr<MessageEndpoint> ep) const {
    if (fault != nullptr && site == 0) {
      ep = std::make_unique<FaultInjectingEndpoint>(std::move(ep), *fault);
    }
    if (probe != nullptr) ep = std::make_unique<TimedEndpoint>(std::move(ep), *probe);
    return ep;
  }
};

class Deployment {
 public:
  Deployment(const Workload& w, std::uint64_t seed, const std::string& wal_dir,
             Decoration deco)
      : wal_dir_(wal_dir) {
    const std::size_t clients = w.query_clients + (w.moves != Moves::kNone ? 1 : 0);
    SiteServerOptions options;  // weighted termination, detector off
    if (w.durable) {
      options.wal_dir = wal_dir;
      options.checkpoint_interval = Duration(1'000'000);
      options.replication_interval = Duration(5'000);
    }
    std::vector<SiteStore*> stores;
    if (w.epoll) {
      std::vector<TcpPeer> zeros(kSites + clients, TcpPeer{"127.0.0.1", 0});
      std::vector<std::unique_ptr<SocketTransport>> nets;
      for (SiteId e = 0; e < kSites + clients; ++e) {
        auto net = make_socket_transport(TcpBackend::kEpoll, e, zeros);
        if (!net.ok()) {
          error_ = "epoll transport: " + net.error().to_string();
          return;
        }
        nets_.push_back(net.value().get());
        nets.push_back(std::move(net).value());
      }
      std::vector<TcpPeer> peers;
      for (auto* net : nets_) peers.push_back({"127.0.0.1", net->bound_port()});
      for (auto* net : nets_) {
        for (SiteId e = 0; e < peers.size(); ++e) net->update_peer(e, peers[e]);
      }
      for (SiteId s = 0; s < kSites; ++s) {
        servers_.push_back(std::make_unique<SiteServer>(
            deco(s, std::move(nets[s])), SiteStore(s), options));
        stores.push_back(&servers_.back()->store());
      }
      for (std::size_t c = 0; c < clients; ++c) {
        clients_.push_back(
            std::make_unique<Client>(std::move(nets[kSites + c]), 0));
      }
    } else {
      Cluster::EndpointDecorator decorate;
      if (deco.probe != nullptr || deco.fault != nullptr) decorate = deco;
      cluster_ = std::make_unique<Cluster>(kSites, options, clients, decorate);
      for (SiteId s = 0; s < kSites; ++s) stores.push_back(&cluster_->store(s));
    }
    workload::WorkloadConfig cfg;
    cfg.num_objects = w.objects;
    cfg.seed = seed;
    pop_ = workload::populate_paper_workload(stores, cfg);
    if (w.moves == Moves::kSide) {
      for (std::size_t i = 0; i < pop_.ids.size(); i += kSideStride) {
        SiteStore& store = *stores[pop_.site_of[i]];
        const ObjectId id = store.allocate();
        store.put(Object(id, store.get(pop_.ids[i])->tuples()));
        movable_.push_back({id, pop_.site_of[i]});
      }
    } else if (w.moves == Moves::kQueried) {
      for (std::size_t i = 0; i < pop_.ids.size(); ++i) {
        if (pop_.ids[i] != pop_.root) movable_.push_back({pop_.ids[i], pop_.site_of[i]});
      }
    }
    if (cluster_) {
      cluster_->start();
    } else {
      for (auto& s : servers_) s->start();
    }
  }

  ~Deployment() {
    if (cluster_) cluster_->stop();
    for (auto& s : servers_) s->stop();
    clients_.clear();
    servers_.clear();
    cluster_.reset();
    if (!wal_dir_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(wal_dir_, ec);
    }
  }

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  const std::string& error() const { return error_; }
  /// What the move client moves, each with its home site.
  const std::vector<std::pair<ObjectId, SiteId>>& movable() const { return movable_; }

  Client& client(std::size_t i) {
    return cluster_ ? cluster_->client(i) : *clients_[i];
  }

  NetworkStats network_stats() const {
    if (cluster_) return cluster_->network_stats();
    NetworkStats total;
    for (auto* net : nets_) total += net->stats();
    return total;
  }

  EngineStats engine_stats() const {
    if (cluster_) return cluster_->engine_stats();
    EngineStats total;
    for (const auto& s : servers_) total += s->engine_stats();
    return total;
  }

 private:
  std::string wal_dir_;
  std::string error_;
  std::unique_ptr<Cluster> cluster_;
  std::vector<std::unique_ptr<SiteServer>> servers_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::vector<SocketTransport*> nets_;  // owned by servers_ and clients_
  workload::PopulatedWorkload pop_;
  std::vector<std::pair<ObjectId, SiteId>> movable_;
};

// ---------------------------------------------------------------------------
// Oracle: the exact answer of every key, from a one-site population of the
// same seed, mapped to the three-site ids by abstract object index
// (partition invariance makes the mapping exact).

struct Oracle {
  std::vector<Query> queries;            // by key (index 0 unused)
  std::vector<std::string> texts;        // query text, for parse timing
  std::vector<std::vector<ObjectId>> truth;  // sorted three-site ids
  std::vector<double> local_drain_us;    // QueryExecution::drain, one site
};

Oracle build_oracle(const Workload& w, std::uint64_t seed) {
  workload::WorkloadConfig cfg;
  cfg.num_objects = w.objects;
  cfg.seed = seed;
  SiteStore three[] = {SiteStore(0), SiteStore(1), SiteStore(2)};
  SiteStore* three_ptrs[] = {&three[0], &three[1], &three[2]};
  const auto pop3 = workload::populate_paper_workload(three_ptrs, cfg);
  SiteStore one(0);
  SiteStore* stores[] = {&one};
  const auto pop1 = workload::populate_paper_workload(stores, cfg);
  std::unordered_map<ObjectId, std::size_t> index_of;
  for (std::size_t i = 0; i < pop1.ids.size(); ++i) index_of[pop1.ids[i]] = i;

  Oracle o;
  const auto keys = static_cast<std::size_t>(w.key_space) + 1;
  o.queries.resize(keys);
  o.texts.resize(keys);
  o.truth.resize(keys);
  o.local_drain_us.resize(keys);
  for (std::int64_t k = 1; k <= w.key_space; ++k) {
    Query q = workload::closure_query(w.pointer_key, w.search_key, k);
    QueryExecution exec(q, one);
    if (auto r = exec.seed_initial(); !r.ok()) {
      std::fprintf(stderr, "oracle: seed failed: %s\n",
                   r.error().to_string().c_str());
      std::exit(1);
    }
    const auto t0 = Clock::now();
    exec.drain();
    o.local_drain_us[k] = ms_since(t0) * 1000;
    auto& truth = o.truth[k];
    for (const ObjectId& id : exec.result_ids()) {
      truth.push_back(pop3.ids[index_of.at(id)]);
    }
    std::sort(truth.begin(), truth.end());
    o.texts[k] = q.to_string();
    o.queries[k] = std::move(q);
  }
  return o;
}

/// Why `r` is wrong (duplicate, foreign id, unflagged shortfall), or "".
std::string check_answer(const QueryResult& r,
                         const std::vector<ObjectId>& truth) {
  std::vector<ObjectId> ids = r.ids;
  std::sort(ids.begin(), ids.end());
  if (std::adjacent_find(ids.begin(), ids.end()) != ids.end()) {
    return "duplicate id in answer";
  }
  for (const ObjectId& id : ids) {
    if (!std::binary_search(truth.begin(), truth.end(), id)) {
      return "foreign id " + id.to_string() + " in answer";
    }
  }
  if (!r.partial && ids.size() != truth.size()) {
    return "unflagged shortfall: " + std::to_string(ids.size()) + " of " +
           std::to_string(truth.size()) + " ids";
  }
  return "";
}

// ---------------------------------------------------------------------------
// Closed-loop load.

struct Tally {
  std::vector<double> query_ms;  // exact answers only
  std::vector<double> move_ms;   // successful moves only
  std::uint64_t attempted = 0;   // queries + moves
  std::uint64_t failed = 0;      // partial, error or timeout
  std::uint64_t wrong = 0;
  std::uint64_t exact = 0;
  std::uint64_t moves = 0;
  std::string first_wrong;
  // Traced runs: per-query sums for the layer split.
  double client_us = 0;
  double elapsed_us = 0;
  double drain_us = 0;
  double hop_time_us = 0;  // sum of max(0, elapsed - sum of drain)
  double forwarded = 0;
  double spans = 0;
  double traced_queries = 0;
  std::int64_t parse_ns = 0;
  std::int64_t rewrite_ns = 0;
  std::vector<std::uint64_t> key_count;

  void add(const Tally& o) {
    query_ms.insert(query_ms.end(), o.query_ms.begin(), o.query_ms.end());
    move_ms.insert(move_ms.end(), o.move_ms.begin(), o.move_ms.end());
    attempted += o.attempted;
    failed += o.failed;
    wrong += o.wrong;
    exact += o.exact;
    moves += o.moves;
    if (first_wrong.empty()) first_wrong = o.first_wrong;
    client_us += o.client_us;
    elapsed_us += o.elapsed_us;
    drain_us += o.drain_us;
    hop_time_us += o.hop_time_us;
    forwarded += o.forwarded;
    spans += o.spans;
    traced_queries += o.traced_queries;
    parse_ns += o.parse_ns;
    rewrite_ns += o.rewrite_ns;
    if (key_count.size() < o.key_count.size()) key_count.resize(o.key_count.size());
    for (std::size_t k = 0; k < o.key_count.size(); ++k) key_count[k] += o.key_count[k];
  }
};

void query_loop(Deployment& d, const Oracle& oracle, std::size_t client,
                Rng rng, Clock::time_point until, bool traced, Tally& t) {
  t.key_count.assign(oracle.queries.size(), 0);
  const auto keys = static_cast<std::int64_t>(oracle.queries.size()) - 1;
  while (Clock::now() < until) {
    const auto k = static_cast<std::size_t>(rng.next_range(1, keys));
    if (traced) {
      const std::int64_t p0 = now_ns();
      auto parsed = parse_query(oracle.texts[k]);
      const std::int64_t p1 = now_ns();
      if (parsed.ok()) {
        const Query rewritten = rewrite_query(parsed.value());
        t.rewrite_ns += now_ns() - p1;
      }
      t.parse_ns += p1 - p0;
    }
    const auto t0 = Clock::now();
    auto r = d.client(client).run(oracle.queries[k], kOpTimeout);
    const double ms = ms_since(t0);
    ++t.attempted;
    ++t.key_count[k];
    if (!r.ok()) {
      ++t.failed;
      continue;
    }
    const QueryResult& res = r.value();
    if (std::string why = check_answer(res, oracle.truth[k]); !why.empty()) {
      ++t.wrong;
      if (t.first_wrong.empty()) t.first_wrong = "key " + std::to_string(k) + ": " + why;
      continue;
    }
    if (res.partial) {
      ++t.failed;
      continue;
    }
    ++t.exact;
    t.query_ms.push_back(ms);
    if (traced) {
      double drain = 0;
      double forwarded = 0;
      for (const TraceSpan& s : res.trace.spans) {
        drain += static_cast<double>(s.drain_us);
        forwarded += static_cast<double>(s.forwarded);
      }
      const auto elapsed = static_cast<double>(res.trace.elapsed_us);
      t.client_us += ms * 1000;
      t.elapsed_us += elapsed;
      t.drain_us += drain;
      t.hop_time_us += std::max(0.0, elapsed - drain);
      t.forwarded += forwarded;
      t.spans += static_cast<double>(res.trace.spans.size());
      t.traced_queries += 1;
    }
  }
}

/// One move, checked by the reported home.
bool timed_move(Client& c, const ObjectId& id, SiteId to, Tally& t) {
  const auto t0 = Clock::now();
  auto r = c.move(id, to, kOpTimeout);
  const double ms = ms_since(t0);
  ++t.attempted;
  if (!r.ok()) {
    ++t.failed;
    return false;
  }
  if (r.value() != to) {
    ++t.wrong;
    if (t.first_wrong.empty()) {
      t.first_wrong = "move of " + id.to_string() + " reported home " +
                      std::to_string(r.value()) + ", asked " + std::to_string(to);
    }
    return false;
  }
  ++t.moves;
  t.move_ms.push_back(ms);
  return true;
}

/// Paired moves (away, then home) so the layout stays steady.
void move_loop(Deployment& d, std::size_t client, Rng rng,
               Clock::time_point until, Tally& t) {
  const auto& objects = d.movable();
  const auto n = static_cast<std::int64_t>(objects.size());
  while (Clock::now() < until) {
    const auto i = static_cast<std::size_t>(rng.next_range(0, n - 1));
    const auto& [id, home] = objects[i];
    const SiteId away = static_cast<SiteId>((home + 1) % kSites);
    if (!timed_move(d.client(client), ObjectId(id.birth_site, id.seq, home), away, t)) {
      continue;
    }
    timed_move(d.client(client), ObjectId(id.birth_site, id.seq, away), home, t);
  }
}

/// Drive every client of the workload for `seconds`. `sample` runs on the
/// calling thread meanwhile (traced durable runs sample WAL sizes there).
template <typename Sample>
Tally drive(Deployment& d, const Workload& w, const Oracle& oracle,
            std::uint64_t seed, double seconds, bool traced, Sample&& sample) {
  const auto until = Clock::now() + std::chrono::microseconds(
                                        static_cast<std::int64_t>(seconds * 1e6));
  std::vector<Tally> tallies(w.query_clients + 1);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < w.query_clients; ++c) {
    threads.emplace_back(query_loop, std::ref(d), std::cref(oracle), c,
                         Rng(seed * 1000 + c), until, traced, std::ref(tallies[c]));
  }
  if (w.moves != Moves::kNone) {
    threads.emplace_back(move_loop, std::ref(d), w.query_clients,
                         Rng(seed * 1000 + 999), until, std::ref(tallies.back()));
  }
  sample(until);
  for (auto& th : threads) th.join();
  Tally total;
  for (const auto& t : tallies) total.add(t);
  return total;
}

void no_sample(Clock::time_point until) { std::this_thread::sleep_until(until); }

// ---------------------------------------------------------------------------
// Counters the program exports, read before and after a window.

struct Counters {
  NetworkStats net;
  EngineStats eng;
  std::uint64_t wal_appends = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t segments = 0;
  std::uint64_t catchups = 0;
  std::uint64_t busy_rejects = 0;

  static Counters read(const Deployment& d) {
    auto& m = metrics();
    return {d.network_stats(),
            d.engine_stats(),
            m.counter("store.wal_appends").value(),
            m.counter("dist.checkpoints").value(),
            m.counter("dist.wal_segments_shipped").value(),
            m.counter("dist.wal_catchups_shipped").value(),
            m.counter("net.epoll.busy_rejects").value()};
  }
};

/// Sum of WAL file growth across truncations, sampled every 5 ms.
struct WalGrowth {
  std::string dir;
  double bytes = 0;

  void operator()(Clock::time_point until) {
    std::vector<std::uintmax_t> last(kSites, 0);
    bool first = true;
    while (Clock::now() < until) {
      for (SiteId s = 0; s < kSites; ++s) {
        std::error_code ec;
        const auto size = std::filesystem::file_size(
            dir + "/site_" + std::to_string(s) + ".wal", ec);
        if (ec) continue;
        if (!first) bytes += static_cast<double>(size >= last[s] ? size - last[s] : size);
        last[s] = size;
      }
      first = false;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
};

// ---------------------------------------------------------------------------
// One run of a workload.

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string error;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, double>> samples;  // context only
};

std::string hardware_context() {
  std::string cpu = "unknown";
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
  utsname u{};
  const std::string kernel = uname(&u) == 0 ? std::string(u.release) : "unknown";
  std::string out = "\"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
                    ", \"cpu\": \"";
  for (char c : cpu) {
    if (c != '"' && c != '\\') out.push_back(c);
  }
  return out + "\", \"kernel\": \"" + kernel + "\", \"build\": \"" +
         HFBENCH_BUILD_TYPE + "\"";
}

void add_layer_metrics(RunResult& out, const Tally& t, const Oracle& oracle,
                       const SiteTally& probe, const Counters& c0,
                       const Counters& c1, double window_s, double wal_bytes,
                       double untraced_qps) {
  const double q = static_cast<double>(t.attempted - t.moves);
  const double ops = static_cast<double>(t.attempted);
  const double tq = t.traced_queries;
  auto add = [&](const std::string& name, double v, const char* unit) {
    out.metrics.push_back({name, v, unit});
  };
  auto d = [](std::uint64_t a, std::uint64_t b) { return static_cast<double>(b - a); };
  const auto& n0 = c0.net;
  const auto& n1 = c1.net;

  add("query.parse_us", ratio(static_cast<double>(t.parse_ns) / 1000, q), "us");
  add("query.rewrite_us", ratio(static_cast<double>(t.rewrite_ns) / 1000, q), "us");

  add("wire.encode_us", ratio(static_cast<double>(probe.encode_ns) / 1000, q), "us");
  add("wire.decode_us", ratio(static_cast<double>(probe.decode_ns) / 1000, q), "us");
  add("wire.bytes_per_query", ratio(d(n0.bytes_sent, n1.bytes_sent), q), "B");

  add("net.messages_per_query", ratio(d(n0.messages_sent, n1.messages_sent), q), "count");
  add("net.deref_messages_per_query",
      ratio(d(n0.deref_messages, n1.deref_messages) +
                d(n0.batch_deref_messages, n1.batch_deref_messages),
            q),
      "count");
  add("net.done_messages_per_query", ratio(d(n0.done_messages, n1.done_messages), q),
      "count");
  add("net.send_us", ratio(static_cast<double>(probe.send_ns) / 1000,
                           static_cast<double>(probe.sends)),
      "us");
  add("net.hop_us", ratio(t.hop_time_us, t.forwarded), "us");
  add("net.hop_share", ratio(t.hop_time_us, t.elapsed_us), "ratio");
  add("net.epoll.busy_rejects", d(c0.busy_rejects, c1.busy_rejects), "count");

  add("dist.origin_elapsed_us", ratio(t.elapsed_us, tq), "us");
  add("dist.client_overhead_us", ratio(t.client_us - t.elapsed_us, tq), "us");
  const std::pair<const char*, std::size_t> handled[] = {
      {"ClientRequest", type_index<wire::ClientRequest>()},
      {"DerefRequest", type_index<wire::DerefRequest>()},
      {"ResultMessage", type_index<wire::ResultMessage>()},
      {"QueryDone", type_index<wire::QueryDone>()},
      {"MoveCommand", type_index<wire::MoveCommand>()},
      {"WalSegment", type_index<wire::WalSegment>()},
  };
  for (const auto& [name, ix] : handled) {
    add(std::string("dist.handle_us.") + name,
        ratio(static_cast<double>(probe.handle_ns[ix]) / 1000,
              static_cast<double>(probe.handled[ix])),
        "us");
  }
  add("dist.loop_busy_frac",
      ratio(static_cast<double>(probe.busy_ns) / 1e9, window_s * kSites), "ratio");
  add("dist.loop_busy_max_ms", static_cast<double>(probe.busy_max_ns) / 1e6, "ms");
  add("dist.loop_gap_max_ms", static_cast<double>(probe.wait_max_ns) / 1e6, "ms");
  add("dist.stalls_over_50ms", static_cast<double>(probe.waits_over_50ms), "count");
  add("dist.sites_per_query", ratio(t.spans, tq), "count");

  add("engine.drain_us_per_query", ratio(t.drain_us, tq), "us");
  add("engine.drain_share", ratio(t.drain_us, t.elapsed_us), "ratio");
  double local = 0;
  double issued = 0;
  for (std::size_t k = 1; k < t.key_count.size(); ++k) {
    local += static_cast<double>(t.key_count[k]) * oracle.local_drain_us[k];
    issued += static_cast<double>(t.key_count[k]);
  }
  add("engine.local_drain_us", ratio(local, issued), "us");
  add("engine.processed_per_query", ratio(d(c0.eng.processed, c1.eng.processed), q),
      "count");
  add("engine.suppressed_ratio",
      ratio(d(c0.eng.suppressed, c1.eng.suppressed), d(c0.eng.pops, c1.eng.pops)),
      "ratio");
  add("engine.tuples_scanned_per_query",
      ratio(d(c0.eng.tuples_scanned, c1.eng.tuples_scanned), q), "count");

  add("term.result_messages_per_query",
      ratio(d(n0.result_messages, n1.result_messages), q), "count");
  add("term.ack_messages_per_query",
      ratio(static_cast<double>(probe.sent[type_index<wire::TermAck>()]), q), "count");

  add("store.wal_appends_per_op", ratio(d(c0.wal_appends, c1.wal_appends), ops), "count");
  add("store.wal_bytes_per_op", ratio(wal_bytes, ops), "B");
  add("store.checkpoints", d(c0.checkpoints, c1.checkpoints), "count");

  add("replication.segments_shipped", d(c0.segments, c1.segments), "count");
  add("replication.catchups", d(c0.catchups, c1.catchups), "count");
  const std::size_t seg = type_index<wire::WalSegment>();
  const std::size_t cat = type_index<wire::WalCatchup>();
  add("replication.lag_us",
      ratio(static_cast<double>(probe.wait_ns[seg] + probe.wait_ns[cat]) / 1000,
            static_cast<double>(probe.waited[seg] + probe.waited[cat])),
      "us");

  double move_frames = 0;
  for (std::size_t ix : {type_index<wire::MoveCommand>(), type_index<wire::MoveData>(),
                         type_index<wire::LocationUpdate>(), type_index<wire::MoveReply>()}) {
    move_frames += static_cast<double>(probe.sent[ix] + probe.from_clients[ix]);
  }
  add("naming.messages_per_move", ratio(move_frames, static_cast<double>(t.moves)),
      "count");

  const double traced_qps = static_cast<double>(t.exact) / window_s;
  add("trace.query_qps", traced_qps, "1/s");
  add("trace.untraced_qps", untraced_qps, "1/s");
  add("trace.qps_ratio", ratio(traced_qps, untraced_qps), "ratio");
}

RunResult run_workload(const Workload& w, const Args& a, const Oracle& oracle,
                       const FaultOptions* fault) {
  RunResult out;
  std::filesystem::create_directories(a.scratch);
  std::unique_ptr<LayerProbe> probe;
  if (a.trace) probe = std::make_unique<LayerProbe>(kSites);
  Tally all;  // everything outside the counted window: wrong answers only
  auto fail = [&](std::string why) {
    out.correct = all.wrong == 0;
    out.error = std::move(why);
    return out;
  };

  // Set up repeatedly in phases: one before each segment of an untraced
  // window and one after it, so setup_s (the median of all) samples the
  // host at several times. The host's speed changes in spells of seconds
  // (up to ~1.8x on a shared VM), so a set-up time holds within a phase but
  // not between phases. Each phase's last deployment is the one measured.
  std::vector<double> setup_s;
  std::string wal_dir;
  int wal_dirs = 0;
  std::string setup_error;
  auto set_up = [&]() -> std::unique_ptr<Deployment> {
    std::unique_ptr<Deployment> d;
    const auto phase = Clock::now();
    for (int i = 0;
         i < kMaxSetups && (i < kMinSetups || ms_since(phase) < kSetupPhaseS * 1000);
         ++i) {
      d.reset();
      if (w.durable) {
        wal_dir = a.scratch + "/wal-" + std::to_string(wal_dirs++);
        std::filesystem::remove_all(wal_dir);
        std::filesystem::create_directories(wal_dir);
      }
      const auto t0 = Clock::now();
      d = std::make_unique<Deployment>(w, a.seed, wal_dir,
                                       Decoration{probe.get(), fault});
      if (!d->error().empty()) {
        setup_error = d->error();
        return nullptr;
      }
      bool exact = false;
      for (int tries = 0; tries < 100 && !exact; ++tries) {
        auto r = d->client(0).run(oracle.queries[1], kOpTimeout);
        if (!r.ok()) continue;
        if (std::string why = check_answer(r.value(), oracle.truth[1]); !why.empty()) {
          setup_error = "setup answer wrong: " + why;
          ++all.wrong;
          return nullptr;
        }
        exact = !r.value().partial;
      }
      if (!exact) {
        setup_error = "no exact answer after setup";
        return nullptr;
      }
      setup_s.push_back(ms_since(t0) / 1000);
    }
    return d;
  };
  std::unique_ptr<Deployment> d = set_up();
  if (d == nullptr) return fail(setup_error);

  all.add(drive(*d, w, oracle, a.seed + 0x5eed, kWarmupS, false, no_sample));

  Tally t;
  double window_s = a.seconds;
  double untraced_qps = 0;
  std::vector<double> seg_qps;
  std::vector<double> seg_p50;
  Counters c0;
  Counters c1;
  SiteTally window_tally;
  double wal_bytes = 0;
  if (a.trace) {
    // Same run, probe off, then on: the ratio is the tracing overhead.
    const double off_s = a.seconds / 3;
    const Tally u = drive(*d, w, oracle, a.seed + 1, off_s, false, no_sample);
    untraced_qps = static_cast<double>(u.exact) / off_s;
    all.add(u);
    window_s = a.seconds - off_s;
    probe->enable();
    c0 = Counters::read(*d);
    WalGrowth growth{wal_dir};
    t = drive(*d, w, oracle, a.seed, window_s, true, [&](Clock::time_point until) {
      if (w.durable) {
        growth(until);
      } else {
        std::this_thread::sleep_until(until);
      }
    });
    c1 = Counters::read(*d);
    window_tally = probe->total();
    wal_bytes = growth.bytes;
  } else {
    // The window is cut into ~5 s segments, each on a fresh deployment
    // after its own warm-up; qps and p50 are medians over the segments. A
    // fresh deployment draws anew what a deployment settles into (on
    // durable_mix, how the sites' checkpoint pauses interleave), and a slow
    // spell of the host moves one segment's figures, not the run's.
    const int segments = std::max(1, static_cast<int>(std::lround(window_s / kSegmentS)));
    const double seg_s = window_s / segments;
    for (int seg = 0; seg < segments; ++seg) {
      if (seg > 0) {
        d.reset();
        d = set_up();
        if (d == nullptr) return fail(setup_error);
        all.add(drive(*d, w, oracle, a.seed * 64 + 32 + seg, kWarmupS, false, no_sample));
      }
      Tally part = drive(*d, w, oracle, a.seed * 64 + seg, seg_s, false, no_sample);
      std::sort(part.query_ms.begin(), part.query_ms.end());
      seg_qps.push_back(static_cast<double>(part.exact) / seg_s);
      seg_p50.push_back(quantile(part.query_ms, 0.5));
      t.add(part);
    }
  }
  d.reset();
  all.add(t);
  out.attempted = t.attempted;
  out.failed = t.failed;
  if (all.wrong > 0) {
    return fail(std::to_string(all.wrong) + " wrong answers; first: " + all.first_wrong);
  }
  if (!a.trace && set_up() == nullptr) return fail(setup_error);

  std::sort(t.query_ms.begin(), t.query_ms.end());
  std::sort(t.move_ms.begin(), t.move_ms.end());
  // Reported beside the result but not gated (see README.md): tails that
  // host noise or the epoll stall keep from being steady, and move latency,
  // which only durable_mix has.
  out.samples = {{"query_p99_ms", quantile(t.query_ms, 0.99)},
                 {"query_p999_ms", quantile(t.query_ms, 0.999)},
                 {"move_p50_ms", quantile(t.move_ms, 0.5)},
                 {"move_p99_ms", quantile(t.move_ms, 0.99)},
                 {"query_samples", static_cast<double>(t.query_ms.size())},
                 {"query_samples_beyond_p999", std::floor(0.001 * t.query_ms.size())},
                 {"move_samples", static_cast<double>(t.move_ms.size())},
                 {"failed_share", ratio(static_cast<double>(t.failed),
                                        static_cast<double>(t.attempted))},
                 {"window_s", window_s}};
  if (a.trace) {
    add_layer_metrics(out, t, oracle, window_tally, c0, c1, window_s, wal_bytes,
                      untraced_qps);
  } else {
    out.metrics = {
        {"setup_s", median(setup_s), "s"},
        {"query_qps", median(seg_qps), "1/s"},
        {"query_p50_ms", median(seg_p50), "ms"},
    };
    out.samples.push_back({"setup_runs", static_cast<double>(setup_s.size())});
  }
  out.samples.push_back({"segments", static_cast<double>(seg_qps.size())});
  return out;
}

std::string number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(const Workload& w, const Args& a, const RunResult& r) {
  std::string ctx = "{\"context\": {\"workload\": \"" + std::string(w.name) +
                    "\", \"why\": \"" + w.why + "\", \"seed\": " +
                    std::to_string(a.seed) + ", \"seconds\": " + number(a.seconds) +
                    ", \"trace\": " + (a.trace ? "1" : "0") +
                    ", \"loop\": \"closed\", \"query_clients\": " +
                    std::to_string(w.query_clients) + ", \"move_clients\": " +
                    (w.moves != Moves::kNone ? "1" : "0") + ", \"moved\": \"" +
                    moves_name(w.moves) + "\", \"sites\": " + std::to_string(kSites) +
                    ", \"transport\": \"" + (w.epoll ? "epoll" : "inproc") +
                    "\", \"durable\": " + (w.durable ? "true" : "false") +
                    ", \"flush_policy\": \"" + kFlushPolicy + "\", " +
                    hardware_context();
  for (const auto& [name, v] : r.samples) ctx += ", \"" + name + "\": " + number(v);
  std::printf("%s}}\n", ctx.c_str());

  std::string res = "{\"correct\": " + std::string(r.correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(r.attempted) +
                    ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    res += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  std::printf("%s}}\n", res.c_str());
  std::fflush(stdout);
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::map<std::string, double> by_name(const RunResult& r) {
  std::map<std::string, double> m;
  for (const Metric& x : r.metrics) m[x.name] = x.value;
  return m;
}

/// Self-check: a seeded FaultInjectingEndpoint delay on the site 0 -> 1
/// link must raise net.hop_us and dist.loop_gap_max_ms on chain_epoll and
/// leave the engine's per-query work unchanged.
int self_check(Args a) {
  const Workload& w = *find_workload("chain_epoll");
  a.trace = true;
  const Oracle oracle = build_oracle(w, a.seed);
  const RunResult base = run_workload(w, a, oracle, nullptr);
  FaultOptions held;
  held.delay_p = 0.005;
  held.max_hold_ticks = 400;
  held.seed = a.seed;
  for (SiteId e = 0; e < kSites + w.query_clients; ++e) {
    if (e != 1) held.exempt.push_back(e);
  }
  const RunResult slow = run_workload(w, a, oracle, &held);
  if (!base.error.empty() || !slow.error.empty()) {
    std::fprintf(stderr, "self-check run failed: %s%s\n", base.error.c_str(),
                 slow.error.c_str());
    return 1;
  }
  auto b = by_name(base);
  auto s = by_name(slow);
  struct Check {
    const char* what;
    bool ok;
  };
  auto near = [&](const char* name, double tol) {
    return std::fabs(s[name] - b[name]) <= tol * std::max(std::fabs(b[name]), 1e-9);
  };
  const Check checks[] = {
      {"net.hop_us rises 1.5x", s["net.hop_us"] > 1.5 * b["net.hop_us"]},
      {"dist.loop_gap_max_ms rises", s["dist.loop_gap_max_ms"] > b["dist.loop_gap_max_ms"]},
      {"engine.processed_per_query unchanged", near("engine.processed_per_query", 0.02)},
      {"engine.tuples_scanned_per_query unchanged",
       near("engine.tuples_scanned_per_query", 0.02)},
      {"engine.suppressed_ratio unchanged", near("engine.suppressed_ratio", 0.02)},
      {"engine.drain_us_per_query unchanged (30%)", near("engine.drain_us_per_query", 0.3)},
  };
  bool all_ok = true;
  for (const char* name : {"net.hop_us", "dist.loop_gap_max_ms", "dist.stalls_over_50ms",
                           "engine.processed_per_query", "engine.tuples_scanned_per_query",
                           "engine.suppressed_ratio", "engine.drain_us_per_query"}) {
    std::printf("%-34s base %12.3f  held %12.3f\n", name, b[name], s[name]);
  }
  for (const Check& c : checks) {
    std::printf("%s: %s\n", c.ok ? "PASS" : "FAIL", c.what);
    all_ok = all_ok && c.ok;
  }
  std::printf("self-check %s\n", all_ok ? "passed" : "FAILED");
  return all_ok ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: hfbench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--scratch DIR]\n       hfbench --self-check --seed N --seconds S "
               "[--scratch DIR]\n");
  return 2;
}

}  // namespace
}  // namespace hfbench

int main(int argc, char** argv) {
  using namespace hfbench;
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-check") {
      a.self_check = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (flag == "--trace") {
      a.trace = v == "1";
    } else if (flag == "--scratch") {
      a.scratch = v;
    } else {
      return usage();
    }
  }
  if (!(a.seconds > 0)) return usage();
  if (a.self_check) return self_check(a);
  const Workload* w = find_workload(a.workload);
  if (w == nullptr) return usage();

  const Oracle oracle = build_oracle(*w, a.seed);
  const RunResult r = run_workload(*w, a, oracle, nullptr);
  if (!r.error.empty()) std::fprintf(stderr, "hfbench: %s\n", r.error.c_str());
  if (r.correct && !r.error.empty()) return 1;  // could not run
  print_result(*w, a, r);
  return r.correct ? 0 : 1;
}
