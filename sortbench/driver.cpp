// sortbench_driver — one sort of one benchmark workload, in one process.
//
// Drives the sorter through its public API only (gen::generate_shard ->
// rt::Cluster -> core::DistributedSorter::run -> core::validate_sorted)
// and times each layer from the outside, around the calls into it; no
// timer is added inside src/. Prints one JSON object on stdout. run.py
// launches one driver process per sort, so an abort (PGXD_CHECK, e.g. a
// wait-graph deadlock) is a failed sort and peak RSS is never inherited
// from another sort.
//
//   sortbench_driver --workload paper_p52 --seed 7 --mode plain
//   sortbench_driver --workload lossy_ams_p256 --seed 7 --mode traced
//       --spans spans.json
//
// --mode setup   : one set-up (datagen, Cluster, DistributedSorter) and
//                  nothing else: a cold set-up in a fresh process.
// --mode plain   : one set-up, then one sort with telemetry off and no
//                  trace or sampler, then validation. Gives the end-to-end
//                  numbers.
// --mode traced  : the plain sort, then the same sort again with
//                  SortConfig::telemetry on and a sim::Trace attached,
//                  host-clock spans around every public call, the local
//                  sort replayed outside the simulator, and a std::sort
//                  reference. Gives the per-layer numbers. The two sorts
//                  must agree bit for bit on every simulated number and on
//                  the output digest.
// --scale tiny   : a few-thousand-key instance of the workload (self-test).
// --corrupt 1    : swap two keys in one output partition before validating
//                  (self-test: the failure must be counted).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/distributed_sort.hpp"
#include "core/sort_report.hpp"
#include "core/validate.hpp"
#include "datagen/distributions.hpp"
#include "obs/json.hpp"
#include "sim/trace.hpp"
#include "sort/local_sort.hpp"

namespace {

using Key = std::uint64_t;
using Sorter = pgxd::core::DistributedSorter<Key>;
using Cluster = Sorter::Cluster;
using Clock = std::chrono::steady_clock;

struct Workload {
  std::string_view name;
  pgxd::gen::Distribution dist;
  std::size_t p;
  std::size_t n;
  std::size_t tiny_p;
  std::size_t tiny_n;
  pgxd::core::PartitionScheme scheme;
  double drop_prob;
  double dup_prob;
};

// Why each workload exists is recorded in README.md beside this file.
constexpr Workload kWorkloads[] = {
    {"paper_p52", pgxd::gen::Distribution::kUniform, 52, std::size_t{1} << 22,
     8, std::size_t{1} << 14, pgxd::core::PartitionScheme::kOneLevelSample,
     0.0, 0.0},
    {"scale_p1024", pgxd::gen::Distribution::kUniform, 1024,
     std::size_t{1024} * 4096, 64, 64 * 64,
     pgxd::core::PartitionScheme::kOneLevelSample, 0.0, 0.0},
    {"skew_hist_p256", pgxd::gen::Distribution::kZipf, 256,
     std::size_t{1} << 22, 16, std::size_t{1} << 15,
     pgxd::core::PartitionScheme::kHistogramRefine, 0.0, 0.0},
    {"lossy_ams_p256", pgxd::gen::Distribution::kRightSkewed, 256,
     std::size_t{1} << 22, 16, std::size_t{1} << 15,
     pgxd::core::PartitionScheme::kTwoLevelAms, 0.02, 0.01},
};

enum class Mode { kSetup, kPlain, kTraced };

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  Mode mode = Mode::kPlain;
  bool tiny = false;
  bool corrupt = false;
  std::string spans_path;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "sortbench_driver: %s\nusage: sortbench_driver --workload "
               "NAME --seed N [--mode setup|plain|traced] [--scale "
               "full|tiny] [--corrupt 0|1] [--spans PATH]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage("missing value after a flag");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads)
        if (w.name == value) opt.workload = &w;
      if (opt.workload == nullptr) usage("unknown --workload");
    } else if (flag == "--seed") {
      opt.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--mode") {
      if (value == "setup") {
        opt.mode = Mode::kSetup;
      } else if (value == "plain") {
        opt.mode = Mode::kPlain;
      } else if (value == "traced") {
        opt.mode = Mode::kTraced;
      } else {
        usage("bad --mode");
      }
    } else if (flag == "--scale") {
      if (value != "full" && value != "tiny") usage("bad --scale");
      opt.tiny = value == "tiny";
    } else if (flag == "--corrupt") {
      opt.corrupt = value == "1";
    } else if (flag == "--spans") {
      opt.spans_path = value;
    } else {
      usage("unknown flag");
    }
  }
  if (opt.workload == nullptr || !have_seed)
    usage("--workload and --seed are required");
  return opt;
}

// Independent streams for datagen, the cluster's machines and the fabric's
// fault decisions, all derived from the one --seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

struct Shape {
  std::size_t p;
  std::size_t n;
};

Shape shape(const Options& opt) {
  const Workload& w = *opt.workload;
  return opt.tiny ? Shape{w.tiny_p, w.tiny_n} : Shape{w.p, w.n};
}

pgxd::gen::DataGenConfig datagen_config(const Options& opt) {
  pgxd::gen::DataGenConfig cfg;
  cfg.dist = opt.workload->dist;
  cfg.seed = derive_seed(opt.seed, 0);
  return cfg;
}

pgxd::rt::ClusterConfig cluster_config(const Options& opt) {
  const Workload& w = *opt.workload;
  pgxd::rt::ClusterConfig cfg;
  cfg.machines = shape(opt).p;
  cfg.seed = derive_seed(opt.seed, 1);
  cfg.net.faults.drop_prob = w.drop_prob;
  cfg.net.faults.duplicate_prob = w.dup_prob;
  cfg.net.faults.seed = derive_seed(opt.seed, 2);
  // The sort is not drop-tolerant without the ack/retransmit layer.
  cfg.reliable.enabled = w.drop_prob > 0 || w.dup_prob > 0;
  return cfg;
}

pgxd::core::SortConfig sort_config(const Options& opt, bool telemetry) {
  pgxd::core::SortConfig cfg;
  cfg.partition = opt.workload->scheme;
  // Set in both modes: the default reads $PGXD_TELEMETRY, which would
  // silently turn the untraced sort into a traced one.
  cfg.telemetry = telemetry;
  return cfg;
}

// Host-clock spans recorded by the benchmark around the calls it makes;
// kept in memory and written out once the run ends.
class SpanLog {
 public:
  struct Span {
    std::string name;
    int parent;
    Clock::time_point begin;
    Clock::time_point end;
  };

  explicit SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  // Runs fn() inside a span named `name` and returns its host seconds.
  template <typename Fn>
  double time(std::string_view name, Fn&& fn, int parent = -1) {
    const Clock::time_point begin = Clock::now();
    fn();
    const Clock::time_point end = Clock::now();
    if (enabled_) spans_.push_back({std::string(name), parent, begin, end});
    return std::chrono::duration<double>(end - begin).count();
  }

  // Opens a span that encloses later ones; close() fills in its end.
  int open(std::string_view name) {
    if (!enabled_) return -1;
    const Clock::time_point now = Clock::now();
    spans_.push_back({std::string(name), -1, now, now});
    return static_cast<int>(spans_.size() - 1);
  }
  void close(int id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end = Clock::now();
  }

  // Sum of the durations of every span called `name`.
  double total(std::string_view name) const {
    double s = 0;
    for (const Span& sp : spans_)
      if (sp.name == name)
        s += std::chrono::duration<double>(sp.end - sp.begin).count();
    return s;
  }

  // Chrome trace_event JSON ("X" complete events, microseconds).
  std::string chrome_json() const {
    pgxd::obs::JsonWriter w;
    w.begin_object();
    w.key("traceEvents");
    w.begin_array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& sp = spans_[i];
      w.begin_object();
      w.kv("name", std::string_view(sp.name));
      w.kv("ph", "X");
      w.kv("pid", 0);
      w.kv("tid", 0);
      w.kv("ts", us(sp.begin));
      w.kv("dur", us(sp.end) - us(sp.begin));
      w.key("args");
      w.begin_object();
      w.kv("id", static_cast<std::uint64_t>(i));
      w.kv("parent", sp.parent);
      w.end_object();
      w.end_object();
    }
    w.end_array();
    w.end_object();
    return w.str();
  }

 private:
  double us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// 64-bit digest of a word stream (FNV-1a over 64-bit words with a final
// avalanche), used to show that two runs produced identical data.
class Digest {
 public:
  void add(std::uint64_t w) {
    h_ = (h_ ^ w) * 0x100000001b3ULL;
    h_ ^= h_ >> 29;
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(derive_seed(h_, 3)));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string input_digest(const std::vector<std::vector<Key>>& shards) {
  Digest d;
  for (const auto& shard : shards) {
    d.add(shard.size());
    for (Key k : shard) d.add(k);
  }
  return d.hex();
}

std::string output_digest(const Sorter& sorter) {
  Digest d;
  for (const auto& part : sorter.partitions()) {
    d.add(part.size());
    for (const auto& item : part) {
      d.add(item.key);
      d.add(item.prov.prev_machine);
      d.add(item.prov.prev_index);
    }
  }
  return d.hex();
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double ms(pgxd::sim::SimTime t) { return static_cast<double>(t) / 1e6; }

// Every number the simulation produces for one sort. All of them are pure
// functions of the seed and the configuration, so two sorts of one seed
// must agree on each exactly.
struct SimNumbers {
  std::vector<std::pair<std::string, double>> values;

  void add(std::string name, double v) {
    values.emplace_back(std::move(name), v);
  }
  double get(std::string_view name) const {
    for (const auto& [k, v] : values)
      if (k == name) return v;
    return 0.0;
  }
};

SimNumbers collect_sim(Sorter& sorter) {
  const auto& st = sorter.stats();
  Cluster& cluster = sorter.cluster();
  SimNumbers s;
  s.add("sim_time_ms", ms(st.total_time));
  s.add("imbalance", st.balance.imbalance);
  for (std::size_t i = 0; i < pgxd::core::kStepCount; ++i) {
    const auto step = static_cast<pgxd::core::Step>(i);
    s.add(std::string("core.step.") + pgxd::core::step_metric_suffix(step) +
              "_ms",
          ms(st.steps_max[step]));
  }
  const auto& pt = st.partition;
  s.add("core.partition.rounds", static_cast<double>(pt.rounds));
  s.add("core.partition.sample_keys", static_cast<double>(pt.sample_keys));
  s.add("core.partition.probe_keys", static_cast<double>(pt.probe_keys));
  s.add("core.partition.level1_items", static_cast<double>(pt.level1_items));
  s.add("core.partition.control_bytes",
        static_cast<double>(st.wire_bytes_samples));
  s.add("core.partition.data_bytes",
        static_cast<double>(st.wire_bytes_total - st.wire_bytes_samples));

  const pgxd::net::Fabric& fabric = cluster.fabric();
  std::uint64_t dropped = 0, duplicated = 0;
  pgxd::sim::SimTime tx_busy_max = 0;
  for (std::size_t r = 0; r < fabric.machines(); ++r) {
    dropped += fabric.stats(r).messages_dropped;
    duplicated += fabric.stats(r).messages_duplicated;
    tx_busy_max = std::max(tx_busy_max, fabric.tx_busy(r));
  }
  s.add("net.messages", static_cast<double>(fabric.total_messages()));
  s.add("net.bytes", static_cast<double>(fabric.total_bytes()));
  s.add("net.tx_busy_max_ms", ms(tx_busy_max));
  s.add("net.dropped", static_cast<double>(dropped));
  s.add("net.duplicated", static_cast<double>(duplicated));
  s.add("sim.events",
        static_cast<double>(cluster.simulator().events_processed()));

  const auto& rs = cluster.comm().reliable_stats();
  s.add("runtime.comm.frames_sent", static_cast<double>(rs.frames_sent));
  s.add("runtime.comm.retransmits", static_cast<double>(rs.retransmits));
  s.add("runtime.comm.acks_sent", static_cast<double>(rs.acks_sent));
  s.add("runtime.comm.duplicates_suppressed",
        static_cast<double>(rs.duplicates_suppressed));
  // With reliable delivery off nothing is ever resent: every frame went
  // through on its first try.
  const std::uint64_t tries = rs.frames_sent + rs.retransmits;
  s.add("runtime.comm.first_try_ratio",
        tries ? static_cast<double>(rs.frames_sent) / static_cast<double>(tries)
              : 1.0);

  const auto& ps = sorter.pool_stats();
  s.add("runtime.pool.leases", static_cast<double>(ps.leases));
  s.add("runtime.pool.fresh_allocs", static_cast<double>(ps.fresh_allocs));
  s.add("runtime.pool.reuse_ratio",
        ps.leases ? static_cast<double>(ps.reuses) /
                        static_cast<double>(ps.leases)
                  : 0.0);
  s.add("runtime.pool.peak_free", static_cast<double>(ps.peak_free));

  std::uint64_t mem_peak = 0;
  for (std::size_t r = 0; r < cluster.size(); ++r)
    mem_peak = std::max(mem_peak, cluster.machine(r).memory().peak_total());
  s.add("runtime.mem.peak_mib", static_cast<double>(mem_peak) / (1 << 20));

  const auto& ws = sorter.wait_stats();
  s.add("sim.wait.mailbox_waits", static_cast<double>(ws.mailbox_waits));
  s.add("sim.wait.barrier_waits", static_cast<double>(ws.barrier_waits));
  s.add("sim.wait.pool_waits", static_cast<double>(ws.pool_waits));
  s.add("sim.wait.holds_added", static_cast<double>(ws.holds_added));
  s.add("sim.wait.deadlock_checks", static_cast<double>(ws.deadlock_checks));
  s.add("sim.wait.max_blocked", static_cast<double>(ws.max_blocked));
  s.add("sim.wait.deadlocks", static_cast<double>(ws.deadlocks));
  return s;
}

// Swaps the first and last keys of the first partition that holds two
// different keys: a corrupted output that validation must reject.
void corrupt_output(Sorter& sorter) {
  for (auto& part : sorter.mutable_partitions()) {
    if (part.size() >= 2 && part.front().key != part.back().key) {
      std::swap(part.front().key, part.back().key);
      return;
    }
  }
}

// One sort, set up, run and validated.
struct SortResult {
  double setup_s = 0;
  double sort_s = 0;
  double validate_s = 0;
  double peak_rss_mib = 0;
  bool ok = false;
  std::string failure;
  std::string input_digest;
  std::string output_digest;
  SimNumbers sim;
  double report_s = 0;
};

// Everything one set-up builds. Members are declared in construction order
// and destroyed in reverse: the sorter refers to the cluster.
struct Setup {
  std::vector<std::vector<Key>> shards;
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<Sorter> sorter;
};

Setup set_up(const Options& opt, bool telemetry, SpanLog& log, double& secs) {
  Setup s;
  const Shape sh = shape(opt);
  const pgxd::gen::DataGenConfig dcfg = datagen_config(opt);
  const int setup_span = log.open("setup");
  const Clock::time_point begin = Clock::now();
  for (std::size_t r = 0; r < sh.p; ++r)
    log.time(
        "datagen.generate_shard",
        [&] {
          s.shards.push_back(pgxd::gen::generate_shard(dcfg, sh.n, sh.p, r));
        },
        setup_span);
  log.time(
      "runtime.Cluster",
      [&] { s.cluster = std::make_unique<Cluster>(cluster_config(opt)); },
      setup_span);
  log.time(
      "core.DistributedSorter",
      [&] {
        s.sorter = std::make_unique<Sorter>(*s.cluster,
                                            sort_config(opt, telemetry));
      },
      setup_span);
  secs = std::chrono::duration<double>(Clock::now() - begin).count();
  log.close(setup_span);
  return s;
}

SortResult sort_once(const Options& opt, bool traced, SpanLog& log,
                     pgxd::sim::Trace* trace) {
  SortResult res;
  Setup s = set_up(opt, traced, log, res.setup_s);
  Sorter& sorter = *s.sorter;
  if (trace != nullptr) sorter.set_trace(trace);
  // The copy validation compares against; taken outside every timed span.
  const std::vector<std::vector<Key>> input = s.shards;
  res.input_digest = input_digest(input);

  res.sort_s = log.time("core.run", [&] { sorter.run(std::move(s.shards)); });
  res.peak_rss_mib = peak_rss_mib();
  res.sim = collect_sim(sorter);

  if (traced) {
    pgxd::core::SortRunInfo info;
    info.distribution = pgxd::gen::name(opt.workload->dist);
    info.n = shape(opt).n;
    info.machines = shape(opt).p;
    info.seed = opt.seed;
    std::optional<pgxd::core::SortReport> report;
    std::string json;
    res.report_s = log.time("obs.build_sort_report",
                            [&] {
                              report.emplace(
                                  pgxd::core::build_sort_report(sorter, info));
                            }) +
                   log.time("obs.to_json", [&] { json = report->to_json(); });
  }

  if (opt.corrupt) corrupt_output(sorter);
  res.output_digest = output_digest(sorter);
  pgxd::core::ValidationReport v;
  res.validate_s = log.time("core.validate_sorted", [&] {
    v = pgxd::core::validate_sorted(sorter.partitions(), input);
  });
  res.ok = v.ok();
  res.failure = v.failure;
  if (res.ok && res.sim.get("sim.wait.deadlocks") > 0) {
    res.ok = false;
    res.failure = "wait-for graph reported a deadlock";
  }
  return res;
}

// The traced run's layer replays, outside the simulator: the local-sort
// kernel over regenerated copies of the input shards, and one std::sort of
// all keys.
void replay_kernels(const Options& opt, SpanLog& log, double& local_sort_s,
                    double& std_sort_s) {
  const Shape sh = shape(opt);
  const pgxd::gen::DataGenConfig dcfg = datagen_config(opt);
  const pgxd::core::SortConfig cfg = sort_config(opt, true);
  std::vector<Key> all;
  all.reserve(sh.n);
  const int replay = log.open("sort.local_sort_replay");
  for (std::size_t r = 0; r < sh.p; ++r) {
    std::vector<Key> shard = pgxd::gen::generate_shard(dcfg, sh.n, sh.p, r);
    all.insert(all.end(), shard.begin(), shard.end());
    log.time(
        "sort.local_sort",
        [&] { pgxd::sort::local_sort(shard, cfg.local_sort); }, replay);
  }
  log.close(replay);
  local_sort_s = log.total("sort.local_sort");
  std_sort_s =
      log.time("ref.std_sort", [&] { std::sort(all.begin(), all.end()); });
}

void write_config(pgxd::obs::JsonWriter& w, const Options& opt) {
  const Shape sh = shape(opt);
  const pgxd::core::SortConfig cfg = sort_config(opt, false);
  const pgxd::rt::ClusterConfig cc = cluster_config(opt);
  w.key("config");
  w.begin_object();
  w.kv("distribution", pgxd::gen::name(opt.workload->dist));
  w.kv("n", static_cast<std::uint64_t>(sh.n));
  w.kv("p", static_cast<std::uint64_t>(sh.p));
  w.kv("threads_per_machine", cc.threads_per_machine);
  w.kv("datagen_seed", datagen_config(opt).seed);
  w.kv("cluster_seed", cc.seed);
  w.kv("fault_seed", cc.net.faults.seed);
  w.kv("drop_prob", cc.net.faults.drop_prob);
  w.kv("duplicate_prob", cc.net.faults.duplicate_prob);
  w.kv("reliable_delivery", cc.reliable.enabled);
  w.kv("read_buffer_bytes", cfg.read_buffer_bytes);
  w.kv("sample_factor", cfg.sample_factor);
  w.kv("use_investigator", cfg.use_investigator);
  w.kv("final_merge", pgxd::core::merge_algo_name(cfg.effective_final_merge()));
  w.kv("local_sort", pgxd::core::local_sort_algo_name(cfg.local_sort));
  w.kv("async_exchange", cfg.async_exchange);
  w.kv("buffered_exchange", cfg.buffered_exchange);
  w.kv("audit_exchange", cfg.audit_exchange);
  w.kv("soa_final_merge", cfg.soa_final_merge);
  w.kv("use_buffer_pool", cfg.use_buffer_pool);
  w.kv("scoped_pending_guard", cfg.scoped_pending_guard);
  w.kv("recovery_enabled", cfg.recovery.enabled);
  w.kv("partition", pgxd::core::partition_scheme_name(cfg.partition));
  w.kv("partition_epsilon", cfg.partition_epsilon);
  w.kv("partition_max_rounds", cfg.partition_max_rounds);
  w.kv("telemetry_plain", false);
  w.kv("telemetry_traced", true);
  w.end_object();
}

void write_sim(pgxd::obs::JsonWriter& w, std::string_view key,
               const SimNumbers& s) {
  w.key(key);
  w.begin_object();
  for (const auto& [k, v] : s.values) w.kv(k, v);
  w.end_object();
}

bool write_file(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  {
    const std::string why = sort_config(opt, false).validate();
    if (!why.empty()) usage(why.c_str());
  }

  // End-to-end numbers: telemetry off, no trace, no sampler.
  SpanLog untimed(false);
  if (opt.mode == Mode::kSetup) {
    double secs = 0;
    const Setup s = set_up(opt, false, untimed, secs);
    std::printf("{\"setup_s\": %.9f}\n", secs);
    return 0;
  }
  const SortResult plain = sort_once(opt, false, untimed, nullptr);

  pgxd::obs::JsonWriter w;
  w.begin_object();
  w.kv("workload", opt.workload->name);
  w.kv("seed", opt.seed);
  w.kv("mode", opt.mode == Mode::kTraced ? "traced" : "plain");
  w.kv("build_type", SORTBENCH_BUILD_TYPE);
  w.kv("compiler", SORTBENCH_COMPILER);
  write_config(w, opt);
  w.kv("input_digest", std::string_view(plain.input_digest));
  w.kv("output_digest", std::string_view(plain.output_digest));
  w.kv("setup_s", plain.setup_s);
  w.kv("sort_s", plain.sort_s);
  w.kv("validate_s", plain.validate_s);
  w.kv("peak_rss_mib", plain.peak_rss_mib);
  write_sim(w, "sim", plain.sim);

  bool ok = plain.ok;
  std::string failure = plain.failure;
  if (opt.mode == Mode::kTraced) {
    SpanLog log(true);
    pgxd::sim::Trace trace;
    const SortResult traced = sort_once(opt, true, log, &trace);
    double local_sort_s = 0, std_sort_s = 0;
    replay_kernels(opt, log, local_sort_s, std_sort_s);
    if (ok && !traced.ok) {
      ok = false;
      failure = "traced sort: " + traced.failure;
    }
    if (ok && (traced.sim.values != plain.sim.values ||
               traced.output_digest != plain.output_digest)) {
      ok = false;
      failure = "telemetry changed the simulated results or the output";
    }
    w.key("layer");
    w.begin_object();
    w.kv("datagen.gen_s", log.total("datagen.generate_shard"));
    w.kv("runtime.cluster_init_s", log.total("runtime.Cluster"));
    w.kv("core.run_s", traced.sort_s);
    w.kv("sort.local_sort_replay_s", local_sort_s);
    w.kv("ref.std_sort_s", std_sort_s);
    w.kv("obs.report_s", traced.report_s);
    w.kv("obs.telemetry_overhead_s", traced.sort_s - plain.sort_s);
    w.kv("sim.host_ns_per_event",
         plain.sort_s * 1e9 / std::max(1.0, plain.sim.get("sim.events")));
    w.end_object();
    if (!opt.spans_path.empty() &&
        !write_file(opt.spans_path, log.chrome_json())) {
      std::fprintf(stderr, "sortbench_driver: cannot write %s\n",
                   opt.spans_path.c_str());
      return 1;
    }
  }
  w.kv("ok", ok);
  w.kv("failure", std::string_view(failure));
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  return 0;
}
