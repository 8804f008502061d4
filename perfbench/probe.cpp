// perfbench_probe — the in-process helper of the end-to-end benchmark
// (perfbench/run.py). It calls the library's public functions the way the
// dcolor CLI and a serve client do and times each call from outside; no
// timer or span inside the library is added or read except through the
// public TraceSink interface.
//
//   --mode=info         The SIMD level, for the provenance line.
//   --mode=color        Replays `dcolor --cmd=color` on an OLDC instance
//                       stage by stage (load, orient, linial, solve,
//                       validate, emit) and samples peak and current RSS
//                       after each stage. --sink also installs a Tracer
//                       with the benchmark's own TraceSink, which splits
//                       the simulator rounds of each stage into deliver
//                       (round wall minus step) and step time.
//   --mode=serve-setup  Creates and solves sessions on a running daemon,
//                       one connection per session, concurrently.
//   --mode=serve-loop   Closed-loop client, one connection per session:
//                       each iteration is a repair (mutate add_edge ->
//                       recolor -> query both endpoints) and a read (query
//                       of 16 random nodes). Afterwards it fetches every
//                       final coloring and validates it against an
//                       in-process DynamicInstance replay of the same
//                       create and mutation sequence.
//
// Every mode writes one JSON object to --json=<file>; run.py turns the
// raw samples into metrics and does the bookkeeping of failures.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "coloring/linial.h"
#include "core/run_context.h"
#include "core/solver_registry.h"
#include "graph/generators.h"
#include "graph/orientation.h"
#include "io/instance_io.h"
#include "serve/client.h"
#include "serve/dynamic_instance.h"
#include "serve/json.h"
#include "sim/trace.h"
#include "util/check.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/rss.h"
#include "util/simd.h"

namespace dcolor {
namespace {

using serve::JsonValue;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double ns_to_ms(double ns) { return ns / 1e6; }

double mib(std::int64_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

void write_json(const std::string& path, const JsonValue& value) {
  std::ofstream os(path);
  DCOLOR_CHECK_MSG(static_cast<bool>(os), "cannot open " << path);
  os << value.dump() << "\n";
  DCOLOR_CHECK_MSG(static_cast<bool>(os), "cannot write " << path);
}

// ---- info ---------------------------------------------------------------

int mode_info(const CliArgs& args) {
  JsonValue out = JsonValue::object();
  out.set("simd", simd::level_name(simd::active_level()));
  write_json(args.get_string("json", "info.json"), out);
  return 0;
}

// ---- color replay -------------------------------------------------------

/// Benchmark-owned sink: sums the simulator rounds of whichever replay
/// stage is running (the replay points `current` at that stage's totals).
class StageSink final : public TraceSink {
 public:
  struct Totals {
    std::int64_t rounds = 0;  ///< materialized rounds
    std::int64_t vector_rounds = 0;
    std::int64_t wall_ns = 0;  ///< deliver + activate + step
    std::int64_t step_ns = 0;
    double chunk_max_ns = 0;   ///< sum over rounds of the slowest chunk
    double chunk_mean_ns = 0;  ///< sum over rounds of the mean chunk
  };

  Totals* current = nullptr;

  void on_round(const TraceRound& rec) override {
    if (current == nullptr) return;
    ++current->rounds;
    if (rec.engine == EngineKind::kVector) ++current->vector_rounds;
    current->wall_ns += rec.wall_ns;
    current->step_ns += rec.step_ns;
    if (!rec.chunk_ns.empty()) {
      std::int64_t max_ns = 0;
      double sum_ns = 0;
      for (const std::int64_t c : rec.chunk_ns) {
        max_ns = std::max(max_ns, c);
        sum_ns += static_cast<double>(c);
      }
      current->chunk_max_ns += static_cast<double>(max_ns);
      current->chunk_mean_ns +=
          sum_ns / static_cast<double>(rec.chunk_ns.size());
    }
  }
};

JsonValue totals_json(const StageSink::Totals& t) {
  JsonValue out = JsonValue::object();
  out.set("rounds", t.rounds)
      .set("vector_rounds", t.vector_rounds)
      .set("wall_ms", ns_to_ms(static_cast<double>(t.wall_ns)))
      .set("step_ms", ns_to_ms(static_cast<double>(t.step_ns)))
      .set("chunk_max_ms", ns_to_ms(t.chunk_max_ns))
      .set("chunk_mean_ms", ns_to_ms(t.chunk_mean_ns));
  return out;
}

/// The OLDC branch of cmd_color in tools/dcolor.cpp, one public call per
/// stage, in the same order and with the same arguments.
int mode_color(const CliArgs& args) {
  const std::string instance_path = args.get_string("instance", "");
  const std::string out_path = args.get_string("out", "");
  const std::string json_path = args.get_string("json", "color.json");
  DCOLOR_CHECK_MSG(!instance_path.empty() && !out_path.empty(),
                   "--mode=color needs --instance and --out");
  const Solver& solver =
      SolverRegistry::get().require(args.get_string("alg", "two_sweep"));
  const SolverCapabilities caps = solver.capabilities();
  DCOLOR_CHECK_MSG(caps.input == SolverCapabilities::Input::kOldc,
                   "--mode=color replays the OLDC path only");

  std::unique_ptr<Tracer> tracer;
  StageSink* sink = nullptr;
  if (args.get_bool("sink")) {
    tracer = std::make_unique<Tracer>();
    auto owned_sink = std::make_unique<StageSink>();
    sink = owned_sink.get();
    tracer->add_sink(std::move(owned_sink));
    tracer->install();
  }
  std::map<std::string, StageSink::Totals> round_totals;
  JsonValue stages = JsonValue::array();
  const auto stage = [&](const char* name, auto&& body) {
    if (sink != nullptr) sink->current = &round_totals[name];
    const auto start = Clock::now();
    body();
    const double ms = ms_since(start);
    if (sink != nullptr) sink->current = nullptr;
    JsonValue s = JsonValue::object();
    s.set("name", name)
        .set("ms", ms)
        .set("hwm_mib", mib(peak_rss_bytes()))
        .set("rss_mib", mib(current_rss_bytes()));
    stages.push_back(std::move(s));
  };

  OwnedOldcInstance owned;
  Orientation orientation;
  LinialResult linial;
  SolveRequest req;
  req.params.p = static_cast<int>(args.get_int("ts_p", 2));
  SolveResult result;
  bool valid = false;
  stage("load", [&] { owned = load_oldc(instance_path); });
  const Graph& g = *owned.instance.graph;
  stage("orient", [&] { orientation = Orientation::by_id(g); });
  stage("linial", [&] { linial = linial_from_ids(g, orientation); });
  req.oldc = &owned.instance;
  req.initial_coloring = &linial.colors;
  req.q = linial.num_colors;
  stage("solve", [&] {
    RunContext ctx;
    ctx.seed = 1;  // the CLI's --seed default
    result = solver.solve(req, ctx);
  });
  result.metrics += linial.metrics;
  stage("validate", [&] { valid = validate_solve(req, caps, result); });
  stage("emit", [&] {
    std::ofstream os(out_path);
    DCOLOR_CHECK_MSG(static_cast<bool>(os), "cannot open " << out_path);
    write_coloring(os, result.colors);
    os.close();
    DCOLOR_CHECK_MSG(!os.fail(), "cannot write " << out_path);
  });
  if (tracer != nullptr) tracer->finish();

  const RoundMetrics& m = result.metrics;
  JsonValue out = JsonValue::object();
  out.set("valid", valid)
      .set("rounds", m.rounds)
      .set("msg_bits", m.total_message_bits)
      .set("max_msg_bits", m.max_message_bits)
      .set("compute_ops", m.local_compute_ops)
      .set("stages", std::move(stages));
  if (sink != nullptr) {
    JsonValue rounds = JsonValue::object();
    for (const auto& [name, totals] : round_totals) {
      rounds.set(name, totals_json(totals));
    }
    out.set("rounds_by_stage", std::move(rounds));
  }
  write_json(json_path, out);
  return 0;
}

// ---- serve --------------------------------------------------------------

/// One daemon session the probe drives: `name:nodes:create_seed`.
struct SessionSpec {
  std::string name;
  NodeId nodes = 0;
  std::uint64_t seed = 0;
};

std::vector<SessionSpec> parse_sessions(const std::string& spec) {
  std::vector<SessionSpec> out;
  std::stringstream list(spec);
  std::string item;
  while (std::getline(list, item, ',')) {
    std::stringstream fields(item);
    SessionSpec s;
    std::string nodes;
    std::string seed;
    DCOLOR_CHECK_MSG(std::getline(fields, s.name, ':') &&
                         std::getline(fields, nodes, ':') &&
                         std::getline(fields, seed, ':'),
                     "--sessions entries are name:nodes:seed, got " << item);
    s.nodes = static_cast<NodeId>(std::stoll(nodes));
    s.seed = std::stoull(seed);
    out.push_back(std::move(s));
  }
  DCOLOR_CHECK_MSG(!out.empty(), "--sessions names no session");
  return out;
}

constexpr int kHeadroom = 2;  // the daemon's default list slack, pinned

/// Runs `body(i)` on one thread per session and joins them all; an
/// exception escaping a thread is stored as that session's error.
template <class Body>
std::vector<std::string> per_session_threads(std::size_t count, Body body) {
  std::vector<std::string> errors(count);
  {
    std::vector<std::jthread> threads;  // joined when the scope ends
    threads.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      threads.emplace_back([&, i] {
        try {
          body(i);
        } catch (const std::exception& e) {
          errors[i] = e.what();
        }
      });
    }
  }
  return errors;
}

int mode_serve_setup(const CliArgs& args) {
  const int port = static_cast<int>(args.get_int("port", 0));
  const int degree = static_cast<int>(args.get_int("degree", 8));
  const std::string solver = args.get_string("solver", "deg_plus_one");
  const std::vector<SessionSpec> sessions =
      parse_sessions(args.get_string("sessions", ""));
  std::vector<JsonValue> results(sessions.size(), JsonValue::object());
  const std::vector<std::string> errors =
      per_session_threads(sessions.size(), [&](std::size_t i) {
        const SessionSpec& s = sessions[i];
        serve::Client client(port);
        JsonValue create = JsonValue::object();
        create.set("op", "create")
            .set("session", s.name)
            .set("generator", "gnp")
            .set("n", static_cast<std::int64_t>(s.nodes))
            .set("degree", degree)
            .set("seed", static_cast<std::int64_t>(s.seed))
            .set("headroom", kHeadroom);
        const auto start = Clock::now();
        const JsonValue created = client.call(create);
        const double create_ms = ms_since(start);
        DCOLOR_CHECK_MSG(created.get_bool("ok", false),
                         "create failed: " << created.dump());
        JsonValue solve = JsonValue::object();
        solve.set("op", "solve").set("session", s.name).set("solver", solver);
        const JsonValue solved = client.call(solve);
        DCOLOR_CHECK_MSG(solved.get_bool("ok", false),
                         "solve failed: " << solved.dump());
        results[i]
            .set("name", s.name)
            .set("create_ms", create_ms)
            .set("solve_ms", solved.get_double("wall_ms", 0));
      });
  JsonValue list = JsonValue::array();
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    results[i].set("error", errors[i]);
    list.push_back(std::move(results[i]));
  }
  JsonValue out = JsonValue::object();
  out.set("sessions", std::move(list));
  write_json(args.get_string("json", "serve_setup.json"), out);
  return 0;
}

/// Cumulative simulated message bits of a session, from its stats.
std::int64_t session_message_bits(serve::Client& client,
                                  const std::string& session) {
  JsonValue req = JsonValue::object();
  req.set("op", "stats").set("session", session);
  const JsonValue resp = client.call(req);
  DCOLOR_CHECK_MSG(resp.get_bool("ok", false),
                   "stats failed: " << resp.dump());
  const JsonValue stats =
      JsonValue::parse(resp.require("stats").as_string("stats"));
  const JsonValue* counters = stats.get("counters");
  DCOLOR_CHECK_MSG(counters != nullptr, "stats carry no counters");
  return counters->get_int("sim.message_bits", 0);
}

/// Raw samples of one connection's closed loop.
struct LoopLog {
  std::vector<double> at_ms;       ///< iteration start, from loop start
  std::vector<double> repair_ms;   ///< mutate + recolor + endpoint query
  std::vector<double> mutate_ms;
  std::vector<double> recolor_client_ms;
  std::vector<double> recolor_server_ms;  ///< the response's wall_ms
  std::vector<double> read_ms;     ///< 16-node query
  std::vector<std::int64_t> dirty;
  std::vector<std::int64_t> changed;
  std::int64_t fallbacks = 0;
  std::int64_t requests = 0;        ///< sent inside the timed loop
  std::int64_t not_ok = 0;          ///< responses with ok:false
  std::int64_t endpoint_clashes = 0;  ///< new edge left monochromatic
  std::int64_t fixed_rounds = 0;    ///< recolor rounds of the first K
  std::int64_t fixed_bits = 0;      ///< message bits of the first K
  std::vector<std::pair<NodeId, NodeId>> added;  ///< applied add_edge calls
  std::string first_error;
  double seconds = 0;  ///< the timed loop alone
  bool final_valid = false;
};

JsonValue doubles_json(const std::vector<double>& v) {
  JsonValue out = JsonValue::array();
  for (const double x : v) out.push_back(x);
  return out;
}

JsonValue ints_json(const std::vector<std::int64_t>& v) {
  JsonValue out = JsonValue::array();
  for (const std::int64_t x : v) out.push_back(x);
  return out;
}

/// Rebuilds the session in process (same generator call and seed as the
/// daemon's create, same applied mutations in order), installs the
/// daemon's final coloring, and validates it.
bool replay_validates(const SessionSpec& s, int degree,
                      const std::vector<std::pair<NodeId, NodeId>>& added,
                      std::vector<Color> colors) {
  Rng rng(s.seed);
  const Graph g = gnp_avg_degree(s.nodes, static_cast<double>(degree), rng);
  serve::DynamicInstance inst(g.num_nodes(), g.edge_list(), kHeadroom,
                              s.seed);
  for (const auto& [u, v] : added) {
    if (!inst.add_edge(u, v)) return false;
  }
  if (colors.size() != static_cast<std::size_t>(inst.num_nodes())) {
    return false;
  }
  inst.set_colors(std::move(colors));
  return inst.validate();
}

int mode_serve_loop(const CliArgs& args) {
  const int port = static_cast<int>(args.get_int("port", 0));
  const int degree = static_cast<int>(args.get_int("degree", 8));
  const double seconds = args.get_double("seconds", 10);
  const std::int64_t fixed_iters = args.get_int("fixed-iters", 256);
  const std::int64_t max_iters = args.get_int("max-iters", -1);
  const auto loop_seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  // Node ids drawn from [0, node_range); 0 = the whole session.
  const auto node_range = static_cast<NodeId>(args.get_int("node-range", 0));
  const bool same_sequence = args.get_bool("same-sequence");
  const std::vector<SessionSpec> sessions =
      parse_sessions(args.get_string("sessions", ""));
  constexpr int kReadNodes = 16;

  std::vector<LoopLog> logs(sessions.size());
  const std::vector<std::string> errors =
      per_session_threads(sessions.size(), [&](std::size_t i) {
        const SessionSpec& s = sessions[i];
        LoopLog& log = logs[i];
        serve::Client client(port);
        std::mt19937_64 rng(loop_seed * 1000003ULL +
                            (same_sequence ? 0 : i + 1));
        const NodeId range = node_range > 0 ? node_range : s.nodes;
        std::uniform_int_distribution<NodeId> pick(0, range - 1);
        const auto call = [&](const JsonValue& req) {
          JsonValue resp = client.call(req);
          ++log.requests;
          if (!resp.get_bool("ok", false)) {
            ++log.not_ok;
            if (log.first_error.empty()) log.first_error = resp.dump();
          }
          return resp;
        };
        const std::int64_t bits_before = session_message_bits(client, s.name);
        const auto start = Clock::now();
        for (std::int64_t iter = 0;; ++iter) {
          if (max_iters >= 0 && iter >= max_iters) break;
          if (iter >= fixed_iters &&
              std::chrono::duration<double>(Clock::now() - start).count() >=
                  seconds) {
            break;
          }
          const NodeId u = pick(rng);
          NodeId v = pick(rng);
          while (v == u) v = pick(rng);

          JsonValue mutate = JsonValue::object();
          mutate.set("op", "mutate")
              .set("session", s.name)
              .set("kind", "add_edge")
              .set("u", static_cast<std::int64_t>(u))
              .set("v", static_cast<std::int64_t>(v));
          JsonValue recolor = JsonValue::object();
          recolor.set("op", "recolor").set("session", s.name);
          JsonValue ends = JsonValue::array();
          ends.push_back(static_cast<std::int64_t>(u));
          ends.push_back(static_cast<std::int64_t>(v));
          JsonValue query = JsonValue::object();
          query.set("op", "query").set("session", s.name).set(
              "nodes", std::move(ends));
          JsonValue read_nodes = JsonValue::array();
          for (int k = 0; k < kReadNodes; ++k) {
            read_nodes.push_back(static_cast<std::int64_t>(pick(rng)));
          }
          JsonValue read = JsonValue::object();
          read.set("op", "query").set("session", s.name).set(
              "nodes", std::move(read_nodes));

          const auto t0 = Clock::now();
          const JsonValue mutated = call(mutate);
          const auto t1 = Clock::now();
          const JsonValue recolored = call(recolor);
          const auto t2 = Clock::now();
          const JsonValue queried = call(query);
          const auto t3 = Clock::now();
          call(read);
          const auto t4 = Clock::now();
          const auto ms = [](Clock::time_point a, Clock::time_point b) {
            return std::chrono::duration<double, std::milli>(b - a).count();
          };
          log.at_ms.push_back(ms(start, t0));
          log.mutate_ms.push_back(ms(t0, t1));
          log.recolor_client_ms.push_back(ms(t1, t2));
          log.repair_ms.push_back(ms(t0, t3));
          log.read_ms.push_back(ms(t3, t4));
          log.recolor_server_ms.push_back(recolored.get_double("wall_ms", 0));
          log.dirty.push_back(recolored.get_int("dirty_nodes", 0));
          log.changed.push_back(recolored.get_int("colors_changed", 0));
          if (iter < fixed_iters) {
            log.fixed_rounds += recolored.get_int("rounds", 0);
          }
          if (recolored.get_string("fallback", "none") != "none") {
            ++log.fallbacks;
          }
          if (mutated.get_bool("applied", false)) log.added.emplace_back(u, v);
          // An ok:false query is already counted in not_ok.
          const JsonValue* colors = queried.get("colors");
          if (queried.get_bool("ok", false) &&
              (colors == nullptr || colors->as_array().size() != 2 ||
               colors->as_array()[0].as_int() ==
                   colors->as_array()[1].as_int())) {
            ++log.endpoint_clashes;
          }
          if (iter + 1 == fixed_iters) {
            log.fixed_bits = session_message_bits(client, s.name) -
                             bits_before;
          }
        }
        log.seconds =
            std::chrono::duration<double>(Clock::now() - start).count();

        // Outside the timed loop: the final coloring, checked against an
        // in-process replay of the same create and mutations.
        JsonValue all = JsonValue::object();
        all.set("op", "query").set("session", s.name);
        const JsonValue final_colors = client.call(all);
        std::vector<Color> colors;
        if (const JsonValue* list = final_colors.get("colors")) {
          for (const JsonValue& c : list->as_array()) {
            colors.push_back(c.as_int());
          }
        }
        log.final_valid =
            replay_validates(s, degree, log.added, std::move(colors));
      });
  JsonValue conns = JsonValue::array();
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    const LoopLog& log = logs[i];
    JsonValue c = JsonValue::object();
    c.set("session", sessions[i].name)
        .set("error", errors[i].empty() ? log.first_error : errors[i])
        .set("seconds", log.seconds)
        .set("requests", log.requests)
        .set("not_ok", log.not_ok)
        .set("endpoint_clashes", log.endpoint_clashes)
        .set("final_valid", log.final_valid)
        .set("fallbacks", log.fallbacks)
        .set("fixed_rounds", log.fixed_rounds)
        .set("fixed_bits", log.fixed_bits)
        .set("at_ms", doubles_json(log.at_ms))
        .set("repair_ms", doubles_json(log.repair_ms))
        .set("mutate_ms", doubles_json(log.mutate_ms))
        .set("recolor_client_ms", doubles_json(log.recolor_client_ms))
        .set("recolor_server_ms", doubles_json(log.recolor_server_ms))
        .set("read_ms", doubles_json(log.read_ms))
        .set("dirty", ints_json(log.dirty))
        .set("changed", ints_json(log.changed));
    conns.push_back(std::move(c));
  }
  JsonValue out = JsonValue::object();
  out.set("connections", std::move(conns));
  write_json(args.get_string("json", "serve_loop.json"), out);
  return 0;
}

int run(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const std::string mode = args.get_string("mode", "");
  int code = 2;
  if (mode == "info") {
    code = mode_info(args);
  } else if (mode == "color") {
    code = mode_color(args);
  } else if (mode == "serve-setup") {
    code = mode_serve_setup(args);
  } else if (mode == "serve-loop") {
    code = mode_serve_loop(args);
  } else {
    DCOLOR_CHECK_MSG(false, "unknown --mode=" << mode);
  }
  args.check_all_consumed();
  return code;
}

}  // namespace
}  // namespace dcolor

int main(int argc, char** argv) {
  try {
    return dcolor::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_probe: " << e.what() << "\n";
    return 2;
  }
}
