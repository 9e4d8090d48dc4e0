// Shared helpers for the figure-reproduction benches.
//
// Conventions (documented per experiment in EXPERIMENTS.md):
//  * Simulation benches (Figs 2/3/8/9/10) use the paper's exact
//    configuration — M=100 nodes, 1000 stripes, 64 MB chunks,
//    bd=100 MB/s, bn=1 Gb/s, RS(9,6), h=3 — averaged over fewer runs
//    than the paper's 30 (single-core budget; variance is small).
//  * Testbed benches (Figs 11-14) run the real coordinator/agent
//    prototype with chunks scaled 64 MB → 4 MB (1/16) and bandwidths
//    scaled 1/4 from the EC2 instance values (142 MB/s disk, 5 Gb/s
//    NIC → 35.5 MB/s, 1.25 Gb/s). Per-chunk times are ≈ paper/4 and
//    every ratio is preserved; the milder time compression keeps the
//    shaped I/O dominant over local CPU (GF decode, content synthesis)
//    on a single-core host.
#pragma once

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "agent/testbed.h"
#include "core/fastpr.h"
#include "ec/rs_code.h"
#include "sim/strategies.h"
#include "telemetry/json.h"
#include "telemetry/metrics.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/table.h"
#include "util/units.h"

namespace fastpr::bench {

/// Paper §VI-A defaults for simulation experiments.
inline sim::ExperimentConfig sim_defaults() {
  sim::ExperimentConfig cfg;
  cfg.num_nodes = 100;
  cfg.num_stripes = 1000;
  cfg.n = 9;
  cfg.k = 6;
  cfg.chunk_bytes = static_cast<double>(MB(64));
  cfg.disk_bw = MBps(100);
  cfg.net_bw = Gbps(1);
  cfg.hot_standby = 3;
  cfg.seed = 1;
  return cfg;
}

/// Paper §VI-B testbed: 21 storage + 3 spares on EC2 m5.large
/// (142 MB/s disk, 5 Gb/s network); chunks scaled 1/16, bandwidths 1/4.
inline agent::TestbedOptions testbed_defaults(uint64_t seed) {
  agent::TestbedOptions opts;
  opts.num_storage = 21;
  opts.num_standby = 3;
  opts.disk_bytes_per_sec = MBps(142) / 4;
  opts.net_bytes_per_sec = Gbps(5) / 4;
  opts.chunk_bytes = static_cast<uint64_t>(MB(4));
  opts.packet_bytes = 256 * kKiB;
  // ~50 repaired chunks on the STF node, as in the paper's runs.
  opts.num_stripes = 110;
  opts.seed = seed;
  opts.round_timeout = std::chrono::minutes(10);
  return opts;
}

struct TestbedTimes {
  double fastpr = 0;
  double reconstruction = 0;
  double migration = 0;
  int stf_chunks = 0;
  /// Per-round measured breakdown of the FastPR run, with the cost
  /// model's per-round prediction attached — benches embed its
  /// to_json() in their sidecar so figures stay diffable against
  /// Algorithm 2's plan structure.
  telemetry::RepairReport fastpr_report;
};

/// Runs all three strategies on fresh testbeds (per-chunk seconds).
/// A fresh testbed per strategy keeps stores/agents pristine.
inline TestbedTimes run_testbed_trio(const agent::TestbedOptions& opts,
                                     const ec::ErasureCode& code,
                                     core::Scenario scenario) {
  TestbedTimes out;
  auto run_one = [&](const char* which) {
    agent::Testbed tb(opts, code);
    const auto stf = tb.flag_stf();
    out.stf_chunks = tb.layout().load(stf);
    auto planner = tb.make_planner(scenario);
    core::RepairPlan plan;
    if (std::string(which) == "fastpr") {
      plan = planner.plan_fastpr();
    } else if (std::string(which) == "reconstruction") {
      plan = planner.plan_reconstruction_only();
    } else {
      plan = planner.plan_migration_only();
    }
    auto report = tb.execute(plan);
    if (!report.success) {
      LOG_ERROR("testbed run failed: "
                << (report.errors.empty() ? "?" : report.errors[0]));
      return 0.0;
    }
    if (!tb.verify(report, plan)) {
      LOG_ERROR("testbed verification FAILED for " << which);
      return 0.0;
    }
    if (std::string(which) == "fastpr") {
      report.repair.predicted = tb.predict_rounds(plan, scenario);
      out.fastpr_report = std::move(report.repair);
    }
    return report.per_chunk();
  };
  out.fastpr = run_one("fastpr");
  out.reconstruction = run_one("reconstruction");
  out.migration = run_one("migration");
  return out;
}

inline std::string pct(double smaller, double larger) {
  if (larger <= 0) return "-";
  return Table::fmt(100.0 * (1.0 - smaller / larger), 1) + "%";
}

/// One code path for a bench's figure output: every section/row goes
/// through here, which prints the human-readable table (exactly as the
/// pre-existing benches did) AND mirrors it into a structured JSON
/// sidecar — `<bench>.json` in the working directory — so the two can
/// never drift. The sidecar records the bench configuration, every row
/// keyed by its column header, any per-row attachments (e.g. a
/// RepairReport), whether telemetry was compiled in, and a final
/// metrics-registry snapshot.
class FigureEmitter {
 public:
  explicit FigureEmitter(std::string bench_name)
      : bench_(std::move(bench_name)) {}

  /// Records one configuration fact for the sidecar (scales, code, ...).
  void add_config(const std::string& key, const std::string& value) {
    config_.emplace_back(key, value);
  }

  /// Opens a titled table; prints the title line immediately.
  void begin_section(const std::string& title,
                     std::vector<std::string> headers) {
    FASTPR_CHECK(!in_section_);
    in_section_ = true;
    std::printf("%s\n", title.c_str());
    sections_.push_back(Section{title, std::move(headers), {}, {}});
  }

  /// Adds one row; arity must match the section's headers.
  void add_row(std::vector<std::string> cells) {
    FASTPR_CHECK(in_section_);
    auto& section = sections_.back();
    FASTPR_CHECK(cells.size() == section.headers.size());
    section.rows.push_back(std::move(cells));
    section.extras.emplace_back();
  }

  /// Attaches a raw JSON value under `key` to the last added row —
  /// sidecar-only detail that has no table column (per-round repair
  /// breakdowns, for instance).
  void attach_json(const std::string& key, const std::string& json) {
    FASTPR_CHECK(in_section_);
    FASTPR_CHECK(!sections_.back().rows.empty());
    sections_.back().extras.back().emplace_back(key, json);
  }

  /// Prints the section's table followed by a blank line.
  void end_section() {
    FASTPR_CHECK(in_section_);
    in_section_ = false;
    const auto& section = sections_.back();
    Table t(section.headers);
    for (const auto& row : section.rows) t.add_row(row);
    t.print();
    std::printf("\n");
  }

  /// Writes `<bench>.json`. Call once, after the last section.
  bool write_sidecar() const {
    FASTPR_CHECK(!in_section_);
    std::ostringstream os;
    os << "{\"bench\":" << telemetry::json_str(bench_)
       << ",\"telemetry_enabled\":"
       << (FASTPR_TELEMETRY_ENABLED != 0 ? "true" : "false") << ",\"config\":{";
    for (size_t i = 0; i < config_.size(); ++i) {
      if (i != 0) os << ",";
      os << telemetry::json_str(config_[i].first) << ":"
         << telemetry::json_str(config_[i].second);
    }
    os << "},\"sections\":[";
    for (size_t s = 0; s < sections_.size(); ++s) {
      const auto& section = sections_[s];
      if (s != 0) os << ",";
      os << "{\"title\":" << telemetry::json_str(section.title)
         << ",\"rows\":[";
      for (size_t r = 0; r < section.rows.size(); ++r) {
        if (r != 0) os << ",";
        os << "{";
        for (size_t c = 0; c < section.headers.size(); ++c) {
          if (c != 0) os << ",";
          os << telemetry::json_str(section.headers[c]) << ":"
             << telemetry::json_str(section.rows[r][c]);
        }
        for (const auto& [key, json] : section.extras[r]) {
          os << "," << telemetry::json_str(key) << ":" << json;
        }
        os << "}";
      }
      os << "]}";
    }
    os << "],\"metrics\":"
       << telemetry::MetricsRegistry::global().snapshot().to_json() << "}";

    const std::string path = bench_ + ".json";
    std::ofstream out(path, std::ios::trunc);
    if (!out.good()) {
      LOG_WARN("cannot write bench sidecar " << path);
      return false;
    }
    out << os.str() << "\n";
    std::printf("sidecar: %s\n", path.c_str());
    return out.good();
  }

 private:
  struct Section {
    std::string title;
    std::vector<std::string> headers;
    std::vector<std::vector<std::string>> rows;
    /// Per-row (key, raw-JSON) attachments, parallel to `rows`.
    std::vector<std::vector<std::pair<std::string, std::string>>> extras;
  };

  std::string bench_;
  std::vector<std::pair<std::string, std::string>> config_;
  std::vector<Section> sections_;
  bool in_section_ = false;
};

}  // namespace fastpr::bench
