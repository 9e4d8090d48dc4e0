#include "telemetry/repair_report.h"

#include <sstream>

#include "telemetry/json.h"

namespace fastpr::telemetry {

int RepairReport::total_cr() const {
  int total = 0;
  for (const auto& r : rounds) total += r.cr;
  return total;
}

int RepairReport::total_cm() const {
  int total = 0;
  for (const auto& r : rounds) total += r.cm;
  return total;
}

std::string RepairReport::to_json() const {
  std::ostringstream os;
  os << "{\"total_seconds\":" << json_num(total_seconds)
     << ",\"total_cr\":" << total_cr() << ",\"total_cm\":" << total_cm()
     << ",\"degraded_at_round\":" << degraded_at_round;
  if (per_stf.size() > 1) {
    os << ",\"per_stf\":[";
    for (size_t i = 0; i < per_stf.size(); ++i) {
      const auto& s = per_stf[i];
      if (i != 0) os << ",";
      os << "{\"stf\":" << s.stf << ",\"planned\":" << s.planned
         << ",\"migrated\":" << s.migrated
         << ",\"reconstructed\":" << s.reconstructed
         << ",\"unrepaired\":" << s.unrepaired
         << ",\"died_at_round\":" << s.died_at_round << "}";
    }
    os << "]";
  }
  os << ",\"rounds\":[";
  for (size_t i = 0; i < rounds.size(); ++i) {
    const auto& r = rounds[i];
    if (i != 0) os << ",";
    os << "{\"round\":" << r.round << ",\"cr\":" << r.cr
       << ",\"cm\":" << r.cm << ",\"fallbacks\":" << r.fallbacks
       << ",\"retries\":" << r.retries
       << ",\"bytes_reconstructed\":" << r.bytes_reconstructed
       << ",\"bytes_migrated\":" << r.bytes_migrated
       << ",\"duration_seconds\":" << json_num(r.duration_seconds)
       << ",\"stf_bw_utilization\":" << json_num(r.stf_bw_utilization);
    if (r.tr_seconds > 0 || r.tm_seconds > 0) {
      os << ",\"tr_seconds\":" << json_num(r.tr_seconds)
         << ",\"tm_seconds\":" << json_num(r.tm_seconds);
    }
    if (i < predicted.size()) {
      const auto& p = predicted[i];
      os << ",\"predicted\":{\"cr\":" << p.cr << ",\"cm\":" << p.cm
         << ",\"duration_seconds\":" << json_num(p.duration_seconds);
      if (p.tr_seconds > 0 || p.tm_seconds > 0) {
        os << ",\"tr_seconds\":" << json_num(p.tr_seconds)
           << ",\"tm_seconds\":" << json_num(p.tm_seconds);
      }
      os << "}";
      // Prediction drift: how far the measured round ran from the
      // model (ratio > 1 = slower than predicted).
      os << ",\"drift\":{\"round_time_error_seconds\":"
         << json_num(r.duration_seconds - p.duration_seconds)
         << ",\"round_time_ratio\":"
         << json_num(p.duration_seconds > 0
                         ? r.duration_seconds / p.duration_seconds
                         : 0.0);
      if (p.tr_seconds > 0 && r.tr_seconds > 0) {
        os << ",\"tr_ratio\":" << json_num(r.tr_seconds / p.tr_seconds);
      }
      if (p.tm_seconds > 0 && r.tm_seconds > 0) {
        os << ",\"tm_ratio\":" << json_num(r.tm_seconds / p.tm_seconds);
      }
      os << "}";
    }
    os << "}";
  }
  os << "]";
  if (!links.empty()) {
    os << ",\"links\":" << links_to_json(links);
  }
  os << "}";
  return os.str();
}

std::string links_to_json(const std::vector<LinkBandwidth>& links) {
  std::ostringstream os;
  os << "[";
  for (size_t i = 0; i < links.size(); ++i) {
    const auto& l = links[i];
    if (i != 0) os << ",";
    os << "{\"src\":" << l.src << ",\"dst\":" << l.dst
       << ",\"tx_bytes\":" << l.tx_bytes << ",\"rx_bytes\":" << l.rx_bytes
       << ",\"ewma_bytes_per_sec\":" << json_num(l.ewma_bytes_per_sec)
       << ",\"expected_bytes_per_sec\":"
       << json_num(l.expected_bytes_per_sec)
       << ",\"injected_delay_us\":" << l.injected_delay_us
       << ",\"straggler\":" << (l.straggler ? "true" : "false") << "}";
  }
  os << "]";
  return os.str();
}

std::string RepairReport::to_csv() const {
  std::ostringstream os;
  os << "round,cr,cm,fallbacks,retries,bytes_reconstructed,bytes_migrated,"
        "duration_seconds,stf_bw_utilization\n";
  for (const auto& r : rounds) {
    os << r.round << "," << r.cr << "," << r.cm << "," << r.fallbacks << ","
       << r.retries << ","
       << r.bytes_reconstructed << "," << r.bytes_migrated << ","
       << json_num(r.duration_seconds) << ","
       << json_num(r.stf_bw_utilization) << "\n";
  }
  return os.str();
}

}  // namespace fastpr::telemetry
