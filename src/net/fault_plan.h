// Scripted fault schedules for chaos testing (DESIGN.md §7).
//
// A FaultPlan is a declarative, seeded description of everything that
// goes wrong during one repair execution: node crashes triggered by
// packet/byte send thresholds, disk read errors on specific chunks, and
// probabilistic message-level faults (drop / duplicate / delay). The
// plan is data, not code — it parses from a small text format so the
// CLI (`fastpr_cli execute <spec> --fault-plan <file>`) runs the same
// schedules as the test suite. FaultyTransport interprets the
// crash and flaky entries; the testbed applies the read errors to the
// per-node chunk stores when the STF node is flagged.
#pragma once

#include <chrono>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "cluster/types.h"

namespace fastpr::net {

/// Placeholder node id in a plan written before the STF node is known;
/// Testbed::flag_stf resolves it to the flagged node.
constexpr cluster::NodeId kStfSentinel = -2;
/// Wildcard node id: the fault applies to traffic of every node.
constexpr cluster::NodeId kAnyNode = -3;

struct FaultPlan {
  /// Seeds the flaky-fault Rng: the sequence of drop/dup/delay draws is
  /// fixed, but thread scheduling decides which message takes each draw
  /// (and which packet trips a crash's byte threshold), so a run with
  /// concurrent streams is not an exact replay.
  uint64_t seed = 1;

  /// Node crash at a send threshold: once the node has sent
  /// `after_packets` data packets (or `after_bytes` payload bytes,
  /// whichever crosses first), it goes silent — every later message to
  /// or from it is swallowed by the transport. Both thresholds 0 means
  /// the node is dead from the start.
  struct Crash {
    cluster::NodeId node = cluster::kNoNode;
    uint64_t after_packets = 0;
    uint64_t after_bytes = 0;
  };

  /// Latent sector error: reads of the chunks fail, the node itself
  /// stays up. stripe == kAllStripes hits every chunk the node holds.
  struct ReadError {
    static constexpr int kAllStripes = -1;
    cluster::NodeId node = cluster::kNoNode;
    int stripe = kAllStripes;
  };

  /// Probabilistic message faults on traffic sent by `node` (kAnyNode =
  /// everyone). Each kind has its own event budget so liveness stays
  /// provable: a bounded number of drops cannot outlast bounded retries.
  struct Flaky {
    cluster::NodeId node = kAnyNode;
    double drop_prob = 0;
    double dup_prob = 0;
    double delay_prob = 0;
    std::chrono::milliseconds delay{0};
    /// Restrict faults to data packets (default): control traffic
    /// (commands, acks, probes) stays reliable, as over TCP.
    bool data_only = true;
    uint64_t max_drops = std::numeric_limits<uint64_t>::max();
    uint64_t max_dups = std::numeric_limits<uint64_t>::max();
    uint64_t max_delays = std::numeric_limits<uint64_t>::max();
  };

  /// Bandwidth degradation (not a crash): once `node` has sent
  /// `after_bytes` data-payload bytes, every later data packet it sends
  /// takes `factor`× its nominal transmit time — FaultyTransport injects
  /// the extra (factor − 1) share as a real sleep. Deliberately NOT
  /// credited to the flow monitor as injected delay: a slowing node
  /// SHOULD read as slow, it is exactly what the adaptive repair
  /// throttler reacts to.
  struct Slow {
    cluster::NodeId node = cluster::kNoNode;
    double factor = 1.0;  // > 1
    uint64_t after_bytes = 0;
  };

  std::vector<Crash> crashes;
  std::vector<ReadError> read_errors;
  std::vector<Flaky> flaky;
  std::vector<Slow> slow;

  bool empty() const {
    return crashes.empty() && read_errors.empty() && flaky.empty() &&
           slow.empty();
  }

  /// Rewrites every kStfSentinel node id to `stf`.
  void resolve_stf(cluster::NodeId stf);

  /// Parses the line-oriented text format; throws CheckFailure with the
  /// offending line on malformed input. Format (one directive per line,
  /// `#` comments, node values: integer | `stf` | `any`):
  ///
  ///   seed 7
  ///   crash node=3 after_packets=10
  ///   crash node=stf after_bytes=65536
  ///   read_error node=stf               # every chunk on the node
  ///   read_error node=4 stripe=7
  ///   flaky node=any drop=0.01 max_drops=4 dup=0.05 delay=0.05 delay_ms=2
  ///   slow node=5 factor=4              # 4x slower sends, immediately
  ///   slow node=stf factor=2 after_bytes=1048576
  static FaultPlan parse(const std::string& text);

  /// Inverse of parse (modulo comments); round-trips exactly.
  std::string to_string() const;
};

}  // namespace fastpr::net
