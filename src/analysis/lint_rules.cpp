#include "analysis/lint_rules.hpp"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

#include "analysis/source_scan.hpp"
#include "sim/proto.hpp"
#include "vgprs/scenario.hpp"

namespace vgprs::analysis {
namespace {

// --- rule: registry ---------------------------------------------------------

// Name prefix -> required wire-type high byte.  Longest prefix wins, so
// "GTP_" beats "G".  Every registered name must match exactly one rule;
// an unmatched name is itself a violation (it would not read as any of the
// paper's interface labels in a trace).
struct PrefixRule {
  std::string_view prefix;
  std::uint8_t family;
};

constexpr PrefixRule kPrefixRules[] = {
    {"Um_", 0x01},    {"Abis_", 0x02},  {"A_", 0x03},
    {"E_", 0x03},     // inter-MSC trunk rides the A-family range
    {"MAP_", 0x04},   {"GPRS_", 0x05},  {"Activate_PDP_", 0x05},
    {"Deactivate_PDP_", 0x05},          {"Request_PDP_", 0x05},
    {"Gb_", 0x05},    {"GTP_", 0x06},   {"GGSN_", 0x06},
    {"IP_", 0x06},    {"Data_", 0x06},  // test traffic rides the IP range
    {"RAS_", 0x07},   {"Q931_", 0x08},  {"ISUP_", 0x09},
    {"Trunk_", 0x09}, {"RTP_", 0x0A},
};

const PrefixRule* prefix_rule_for(std::string_view name) {
  const PrefixRule* best = nullptr;
  for (const PrefixRule& rule : kPrefixRules) {
    if (name.substr(0, rule.prefix.size()) != rule.prefix) continue;
    if (best == nullptr || rule.prefix.size() > best->prefix.size()) {
      best = &rule;
    }
  }
  return best;
}

// --- rule: codec ------------------------------------------------------------

/// SplitMix64: deterministic fuzz bytes, seeded per wire type so a failure
/// reproduces from the message name alone.
class FuzzRng {
 public:
  explicit FuzzRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  std::uint8_t byte() { return static_cast<std::uint8_t>(next() & 0xFF); }

 private:
  std::uint64_t state_;
};

std::string hex16(std::uint16_t v) {
  char buf[8];
  std::snprintf(buf, sizeof buf, "0x%04X", v);
  return buf;
}

/// Decodes `wire` (a full type-header + payload buffer); when the decode
/// succeeds, the re-encoding must reproduce the buffer byte for byte —
/// every accepted buffer is canonical, so traces and retransmissions are
/// stable.  Crashes and UB surface as process death (under ctest) or as
/// sanitizer reports under the asan-ubsan preset.
void roundtrip_accepted(const MessageRegistry& reg,
                        std::span<const std::uint8_t> wire,
                        const std::string& context, Report& report) {
  auto decoded = reg.decode(wire);
  if (!decoded.ok()) return;  // graceful rejection is always acceptable
  std::vector<std::uint8_t> again = decoded.value()->encode();
  if (again.size() != wire.size() ||
      !std::equal(again.begin(), again.end(), wire.begin())) {
    report.fail("codec", context + ": accepted buffer is not canonical "
                                   "(decode -> re-encode changed bytes)");
  }
}

// --- rule: correlation ------------------------------------------------------

// Flow-table messages allowed to carry no correlation-id field.  Everything
// else in a documented figure flow must be attributable to a span (see
// Message::correlates()): transport wrappers are exempt because the tunneled
// payload correlates instead, and media/teardown unit-data frames are
// addressed by channel, not by subscriber identity.
constexpr std::string_view kCorrelationExempt[] = {
    // Gn/Gi transport wrappers: the tunneled payload (H.225/H.245/RTP over
    // the signaling PDP context) carries the correlation; the wrapper is
    // addressed by TEID/PDP address, not by subscriber identity.
    "GTP_T_PDU",
    "IP_Datagram",
};

// --- rule: retransmission ---------------------------------------------------

/// A flow-table message is request-like when it expects an answer: the
/// GPRS/GTP "_Request" convention, network-initiated "Request_*" prompts,
/// call offers and clears (which expect the proceeding/release sequence),
/// and any MAP operation with a registered "_ack" counterpart.
bool request_like(const std::set<std::string>& names, const std::string& name) {
  if (name.ends_with("_Request")) return true;
  if (name.starts_with("Request_")) return true;
  if (name.ends_with("_Setup") || name.ends_with("_Disconnect")) return true;
  return names.contains(name + "_ack");
}

// --- source scans: sharding, dispatch ---------------------------------------

// Protocol directories scanned as text.  src/sim is deliberately absent: the
// engine (and the fault injector inside it) owns the only legitimate direct
// handler invocations, and msg_cast's debug cross-check is the only
// legitimate message dynamic_cast.
constexpr const char* kProtocolDirs[] = {"gsm",     "gprs",  "h323", "pstn",
                                         "tr23821", "vgprs", "voice"};

/// Calls `check(rel_path, text)` for every .cpp/.hpp under kProtocolDirs,
/// reporting a missing directory, an unreadable file or an empty scan under
/// `family`.
template <typename Check>
void scan_protocol_sources(const std::string& source_root,
                           const std::string& family, Report& report,
                           Check check) {
  namespace fs = std::filesystem;
  const fs::path root = source_root;
  std::size_t scanned = 0;
  for (const char* dir : kProtocolDirs) {
    const fs::path subtree = root / dir;
    if (!fs::is_directory(subtree)) {
      report.fail(family, "protocol directory '" + std::string(dir) +
                              "' missing under " + root.string());
      continue;
    }
    for (const auto& entry : fs::recursive_directory_iterator(subtree)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext != ".cpp" && ext != ".hpp") continue;
      std::ifstream in(entry.path());
      if (!in.good()) {
        report.fail(family, "cannot read " + entry.path().string());
        continue;
      }
      std::ostringstream text;
      text << in.rdbuf();
      check(fs::relative(entry.path(), root).generic_string(), text.str());
      ++scanned;
    }
  }
  if (scanned == 0) {
    report.fail(family, "no protocol sources found under " + root.string() +
                            " — wrong source root?");
  }
}

// Another node's handlers may only ever be entered by the engine.
constexpr std::string_view kShardingHandlers[] = {
    "->on_message(", "->on_timer(", "->on_restart("};

// Methods that are safe to chain on a node lookup: immutable identity
// reads that involve no cross-node state.
constexpr std::string_view kShardingAllowed[] = {"id", "name", "valid"};

constexpr std::string_view kShardingExempt = "lint:allow-cross-node";

}  // namespace

void check_registry(const MessageRegistry& reg, Report& report) {
  for (const auto& c : reg.collisions()) {
    report.fail("registry",
                "wire type 0x" + std::to_string(c.wire_type) +
                    " registered twice: as '" + c.existing + "' and as '" +
                    c.incoming + "'");
  }

  std::map<std::string, std::uint16_t> by_name;
  for (std::uint16_t type : reg.types()) {
    std::string name(reg.name_of(type));
    if (name.empty() || name == "<unknown>") {
      report.fail("registry", "wire type " + std::to_string(type) +
                                  " has no usable trace name");
      continue;
    }
    auto [it, inserted] = by_name.emplace(name, type);
    if (!inserted) {
      report.fail("registry", "trace name '" + name +
                                  "' registered for two wire types: " +
                                  std::to_string(it->second) + " and " +
                                  std::to_string(type));
    }

    const PrefixRule* rule = prefix_rule_for(name);
    auto family = static_cast<std::uint8_t>(type >> 8);
    if (rule == nullptr) {
      report.fail("registry", "'" + name +
                                  "' matches no interface-label prefix "
                                  "(Um_/Abis_/A_/MAP_/...)");
    } else if (family != rule->family) {
      report.fail("registry",
                  "'" + name + "' carries interface prefix '" +
                      std::string(rule->prefix) + "' but lives in wire range 0x" +
                      std::to_string(family) + "xx instead of 0x" +
                      std::to_string(rule->family) + "xx");
    }

    std::shared_ptr<Message> msg = reg.create(type);
    if (msg == nullptr) {
      report.fail("registry",
                  "'" + name + "': factory returned null");
      continue;
    }
    if (msg->wire_type() != type) {
      report.fail("registry", "'" + name +
                                  "': instance reports wire type " +
                                  std::to_string(msg->wire_type()) +
                                  ", registered under " +
                                  std::to_string(type));
    }
    if (msg->name() != name) {
      report.fail("registry", "'" + name + "': instance reports name '" +
                                  std::string(msg->name()) + "'");
    }
  }
}

void check_codec(const MessageRegistry& reg, Report& report) {
  for (std::uint16_t type : reg.types()) {
    std::string name(reg.name_of(type));
    std::shared_ptr<Message> proto = reg.create(type);
    if (proto == nullptr) continue;  // reported by the registry rule

    // 1. Default-payload roundtrip: encode -> decode -> re-encode must be
    //    byte-exact and the decoder must consume the whole payload.
    std::vector<std::uint8_t> wire = proto->encode();
    auto decoded = reg.decode(wire);
    if (!decoded.ok()) {
      report.fail("codec", "'" + name + "' (" + hex16(type) +
                               "): cannot decode its own encoding: " +
                               decoded.error().to_string());
      continue;
    }
    std::vector<std::uint8_t> again = decoded.value()->encode();
    if (again != wire) {
      report.fail("codec", "'" + name + "' (" + hex16(type) +
                               "): encode -> decode -> re-encode is not "
                               "byte-exact");
      continue;
    }

    // 2. Truncation sweep: every proper prefix must decode gracefully
    //    (an error Status, or a canonical acceptance when a shorter
    //    encoding happens to be self-consistent).
    for (std::size_t len = 0; len < wire.size(); ++len) {
      roundtrip_accepted(reg, std::span(wire.data(), len),
                         "'" + name + "' truncated to " +
                             std::to_string(len) + " bytes",
                         report);
    }

    // 3. Deterministic corruption sweep: flip every byte of the payload
    //    through a few fuzzed values.  Decoders must never crash, and any
    //    accepted mutation must still be canonical.
    FuzzRng rng(0xC0DEC'0000ULL + type);
    std::vector<std::uint8_t> mutated = wire;
    for (std::size_t pos = 2; pos < mutated.size(); ++pos) {
      for (int round = 0; round < 4; ++round) {
        std::uint8_t orig = mutated[pos];
        mutated[pos] = static_cast<std::uint8_t>(orig ^ rng.byte());
        roundtrip_accepted(reg, mutated,
                           "'" + name + "' with byte " +
                               std::to_string(pos) + " corrupted",
                           report);
        mutated[pos] = orig;
      }
    }

    // 4. Fuzzed-payload sweep: random payload bytes after a valid type
    //    header.  Almost all are rejected; the point is that rejection is
    //    graceful and acceptance is canonical.
    for (int round = 0; round < 32; ++round) {
      std::vector<std::uint8_t> buf;
      buf.push_back(static_cast<std::uint8_t>(type >> 8));
      buf.push_back(static_cast<std::uint8_t>(type & 0xFF));
      std::size_t len = rng.next() % (wire.size() + 16);
      for (std::size_t i = 0; i < len; ++i) buf.push_back(rng.byte());
      roundtrip_accepted(reg, buf,
                         "'" + name + "' fuzzed payload round " +
                             std::to_string(round),
                         report);
    }
  }
}

void check_flows(const MessageRegistry& reg,
                 const std::vector<NamedFlow>& flows, Report& report) {
  std::set<std::string_view> names;
  for (std::uint16_t type : reg.types()) names.insert(reg.name_of(type));

  for (const NamedFlow& flow : flows) {
    if (flow.steps.empty()) {
      report.fail("flows", "flow '" + flow.name + "' declares no steps");
    }
    for (std::size_t i = 0; i < flow.steps.size(); ++i) {
      const FlowStep& step = flow.steps[i];
      // Empty message strings are wildcards in TraceRecorder, but a flow
      // table documenting a paper figure must name every hop.
      if (step.message.empty() || !names.contains(step.message)) {
        report.fail("flows", "flow '" + flow.name + "' step " +
                                 std::to_string(i) + " ('" + step.from +
                                 " --" + step.message + "--> " + step.to +
                                 "'): message is not a registered wire name");
      }
    }
  }
}

void check_correlation(const MessageRegistry& reg,
                       const std::vector<NamedFlow>& flows,
                       Report& report) {
  std::map<std::string, std::uint16_t> by_name;
  for (std::uint16_t type : reg.types()) {
    by_name.emplace(std::string(reg.name_of(type)), type);
  }
  const std::set<std::string_view> exempt(std::begin(kCorrelationExempt),
                                          std::end(kCorrelationExempt));
  std::set<std::string> checked;
  std::set<std::string_view> used;
  for (const NamedFlow& flow : flows) {
    for (const FlowStep& step : flow.steps) {
      auto it = by_name.find(step.message);
      if (it == by_name.end()) continue;  // the flows rule reports these
      if (!checked.insert(step.message).second) continue;
      std::shared_ptr<Message> msg = reg.create(it->second);
      if (msg == nullptr) continue;  // the registry rule reports these
      const bool exempted = exempt.contains(step.message);
      if (exempted) used.insert(*exempt.find(step.message));
      if (!msg->correlates() && !exempted) {
        report.fail("correlation",
                    "flow '" + flow.name + "': message '" + step.message +
                        "' carries no correlation-id field and is not "
                        "exempted — spans cannot attribute it");
      } else if (msg->correlates() && exempted) {
        report.fail("correlation", "message '" + step.message +
                                       "' is exempted but correlates — "
                                       "remove the stale exemption");
      }
    }
  }
  // Exemptions that no flow uses rot silently; make them violations so the
  // list shrinks with the flows it covers.
  for (std::string_view name : exempt) {
    if (!used.contains(name)) {
      report.fail("correlation", "exemption '" + std::string(name) +
                                     "' matches no flow-table message — "
                                     "remove it");
    }
  }
}

void check_retransmission(const MessageRegistry& reg,
                          const std::vector<NamedFlow>& flows,
                          const std::vector<RetransmissionPolicy>& policies,
                          Report& report) {
  std::set<std::string> names;
  for (std::uint16_t type : reg.types()) {
    names.insert(std::string(reg.name_of(type)));
  }

  std::map<std::string, const RetransmissionPolicy*> by_message;
  for (const RetransmissionPolicy& policy : policies) {
    if (!by_message.emplace(policy.message, &policy).second) {
      report.fail("retransmission",
                  "duplicate policy row for '" + policy.message + "'");
    }
    if (policy.owner.empty()) {
      report.fail("retransmission",
                  "policy row '" + policy.message + "' names no owner");
    }
    if (policy.mechanism == "exempt") {
      if (policy.reason.empty()) {
        report.fail("retransmission",
                    "policy row '" + policy.message +
                        "' is exempt without a reason");
      }
    } else if (policy.mechanism != "retransmitter" &&
               policy.mechanism != "guard-retry") {
      report.fail("retransmission",
                  "policy row '" + policy.message +
                      "' declares unknown mechanism '" + policy.mechanism +
                      "'");
    } else if (!policy.reason.empty()) {
      report.fail("retransmission",
                  "policy row '" + policy.message +
                      "' carries a reason but is not exempt — reasons "
                      "document exemptions only");
    }
  }

  std::set<std::string> requests;
  for (const NamedFlow& flow : flows) {
    for (const FlowStep& step : flow.steps) {
      if (names.contains(step.message) && request_like(names, step.message)) {
        requests.insert(step.message);
      }
    }
  }

  for (const std::string& msg : requests) {
    if (!by_message.contains(msg)) {
      report.fail("retransmission",
                  "request '" + msg +
                      "' appears in the flow tables but declares no "
                      "retransmission policy or exemption");
    }
  }
  // Rows covering nothing rot silently; make them violations so the table
  // shrinks with the flows it covers.
  for (const auto& [msg, policy] : by_message) {
    if (!requests.contains(msg)) {
      report.fail("retransmission",
                  "policy row '" + msg +
                      "' matches no request-type message in the flow "
                      "tables — remove the stale row");
    }
  }
}

void check_fsm(const MessageRegistry& reg,
               const std::vector<FsmTable>& tables, Report& report) {
  std::set<std::string_view> wire_names;
  for (std::uint16_t type : reg.types()) wire_names.insert(reg.name_of(type));

  for (const FsmTable& fsm : tables) {
    std::string tag = "fsm:" + std::string(fsm.name);
    std::set<std::string_view> states(fsm.states.begin(), fsm.states.end());
    if (states.size() != fsm.states.size()) {
      report.fail(tag, "duplicate state declarations");
    }
    if (!states.contains(fsm.initial)) {
      report.fail(tag, "initial state '" + std::string(fsm.initial) +
                           "' is not declared");
    }
    for (std::string_view term : fsm.terminal) {
      if (!states.contains(term)) {
        report.fail(tag, "terminal state '" + std::string(term) +
                             "' is not declared");
      }
    }
    // The completeness metadata must reference declared states too.
    for (std::string_view s : fsm.stable) {
      if (!states.contains(s)) {
        report.fail(tag, "stable state '" + std::string(s) +
                             "' is not declared");
      }
    }
    for (const FsmTimer& timer : fsm.timers) {
      if (!states.contains(timer.state)) {
        report.fail(tag, "timer row for '" + std::string(timer.state) +
                             "' references an undeclared state");
      }
    }

    std::set<std::tuple<std::string_view, std::string_view, std::string_view>>
        seen;
    std::map<std::string_view, std::vector<std::string_view>> out_edges;
    for (const FsmTransition& tr : fsm.transitions) {
      for (std::string_view endpoint : {tr.from, tr.to}) {
        if (!states.contains(endpoint)) {
          report.fail(tag, "transition '" + std::string(tr.from) + " --" +
                               std::string(tr.event) + "--> " +
                               std::string(tr.to) +
                               "' references undeclared state '" +
                               std::string(endpoint) + "'");
        }
      }
      if (!seen.insert({tr.from, tr.event, tr.to}).second) {
        report.fail(tag, "duplicate transition '" + std::string(tr.from) +
                             " --" + std::string(tr.event) + "--> " +
                             std::string(tr.to) + "'");
      }
      out_edges[tr.from].push_back(tr.to);

      // Events named like wire messages (Uppercase_With_Underscores,
      // optionally with a "(qualifier)") must resolve to the registry, so
      // the tables cannot drift from the catalogs they describe.  The same
      // goes for every name in an emits list.
      std::string_view event = tr.event;
      if (auto paren = event.find('('); paren != std::string_view::npos) {
        event = event.substr(0, paren);
      }
      bool wire_like = !event.empty() && event.front() >= 'A' &&
                       event.front() <= 'Z' &&
                       event.find('_') != std::string_view::npos;
      if (wire_like && !wire_names.contains(event)) {
        report.fail(tag, "event '" + std::string(event) +
                             "' looks like a wire message but is not "
                             "registered");
      }
      for (std::string_view emit : tr.emits) {
        if (!wire_names.contains(emit)) {
          report.fail(tag, "transition '" + std::string(tr.from) + " --" +
                               std::string(tr.event) + "--> " +
                               std::string(tr.to) + "' emits '" +
                               std::string(emit) +
                               "', which is not a registered wire name");
        }
      }
    }

    // Reachability from the initial state.
    std::set<std::string_view> reachable{fsm.initial};
    std::vector<std::string_view> frontier{fsm.initial};
    while (!frontier.empty()) {
      std::string_view state = frontier.back();
      frontier.pop_back();
      for (std::string_view next : out_edges[state]) {
        if (reachable.insert(next).second) frontier.push_back(next);
      }
    }
    std::set<std::string_view> terminal(fsm.terminal.begin(),
                                        fsm.terminal.end());
    for (std::string_view state : fsm.states) {
      if (!reachable.contains(state)) {
        report.fail(tag, "state '" + std::string(state) +
                             "' is unreachable from '" +
                             std::string(fsm.initial) + "'");
      }
      if (out_edges[state].empty() && !terminal.contains(state)) {
        report.fail(tag, "state '" + std::string(state) +
                             "' is a dead end (no outgoing transition and "
                             "not declared terminal)");
      }
    }
  }
}

void check_sharding_text(const std::string& rel_path, std::string_view text,
                         Report& report) {
  for (std::string_view pattern : kShardingHandlers) {
    for (std::size_t pos = text.find(pattern);
         pos != std::string_view::npos; pos = text.find(pattern, pos + 1)) {
      if (marker_on_line(text, pos, kShardingExempt)) continue;
      report.fail_at("sharding", rel_path, line_of(text, pos),
                     "direct '" +
                         std::string(pattern.substr(2, pattern.size() - 3)) +
                         "' invocation on another node — only the engine "
                         "may enter a handler; use send()");
    }
  }

  const std::set<std::string_view> allowed(std::begin(kShardingAllowed),
                                           std::end(kShardingAllowed));
  for (std::string_view lookup : {std::string_view("net().node("),
                                  std::string_view("net().node_by_name(")}) {
    for (std::size_t pos = text.find(lookup);
         pos != std::string_view::npos; pos = text.find(lookup, pos + 1)) {
      // Find the matching close paren of the lookup's argument list.
      std::size_t i = pos + lookup.size() - 1;  // at the open paren
      int depth = 0;
      while (i < text.size()) {
        if (text[i] == '(') ++depth;
        if (text[i] == ')' && --depth == 0) break;
        ++i;
      }
      if (i >= text.size()) break;  // unbalanced; not our problem
      // Same-statement chain?  Skip whitespace (incl. a wrapped line).
      std::size_t j = i + 1;
      while (j < text.size() &&
             std::isspace(static_cast<unsigned char>(text[j])) != 0) {
        ++j;
      }
      if (j + 1 >= text.size() || text[j] != '-' || text[j + 1] != '>') {
        continue;  // stored in a variable — fine, later calls are visible
      }
      std::size_t m = j + 2;
      std::size_t name_begin = m;
      while (m < text.size() &&
             (std::isalnum(static_cast<unsigned char>(text[m])) != 0 ||
              text[m] == '_')) {
        ++m;
      }
      const std::string_view method = text.substr(name_begin, m - name_begin);
      if (allowed.contains(method)) continue;
      if (marker_on_line(text, pos, kShardingExempt)) continue;
      report.fail_at("sharding", rel_path, line_of(text, pos),
                     "chained '->" + std::string(method) + "(...)' on a " +
                         std::string(lookup) +
                         ") lookup crosses node (and possibly shard) "
                         "boundaries — use send()");
    }
  }
}

void check_sharding(const std::string& source_root, Report& report) {
  scan_protocol_sources(source_root, "sharding", report,
                        [&report](const std::string& rel_path,
                                  std::string_view text) {
                          check_sharding_text(rel_path, text, report);
                        });
}

void check_dispatch_text(const std::string& rel_path, std::string_view text,
                         Report& report) {
  constexpr std::string_view kCast = "dynamic_cast<const ";
  for (std::size_t pos = text.find(kCast); pos != std::string_view::npos;
       pos = text.find(kCast, pos + 1)) {
    const std::size_t begin = pos + kCast.size();
    const std::size_t close = text.find('>', begin);
    if (close == std::string_view::npos) break;
    const std::string_view target = text.substr(begin, close - begin);
    if (!target.ends_with('*')) continue;
    const std::string type(target.substr(0, target.size() - 1));
    report.fail_at("dispatch", rel_path, line_of(text, pos),
                   "'dynamic_cast<const " + type +
                       "*>' puts RTTI on the delivery path — match messages "
                       "with msg_cast<" + type + ">()");
  }
}

void check_dispatch(const std::string& source_root, Report& report) {
  scan_protocol_sources(source_root, "dispatch", report,
                        [&report](const std::string& rel_path,
                                  std::string_view text) {
                          check_dispatch_text(rel_path, text, report);
                        });
}

// --- self-test seeds --------------------------------------------------------

namespace {

/// A field type whose write and read disagree: two bytes out, one back.
/// Field lists make every payload codec symmetric, so an asymmetric wire
/// form is the one codec defect left to seed.
struct LopsidedByte {
  std::uint8_t value = 7;
};
void write(ByteWriter& w, const LopsidedByte& v) {
  w.u8(v.value);
  w.u8(v.value);
}
void read(ByteReader& r, LopsidedByte& v) { v.value = r.u8(); }

struct BrokenEchoPayload {
  LopsidedByte value;
  static auto fields(auto& self) { return std::tie(self.value); }
  [[nodiscard]] std::string describe() const { return {}; }
};
using BrokenEcho = ProtoMessage<BrokenEchoPayload, 0x7F01, "Um_Broken_Echo">;

/// A message with no identity field at all: correlates() is false, so a flow
/// step naming it must trip the correlation rule unless exempted.
struct NoCorrPayload {
  std::uint8_t value = 3;
  static auto fields(auto& self) { return std::tie(self.value); }
  [[nodiscard]] std::string describe() const { return {}; }
};
using NoCorrProbe = ProtoMessage<NoCorrPayload, 0x7F02, "Um_No_Corr_Probe">;

}  // namespace

std::vector<RuleFamily> lint_rule_families(const std::string& source_root) {
  register_all_messages();
  const MessageRegistry& reg = MessageRegistry::instance();

  std::vector<RuleFamily> families;
  families.push_back(
      {"registry", [&reg](Report& r) { check_registry(reg, r); },
       [&reg](Report& r) {
         // Same wire type as Um_Channel_Request, different name.
         MessageRegistry::instance().add(0x0101, "Um_Channel_Request_Typo",
                                         [] { return nullptr; });
         check_registry(reg, r);
       }});
  families.push_back(
      {"codec", [&reg](Report& r) { check_codec(reg, r); },
       [&reg](Report& r) {
         register_message<BrokenEcho>();
         check_codec(reg, r);
       }});
  families.push_back(
      {"flows",
       [&reg](Report& r) { check_flows(reg, all_conformance_flows(), r); },
       [&reg](Report& r) {
         std::vector<NamedFlow> flows{
             {"seeded", {{"MS1", "Um_Location_Updaet_Request", "BTS"}}}};
         check_flows(reg, flows, r);
       }});
  families.push_back(
      {"correlation",
       [&reg](Report& r) {
         check_correlation(reg, all_conformance_flows(), r);
       },
       [&reg](Report& r) {
         register_message<NoCorrProbe>();
         // Keep the real flows so the exemption list stays "used"; the
         // seeded step is the single extra violation.
         std::vector<NamedFlow> flows = all_conformance_flows();
         flows.push_back({"seeded", {{"MS1", "Um_No_Corr_Probe", "BTS"}}});
         check_correlation(reg, flows, r);
       }});
  families.push_back(
      {"retransmission",
       [&reg](Report& r) {
         check_retransmission(reg, all_conformance_flows(),
                              all_retransmission_policies(), r);
       },
       [&reg](Report& r) {
         // MAP_Send_Auth_Info is a real registered request (it has a _ack
         // counterpart) that no declared flow uses, so the policy table has
         // no row for it; a flow step naming it must trip the coverage
         // check.
         std::vector<NamedFlow> flows = all_conformance_flows();
         flows.push_back({"seeded", {{"VMSC", "MAP_Send_Auth_Info", "VLR"}}});
         check_retransmission(reg, flows, all_retransmission_policies(), r);
       }});
  families.push_back(
      {"fsm",
       [&reg](Report& r) { check_fsm(reg, conformance_fsm_tables(), r); },
       [&reg](Report& r) {
         FsmTable fsm;
         fsm.name = "seeded";
         fsm.initial = "idle";
         fsm.states = {"idle", "busy", "orphan"};
         fsm.transitions = {{"idle", "A_Setup", "busy"},
                            {"busy", "A_Clear_Complete", "idle"}};
         check_fsm(reg, {fsm}, r);
       }});
  families.push_back(
      {"sharding",
       [source_root](Report& r) { check_sharding(source_root, r); },
       [](Report& r) {
         const std::string seeded =
             "void Bad::poke(NodeId peer, const Envelope& env) {\n"
             "  net().node(peer)->on_message(env);\n"
             "  net().node_by_name(\"VLR\")->provision(imsi);\n"
             "  Msisdn who = net().node(peer)->name();\n"
             "  net().node(peer)->steal_state();  // lint:allow-cross-node "
             "audited\n"
             "}\n";
         check_sharding_text("seeded.cpp", seeded, r);
       },
       // Exactly 3 expected: the handler invocation trips both the handler
       // and the chain pattern, provision() trips the chain pattern; the
       // name() chain and the exempted line must stay clean.
       3, 3});
  families.push_back(
      {"dispatch",
       [source_root](Report& r) { check_dispatch(source_root, r); },
       [](Report& r) {
         const std::string seeded =
             "void Bad::on_message(const Envelope& env) {\n"
             "  const Message* m = env.msg.get();\n"
             "  if (const auto* s = dynamic_cast<const UmSetup*>(m)) {\n"
             "    handle(*s);\n"
             "  }\n"
             "  if (const auto* a = msg_cast<UmAlerting>(m)) handle(*a);\n"
             "}\n";
         check_dispatch_text("seeded.cpp", seeded, r);
       },
       // Exactly 1 expected: the RTTI rung; the msg_cast rung stays clean.
       1, 1});
  return families;
}

}  // namespace vgprs::analysis
