// The vgprs_lint rule families, factored out of the old monolithic tool so
// tests and other drivers can run individual checks against arbitrary
// inputs (the self-test harness seeds defects exactly this way).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "analysis/driver.hpp"
#include "analysis/report.hpp"
#include "sim/message.hpp"
#include "vgprs/flows.hpp"
#include "vgprs/fsm_tables.hpp"

namespace vgprs::analysis {

void check_registry(const MessageRegistry& reg, Report& report);
void check_codec(const MessageRegistry& reg, Report& report);
void check_flows(const MessageRegistry& reg,
                 const std::vector<NamedFlow>& flows, Report& report);
void check_correlation(const MessageRegistry& reg,
                       const std::vector<NamedFlow>& flows, Report& report);
void check_retransmission(const MessageRegistry& reg,
                          const std::vector<NamedFlow>& flows,
                          const std::vector<RetransmissionPolicy>& policies,
                          Report& report);
void check_fsm(const MessageRegistry& reg,
               const std::vector<FsmTable>& tables, Report& report);
void check_sharding_text(const std::string& rel_path, std::string_view text,
                         Report& report);
void check_sharding(const std::string& source_root, Report& report);
void check_dispatch_text(const std::string& rel_path, std::string_view text,
                         Report& report);
void check_dispatch(const std::string& source_root, Report& report);

/// The eight lint families with their self-test seeds, ready for
/// tool_main().  `source_root` points at the protocol sources (src/) for
/// the sharding and dispatch scans.  Registers the message catalog as a
/// side effect.
std::vector<RuleFamily> lint_rule_families(const std::string& source_root);

}  // namespace vgprs::analysis
