#include "diff/report_json.h"

#include "common/json.h"

namespace procheck::diff {

constexpr int kReportVersion = 1;

std::string encode_report(const DiffReport& report) {
  std::string out = "{\"diff\":" + std::to_string(kReportVersion);
  out += ",\"left\":" + json_quote(report.left_name);
  out += ",\"right\":" + json_quote(report.right_name);
  out += std::string(",\"equivalent\":") + (report.equivalent ? "true" : "false");
  out += std::string(",\"inconclusive\":") + (report.inconclusive ? "true" : "false");
  out += ",\"note\":" + json_quote(report.note);
  out += ",\"pairs\":" + std::to_string(report.product_pairs);
  out += ",\"edges\":[";
  for (std::size_t i = 0; i < report.edges.size(); ++i) {
    const ProductEdge& e = report.edges[i];
    if (i > 0) out += ',';
    out += "{\"from\":" + json_quote(e.from) + ",\"to\":" + json_quote(e.to) +
           ",\"input\":" + json_quote(e.input) + "}";
  }
  out += "],\"divergences\":[";
  for (std::size_t i = 0; i < report.divergences.size(); ++i) {
    const Divergence& d = report.divergences[i];
    if (i > 0) out += ',';
    out += "{\"kind\":\"" + std::string(to_string(d.kind)) + "\"";
    out += ",\"input\":" + json_quote(d.input);
    out += ",\"sequence\":" + json_quote_array(d.sequence);
    out += ",\"left_state\":" + json_quote(d.left_state);
    out += ",\"right_state\":" + json_quote(d.right_state);
    out += ",\"left_edge\":" + json_quote(d.left_edge);
    out += ",\"right_edge\":" + json_quote(d.right_edge);
    out += ",\"properties\":" + json_quote_array(d.properties) + "}";
  }
  out += "],\"findings\":[";
  for (std::size_t i = 0; i < report.findings.size(); ++i) {
    const Finding& f = report.findings[i];
    if (i > 0) out += ',';
    out += "{\"property\":" + json_quote(f.property_id);
    out += ",\"attack\":" + json_quote(f.attack_id);
    out += ",\"class\":\"" + std::string(to_string(f.cls)) + "\"";
    out += ",\"violates\":" + json_quote(f.violates);
    out += ",\"left_status\":" + json_quote(f.left_status);
    out += ",\"right_status\":" + json_quote(f.right_status);
    out += ",\"note\":" + json_quote(f.note) + "}";
  }
  out += "]}";
  return out;
}

}  // namespace procheck::diff
