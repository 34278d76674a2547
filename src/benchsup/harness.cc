#include "benchsup/harness.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "eval/graph_engine.h"
#include "util/deadline.h"

namespace gqopt {
namespace {

double Now() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

}  // namespace

RunMeasurement MeasureRelational(const api::Database& db, const Ucqt& query,
                                 const api::ExecOptions& options) {
  RunMeasurement out;
  // The caller hands over the exact query to measure (baseline or already
  // schema-enriched), so the facade must not enrich it again.
  api::ExecOptions prepare_options = options;
  prepare_options.apply_schema_rewrite = false;
  auto prepared = db.Prepare(query, prepare_options);
  if (!prepared.ok()) {
    out.error = prepared.status().ToString();
    return out;
  }
  api::Session session(db, prepare_options);
  int repetitions = std::max(1, options.repetitions);
  double total = 0;
  for (int rep = 0; rep < repetitions; ++rep) {
    auto result = (*prepared)->Execute(session);
    if (!result.ok()) {
      out.error = result.status().ToString();
      out.feasible = false;
      return out;
    }
    out.result_rows = result->rows();
    total += result->exec_seconds;
  }
  out.feasible = true;
  out.seconds = total / repetitions;
  return out;
}

RunMeasurement MeasureGraph(const api::Database& db, const Ucqt& query,
                            const api::ExecOptions& options) {
  RunMeasurement out;
  GraphEngine engine(db.graph());
  int repetitions = std::max(1, options.repetitions);
  double total = 0;
  for (int rep = 0; rep < repetitions; ++rep) {
    Deadline deadline = Deadline::AfterMillis(options.timeout_ms);
    double start = Now();
    auto result = engine.Run(query, deadline);
    double elapsed = Now() - start;
    if (!result.ok()) {
      out.error = result.status().ToString();
      out.feasible = false;
      return out;
    }
    out.result_rows = result->rows.size();
    total += elapsed;
  }
  out.feasible = true;
  out.seconds = total / repetitions;
  return out;
}

Result<RewriteResult> PrepareSchemaQuery(const Ucqt& query,
                                         const GraphSchema& schema,
                                         const RewriteOptions& options) {
  return RewriteQuery(query, schema, options);
}

void PrintTable(const std::vector<std::string>& header,
                const std::vector<std::vector<std::string>>& rows) {
  std::vector<size_t> widths(header.size(), 0);
  for (size_t c = 0; c < header.size(); ++c) widths[c] = header[c].size();
  for (const auto& row : rows) {
    for (size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&widths](const std::vector<std::string>& row) {
    std::fputs("|", stdout);
    for (size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string();
      std::printf(" %-*s |", static_cast<int>(widths[c]), cell.c_str());
    }
    std::fputs("\n", stdout);
  };
  print_row(header);
  std::fputs("|", stdout);
  for (size_t c = 0; c < widths.size(); ++c) {
    std::printf("%s|", std::string(widths[c] + 2, '-').c_str());
  }
  std::fputs("\n", stdout);
  for (const auto& row : rows) print_row(row);
}

std::string FormatSeconds(double seconds) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.4f", seconds);
  return buf;
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string MeasurementJson(const RunMeasurement& m) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "{\"feasible\":%s,\"seconds\":%.6f,\"rows\":%zu",
                m.feasible ? "true" : "false", m.seconds, m.result_rows);
  std::string out = buf;
  if (!m.error.empty()) {
    out += ",\"error\":\"" + JsonEscape(m.error) + "\"";
  }
  out += "}";
  return out;
}

bool WriteJsonObjectFile(
    const std::string& path,
    const std::vector<std::pair<std::string, std::string>>& members) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\n", f);
  for (size_t i = 0; i < members.size(); ++i) {
    std::fprintf(f, "  \"%s\": %s%s\n", JsonEscape(members[i].first).c_str(),
                 members[i].second.c_str(),
                 i + 1 < members.size() ? "," : "");
  }
  std::fputs("}\n", f);
  bool ok = std::ferror(f) == 0;
  // fclose flushes; fold its result in so disk-full at flush time is
  // reported as a failure.
  ok = (std::fclose(f) == 0) && ok;
  return ok;
}

}  // namespace gqopt
